"""Parallel-paging simulators, baselines, lower bounds, and metrics.

The algorithms under test (RAND-PAR, DET-PAR, the black-box construction)
live in :mod:`repro.core`; this package provides everything around them:

* :mod:`~repro.parallel.events` — event scheduler, run results, box traces,
  capacity ledger, and :func:`sim_backend` (which simulator loops
  ``$REPRO_KERNEL`` selects);
* :mod:`~repro.parallel.streaming` — trace-store-fed execution in bounded
  memory (:class:`StreamingWorkload`, :class:`BoxServer`);
* :mod:`~repro.parallel.schedulers` — the algorithm protocol + registry;
* :mod:`~repro.parallel.baselines` — EQUAL-PARTITION, BEST-STATIC-PARTITION;
* :mod:`~repro.parallel.timestep` — GLOBAL-LRU (unpartitioned shared cache);
* :mod:`~repro.parallel.opt` — certified lower bounds on OPT;
* :mod:`~repro.parallel.metrics` — uniform experiment summaries.

Importing this package registers every built-in algorithm (including the
core ones) in :data:`~repro.parallel.schedulers.ALGORITHM_REGISTRY`.
"""

import numpy as _np

from .baselines import BestStaticPartition, EqualPartition, static_partition_makespan
from .exact import exact_two_proc_makespan
from .fairness import FairnessReport, fairness_report, jain_index
from .events import (
    BoxRecord,
    BoxTrace,
    EventScheduler,
    ParallelRunResult,
    capacity_profile,
    peak_concurrent_height,
    sim_backend,
)
from .metrics import RunSummary, cache_utilization, summarize
from .opt import MakespanLowerBound, makespan_lower_bound, mean_completion_lower_bound
from .serialize import load_result, save_result
from .schedulers import ALGORITHM_REGISTRY, ParallelPager, RunSpec, make_algorithm, register_algorithm
from .streaming import (
    BoxFeed,
    BoxServer,
    StreamingWorkload,
    make_box_server,
    open_streaming,
    request_feed,
)
from .timestep import GlobalLRU
from .verify import TraceVerification, verify_trace

__all__ = [
    "BestStaticPartition",
    "EqualPartition",
    "static_partition_makespan",
    "exact_two_proc_makespan",
    "FairnessReport",
    "fairness_report",
    "jain_index",
    "sim_backend",
    "EventScheduler",
    "BoxRecord",
    "BoxTrace",
    "ParallelRunResult",
    "capacity_profile",
    "peak_concurrent_height",
    "BoxFeed",
    "BoxServer",
    "StreamingWorkload",
    "make_box_server",
    "open_streaming",
    "request_feed",
    "RunSummary",
    "cache_utilization",
    "summarize",
    "MakespanLowerBound",
    "makespan_lower_bound",
    "mean_completion_lower_bound",
    "load_result",
    "save_result",
    "ALGORITHM_REGISTRY",
    "ParallelPager",
    "RunSpec",
    "make_algorithm",
    "register_algorithm",
    "GlobalLRU",
    "TraceVerification",
    "verify_trace",
]


def _register_builtins() -> None:
    """Register all built-in algorithms by name (idempotent per import).

    The core-algorithm imports happen inside the factories, not here:
    ``repro.core`` imports ``repro.parallel.events`` at module load, so a
    top-level import back into ``repro.core`` would be circular.
    """
    if "rand-par" in ALGORITHM_REGISTRY:
        return

    def _rand_par(k: int, s: int, seed: int) -> ParallelPager:
        from ..core.rand_par import RandPar

        return RandPar(k, s, _np.random.default_rng(seed))

    def _det_par(k: int, s: int, seed: int) -> ParallelPager:
        from ..core.det_par import DetPar

        return DetPar(k, s)

    def _black_box(k: int, s: int, seed: int) -> ParallelPager:
        from ..core.black_box import BlackBoxPar

        return BlackBoxPar(k, s)

    register_algorithm("rand-par", _rand_par)
    register_algorithm("det-par", _det_par)
    register_algorithm("black-box-green", _black_box)
    register_algorithm("equal-partition", lambda k, s, seed: EqualPartition(k, s))
    register_algorithm("best-static-partition", lambda k, s, seed: BestStaticPartition(k, s))
    register_algorithm("global-lru", lambda k, s, seed: GlobalLRU(k, s))


_register_builtins()
