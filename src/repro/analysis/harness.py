"""One-call experiment runner: algorithms × workload → comparable summaries.

Every benchmark and example funnels through :func:`run_experiment`, which
fixes the methodology once:

* the same certified lower bound (computed at the **un-augmented** cache
  ``k``) divides every algorithm's makespan, so rows are comparable;
* algorithms are granted ``ξ·k`` physical cache (resource augmentation is
  explicit, never hidden);
* randomized algorithms are replicated over seeds and report mean/max.

Execution is delegated to the :mod:`repro.exec` engine: every
``(algorithm, seed)`` cell and every lower-bound computation is a cacheable
work unit, run serially by default or fanned out over a process pool when
an ``execution(jobs=N)`` scope (or CLI ``--jobs N``) is active — with
row-for-row identical results either way.

Algorithms are passed as :class:`~repro.parallel.RunSpec` objects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exec.engine import ExecutionEngine, current_engine
from ..exec.policy import FailedCell
from ..exec.units import WorkUnit
from ..parallel.metrics import RunSummary
from ..parallel.opt import MakespanLowerBound
from ..parallel.schedulers import RunSpec
from ..workloads.trace import ParallelWorkload

__all__ = ["ExperimentRow", "resolve_workload", "run_experiment", "round_optional", "SCHEMA_VERSION"]

#: Version of the exported row schema (the ``as_dict`` key set and
#: rounding rules).  Bumped to 2 when ``schema_version`` itself was added,
#: to 3 when the ``failed`` column (seeds lost to FailedCell outcomes)
#: arrived, to 4 when the ``trace`` column (content digest of a
#: registry/store-backed workload) arrived; bump again whenever a column
#: is added, renamed, or re-rounded so CSV consumers can detect the change.
SCHEMA_VERSION = 4


def round_optional(value: Optional[float], ndigits: int = 3) -> Optional[float]:
    """Round for stable CSV/Markdown export; ``None`` (no bound) passes through."""
    return None if value is None else round(value, ndigits)


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated result of one (algorithm, workload) cell.

    ``*_ratio`` fields are means over seeds; ``max_makespan_ratio`` is the
    worst seed (what an adversary sees of a randomized algorithm).
    ``failed`` counts replicates lost to :class:`~repro.exec.FailedCell`
    outcomes under a keep-going policy; a row whose every replicate
    failed carries ``makespan = nan`` and renders as ``FAIL``.
    ``trace`` is the workload's content digest when it came from the
    trace registry or a ``.trc`` store (empty for ad-hoc in-memory
    workloads), so exported tables say exactly which trace produced them.
    """

    algorithm: str
    p: int
    seeds: int
    makespan: float
    makespan_ratio: Optional[float]
    max_makespan_ratio: Optional[float]
    mean_completion_ratio: Optional[float]
    xi_measured: float
    utilization: float
    failed: int = 0
    trace: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Rounded dict form for table rendering / CSV export.

        The key order and rounding are stable within a
        :data:`SCHEMA_VERSION`; the version rides along in every row so
        exported tables are self-describing.
        """
        return {
            "algorithm": self.algorithm,
            "p": self.p,
            "seeds": self.seeds,
            "makespan": round(self.makespan, 1) if not math.isnan(self.makespan) else self.makespan,
            "makespan_ratio": round_optional(self.makespan_ratio),
            "max_makespan_ratio": round_optional(self.max_makespan_ratio),
            "mean_completion_ratio": round_optional(self.mean_completion_ratio),
            "xi_measured": round(self.xi_measured, 3),
            "utilization": round(self.utilization, 3),
            "failed": self.failed,
            "trace": self.trace,
            "schema_version": SCHEMA_VERSION,
        }


def resolve_workload(workload: Union[ParallelWorkload, str]) -> ParallelWorkload:
    """Accept a workload object or a trace-registry reference.

    A string is resolved through the default :class:`repro.traces.TraceRegistry`
    (name, content digest, or digest prefix) and opened as a zero-copy
    store-backed workload, so experiments can say ``workload="my-trace"``
    and the trace's content digest flows into cache keys and result rows.
    """
    if not isinstance(workload, str):
        # anything workload-shaped passes through untouched: in-memory
        # ParallelWorkload, store-backed StoredWorkload, or a streamed
        # StreamingWorkload view
        return workload
    from ..traces.registry import default_registry

    return default_registry().workload(workload)


def _cell_unit(workload: ParallelWorkload, spec: RunSpec, seed: int) -> WorkUnit:
    """The work unit for one (algorithm, workload, seed) simulation."""
    return WorkUnit(
        kind="parallel-run",
        params={
            "algorithm": spec.algorithm,
            "cache_size": spec.cache_size,
            "miss_cost": spec.miss_cost,
            "seed": seed,
            "workload": workload,
        },
        label=f"{spec.algorithm}/p={workload.p}/seed={seed}",
    )


def _attach_bounds(
    summary: RunSummary, lb: Optional[MakespanLowerBound], mean_lb: Optional[float]
) -> RunSummary:
    """Attach ratio fields to a lower-bound-free cached summary."""
    return replace(
        summary,
        makespan_ratio=(summary.makespan / lb.value) if lb and lb.value else None,
        mean_completion_ratio=(summary.mean_completion / mean_lb) if mean_lb else None,
    )


def _aggregate(
    spec: RunSpec,
    workload: ParallelWorkload,
    summaries: Sequence[RunSummary],
    failed: int = 0,
    trace: str = "",
) -> ExperimentRow:
    """Reduce per-seed summaries to one table row (mean/max over seeds).

    ``failed`` replicates are excluded from every aggregate; with no
    surviving summary at all the row is a marked placeholder (nan
    makespan) rather than a crash.
    """
    if not summaries:
        return ExperimentRow(
            algorithm=spec.algorithm,
            p=workload.p,
            seeds=0,
            makespan=float("nan"),
            makespan_ratio=None,
            max_makespan_ratio=None,
            mean_completion_ratio=None,
            xi_measured=float("nan"),
            utilization=float("nan"),
            failed=failed,
            trace=trace,
        )
    mks = [sm.makespan for sm in summaries]
    ratios = [sm.makespan_ratio for sm in summaries if sm.makespan_ratio is not None]
    mean_ratios = [sm.mean_completion_ratio for sm in summaries if sm.mean_completion_ratio is not None]
    return ExperimentRow(
        algorithm=spec.algorithm,
        p=workload.p,
        seeds=len(summaries),
        makespan=float(np.mean(mks)),
        makespan_ratio=float(np.mean(ratios)) if ratios else None,
        max_makespan_ratio=float(np.max(ratios)) if ratios else None,
        mean_completion_ratio=float(np.mean(mean_ratios)) if mean_ratios else None,
        xi_measured=float(np.mean([sm.xi_measured for sm in summaries])),
        utilization=float(np.mean([sm.utilization for sm in summaries])),
        failed=failed,
        trace=trace,
    )


def _resolve_specs(algorithms: Union[RunSpec, Sequence[RunSpec]]) -> Tuple[List[RunSpec], int, int]:
    """Normalize ``algorithms`` to ``(specs, k, miss_cost)``."""
    specs = [algorithms] if isinstance(algorithms, RunSpec) else list(algorithms)
    for spec in specs:
        if not isinstance(spec, RunSpec):
            raise TypeError(f"run_experiment takes RunSpecs, got {type(spec).__name__}")
    ks = {s.k for s in specs}
    if len(ks) != 1:
        raise ValueError(f"all RunSpecs must share one k = cache_size/xi for a comparable lower bound; got {sorted(ks)}")
    costs = {s.miss_cost for s in specs}
    if len(costs) != 1:
        raise ValueError(f"all RunSpecs must share one miss_cost; got {sorted(costs)}")
    return specs, ks.pop(), costs.pop()


def run_experiment(
    workload: Union[ParallelWorkload, str],
    algorithms: Union[RunSpec, Sequence[RunSpec]],
    seeds: Optional[Sequence[int]] = None,
    include_impact_lb: bool = True,
    lower_bound: Optional[MakespanLowerBound] = None,
    mean_lower_bound: Optional[float] = None,
    engine: Optional[ExecutionEngine] = None,
) -> List[ExperimentRow]:
    """Run each algorithm on ``workload`` and summarize against the LB.

    ``workload`` may be a :class:`ParallelWorkload` or a trace-registry
    reference (name / digest / digest prefix, see
    :class:`repro.traces.TraceRegistry`); registry and store-backed
    workloads stream zero-copy from disk and stamp their content digest
    into every row's ``trace`` column.

    Usage::

        run_experiment(workload, [RunSpec("det-par", cache_size=32,
                                          miss_cost=8, xi=2), ...],
                       seeds=(0, 1, 2))

    where ``k = cache_size // xi`` (shared by all specs) locates the
    certified lower bound.

    Parameters
    ----------
    seeds:
        Replication seeds; defaults to each spec's own ``seed``.  The
        harness detects deterministic algorithms (identical makespans on
        the first two seeds) and keeps just those two replicates.
    lower_bound, mean_lower_bound:
        Pass precomputed bounds to skip the (potentially expensive)
        impact DP when sweeping algorithms over one workload.
    engine:
        Execution engine override; defaults to the ambient
        :func:`repro.exec.current_engine` (serial unless an
        ``execution(jobs=N)`` scope or CLI ``--jobs`` is active).
    """
    workload = resolve_workload(workload)
    trace_digest = str(getattr(workload, "content_digest", "") or "")
    specs, k_opt, cost = _resolve_specs(algorithms)
    eng = engine if engine is not None else current_engine()

    # --- batch 1: lower bounds + the first (up to) two seeds per spec --- #
    prefix_units: List[WorkUnit] = []
    if lower_bound is None:
        prefix_units.append(
            WorkUnit(
                kind="makespan-lb",
                params={"workload": workload, "k": k_opt, "miss_cost": cost, "include_impact": include_impact_lb},
                label=f"makespan-lb/p={workload.p}/k={k_opt}",
            )
        )
    if mean_lower_bound is None:
        prefix_units.append(
            WorkUnit(
                kind="mean-lb",
                params={"workload": workload, "k": k_opt, "miss_cost": cost},
                label=f"mean-lb/p={workload.p}/k={k_opt}",
            )
        )
    seed_lists = [list(seeds) if seeds is not None else [spec.seed] for spec in specs]
    probe_index: List[Tuple[int, int]] = []  # (spec index, seed)
    probe_units: List[WorkUnit] = []
    for si, (spec, seed_list) in enumerate(zip(specs, seed_lists)):
        for seed in seed_list[:2]:
            probe_index.append((si, seed))
            probe_units.append(_cell_unit(workload, spec, seed))
    values = eng.run(prefix_units + probe_units)
    vi = 0
    lb = lower_bound
    if lower_bound is None:
        lb = values[vi]
        vi += 1
    mean_lb = mean_lower_bound
    if mean_lower_bound is None:
        mean_lb = values[vi]
        vi += 1
    # a lower bound lost to a FailedCell (keep-going policy) degrades the
    # table to unbounded rows (ratios None) instead of aborting the run
    if isinstance(lb, FailedCell):
        warnings.warn(f"makespan lower bound failed ({lb.error}); ratios omitted", RuntimeWarning, stacklevel=2)
        lb = None
    if isinstance(mean_lb, FailedCell):
        warnings.warn(
            f"mean-completion lower bound failed ({mean_lb.error}); ratios omitted", RuntimeWarning, stacklevel=2
        )
        mean_lb = None
    per_spec: List[List[RunSummary]] = [[] for _ in specs]
    failures: List[int] = [0 for _ in specs]

    def _absorb(si: int, value: object) -> None:
        if isinstance(value, FailedCell):
            failures[si] += 1
        else:
            per_spec[si].append(value)

    for (si, _seed), value in zip(probe_index, values[vi:]):
        _absorb(si, value)

    # --- dedup probe: deterministic algorithms need no further seeds --- #
    remaining: List[Tuple[int, int]] = []
    for si, (spec, seed_list) in enumerate(zip(specs, seed_lists)):
        summaries = per_spec[si]
        if len(seed_list) > 2 and (
            failures[si] > 0  # can't prove determinism from a failed probe
            or (len(summaries) == 2 and summaries[0].makespan != summaries[1].makespan)
        ):
            remaining.extend((si, seed) for seed in seed_list[2:])

    # --- batch 2: the remaining replicates of randomized algorithms --- #
    if remaining:
        tail_units = [_cell_unit(workload, specs[si], seed) for si, seed in remaining]
        for (si, _seed), value in zip(remaining, eng.run(tail_units)):
            _absorb(si, value)

    rows: List[ExperimentRow] = []
    for si, (spec, summaries) in enumerate(zip(specs, per_spec)):
        bounded = [_attach_bounds(sm, lb, mean_lb) for sm in summaries]
        rows.append(_aggregate(spec, workload, bounded, failed=failures[si], trace=trace_digest))
    return rows
