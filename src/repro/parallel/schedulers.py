"""The scheduler protocol shared by all parallel-paging algorithms.

Every algorithm in this repository — RAND-PAR, DET-PAR, the black-box
packing construction, and the baselines — is a *parallel paging algorithm*
in the paper's sense: given ``p`` disjoint request sequences and a physical
cache budget, it decides who holds how much cache when, and yields a
:class:`~repro.parallel.events.ParallelRunResult`.  The protocol below is
the single structural interface the analysis harness and the CLI program
against; registering implementations by name keeps experiment configs
declarative.

An algorithm is instantiated from a frozen :class:`RunSpec`:
``make_algorithm(RunSpec(...))``.

Every registered algorithm honours the ``$REPRO_KERNEL`` backend switch
(:func:`repro.paging.kernel.kernel_backend`): the default tiers run on
the shared :class:`~repro.parallel.events.EventScheduler` (or a compiled
loop) and the kernelized box server; ``reference`` replays the retained
timestep/per-request oracles.  Both produce byte-identical results — the
differential harness (``tests/parallel/test_differential.py``) enforces
it — so a registry factory never needs to know which backend is active,
and accepts in-memory, memmapped, and
:class:`~repro.parallel.streaming.StreamingWorkload` forms alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Protocol, runtime_checkable

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..workloads.trace import ParallelWorkload
from .events import ParallelRunResult

__all__ = [
    "ParallelPager",
    "RunSpec",
    "ALGORITHM_REGISTRY",
    "register_algorithm",
    "make_algorithm",
    "observe_pager",
]


@runtime_checkable
class ParallelPager(Protocol):
    """Structural type for parallel paging algorithms.

    Implementations expose a class-level ``name`` and a ``run`` method
    mapping a workload to a result.  Constructor signatures vary (seeds,
    distribution kinds, …), so registry factories close over them.
    """

    name: str
    cache_size: int
    miss_cost: int

    def run(self, workload: ParallelWorkload) -> ParallelRunResult:
        """Simulate the algorithm on a workload to completion."""
        ...


@dataclass(frozen=True)
class RunSpec:
    """Frozen configuration of one algorithm run — the stable public API.

    A ``RunSpec`` names everything needed to (re)produce a run, and is
    hashable/picklable, so the execution engine can use it as part of a
    content-addressed cache key.

    Attributes
    ----------
    algorithm:
        Registered algorithm name (see :data:`ALGORITHM_REGISTRY`).
    cache_size:
        *Physical* cache granted to the algorithm, i.e. ``xi * k``.
    miss_cost:
        Fault service time ``s``.
    xi:
        Resource-augmentation factor relative to OPT's cache ``k``;
        ``cache_size`` must be divisible by ``xi`` so that
        ``k = cache_size // xi`` is exact.
    seed:
        Seed for randomized algorithms (ignored by deterministic ones).
    """

    algorithm: str
    cache_size: int
    miss_cost: int
    xi: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.xi < 1:
            raise ValueError(f"xi must be >= 1, got {self.xi}")
        if self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.miss_cost < 1:
            raise ValueError(f"miss_cost must be >= 1, got {self.miss_cost}")
        if self.cache_size % self.xi:
            raise ValueError(
                f"cache_size ({self.cache_size}) must be divisible by xi ({self.xi})"
            )

    @property
    def k(self) -> int:
        """OPT's (un-augmented) cache size: ``cache_size // xi``."""
        return self.cache_size // self.xi

    def with_seed(self, seed: int) -> "RunSpec":
        """Copy of this spec with a different replication seed."""
        return replace(self, seed=seed)


#: name -> factory(cache_size, miss_cost, seed) -> ParallelPager
ALGORITHM_REGISTRY: Dict[str, Callable[[int, int, int], ParallelPager]] = {}


def register_algorithm(
    name: str,
    factory: Callable[[int, int, int], ParallelPager],
    overwrite: bool = False,
) -> None:
    """Register an algorithm factory under ``name`` for harness/CLI lookup.

    Duplicate names are rejected loudly (a plugin silently shadowing a
    built-in would corrupt every experiment table); pass
    ``overwrite=True`` to replace an existing registration on purpose.
    """
    if name in ALGORITHM_REGISTRY and not overwrite:
        raise ValueError(
            f"algorithm {name!r} already registered; pass overwrite=True to replace it"
        )
    ALGORITHM_REGISTRY[name] = factory


def make_algorithm(spec: RunSpec) -> ParallelPager:
    """Instantiate a registered algorithm from a :class:`RunSpec`.

    Raises ``TypeError`` for anything but a ``RunSpec``, and ``KeyError``
    with the list of known names on typos.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(f"make_algorithm takes a RunSpec, got {type(spec).__name__}")
    try:
        factory = ALGORITHM_REGISTRY[spec.algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHM_REGISTRY))
        raise KeyError(f"unknown algorithm {spec.algorithm!r}; known: {known}") from None
    return observe_pager(factory(spec.cache_size, spec.miss_cost, spec.seed))


def observe_pager(pager: ParallelPager) -> ParallelPager:
    """Wrap ``pager`` so its runs record obs spans and ``sim.*`` counters.

    :func:`make_algorithm` applies this automatically; call it directly
    when constructing an algorithm by hand (as experiments with bespoke
    run arguments do) so ``repro profile`` and ``--metrics`` still see
    the run.  With no observability scope active this returns ``pager``
    unchanged, so the uninstrumented path stays allocation-free.
    """
    if obs_metrics.enabled() or obs_tracing.enabled():
        return _ObservedPager(pager)
    return pager


def _record_run_metrics(result: ParallelRunResult) -> None:
    """Fold one parallel run's box trace into the ambient ``sim.*`` counters.

    Everything here is derived from the :class:`ParallelRunResult` trace —
    a pure function of the simulated schedule — so the counters are
    byte-identical across reruns and worker counts.  Boxes are split by
    their ``tag`` (the §3.2 primary/secondary distinction, plus the
    packing construction's "base"/"strip"/"singleton" labels), and stall
    time is the reserved duration not spent serving requests.
    """
    reg = obs_metrics.active()
    if not reg.enabled:
        return
    alg = result.algorithm
    s = result.miss_cost
    stall = 0
    transitions = 0
    last_height: Dict[int, int] = {}
    hist = reg.histogram("sim.parallel.box_height", algorithm=alg)
    for box in result.trace:
        tag = box.tag or "untagged"
        reg.counter("sim.parallel.boxes", algorithm=alg, tag=tag).inc()
        reg.counter("sim.parallel.served", algorithm=alg, proc=box.proc).inc(box.served)
        stall += max(0, box.duration - (box.hits + s * box.faults))
        prev = last_height.get(box.proc)
        if prev is not None and prev != box.height:
            transitions += 1
        last_height[box.proc] = box.height
        hist.observe(box.height)
    if result.trace:
        reg.counter("sim.parallel.stall_time", algorithm=alg).inc(stall)
        reg.counter("sim.parallel.height_transitions", algorithm=alg).inc(transitions)
        reg.counter("sim.parallel.impact", algorithm=alg).inc(result.total_impact())
    reg.gauge("sim.parallel.makespan", algorithm=alg).record_max(result.makespan)


class _ObservedPager:
    """Transparent pager wrapper that records obs spans and counters.

    Installed by :func:`make_algorithm` only when an observability scope
    is active, so the uninstrumented path stays allocation-free.  All
    attribute access (``name``, ``cache_size``, seeds, …) delegates to
    the wrapped pager, so the wrapper satisfies :class:`ParallelPager`
    whenever the inner algorithm does.
    """

    def __init__(self, inner: ParallelPager) -> None:
        self._inner = inner

    def __getattr__(self, name: str):
        """Delegate everything but ``run`` to the wrapped pager."""
        return getattr(self._inner, name)

    def run(self, workload: ParallelWorkload, **kwargs) -> ParallelRunResult:
        """Run the wrapped algorithm under a span, then record its trace.

        Extra keyword arguments (``max_chunks`` and friends) pass through
        to the wrapped pager's ``run``.
        """
        with obs_tracing.span(
            "algorithm.run", algorithm=self._inner.name, p=workload.p
        ):
            result = self._inner.run(workload, **kwargs)
        _record_run_metrics(result)
        return result
