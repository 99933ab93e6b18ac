"""Event scheduling and shared record types for parallel-paging simulations.

Every parallel algorithm in this repository — RAND-PAR, DET-PAR, the
black-box packing baseline, and the structured OPT schedules — produces the
same artifact: a :class:`ParallelRunResult` holding per-processor
completion times plus a full :class:`BoxRecord` trace.  The trace is what
makes the theory auditable: the well-roundedness checker (§3.3), the
balance checker (Lemma 7), and the capacity ledger all operate on it
without re-running the simulation.

This module also owns :class:`EventScheduler`, the deterministic min-heap
event queue that drives the box simulators in :mod:`repro.parallel`:
DET-PAR's segment/strip events and the black-box packing loop pop from
the same structure, so their tie-breaking is defined in one place.
GLOBAL-LRU does not use it.  It schedules one event per simulated
request — one pending completion per processor, never cancelled — so
it keeps a bare heap of ``(time, processor)`` keys, which pops the
same ``(time, priority=processor)`` order without the per-event token,
payload and cancellation bookkeeping, and skips the heap entirely while
the processor it just served still holds the earliest completion.  That
loop runs compiled on the native kernel tier, in python otherwise (see
:mod:`repro.parallel.timestep`).  The retained
per-timestep loops stay available as the reference oracle behind the
``$REPRO_SIM`` switch (:func:`sim_backend`), mirroring the ``run_box`` /
``run_box_fast`` pattern of :mod:`repro.paging.kernel`.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SIM_ENV",
    "sim_backend",
    "resolve_sim_backend",
    "EventScheduler",
    "BoxRecord",
    "ParallelRunResult",
    "peak_concurrent_height",
    "capacity_profile",
]

#: Environment variable selecting the parallel-simulator backend.
SIM_ENV = "REPRO_SIM"


def sim_backend() -> str:
    """The active parallel-simulator backend: ``"event"`` (default),
    ``"reference"``, or ``"auto"``.

    Controlled by ``$REPRO_SIM``.  The event and reference backends
    produce byte-identical results (completion times, traces, ``sim.*``
    counters) — the reference per-timestep / per-request loops exist as a
    cross-check oracle for the differential harness and as an escape
    hatch, exactly like ``$REPRO_KERNEL`` for the box kernel.  ``auto``
    defers the choice to each simulator cell via
    :func:`resolve_sim_backend`, which logs its pick in ``sim.*``
    metrics.
    """
    value = os.environ.get(SIM_ENV, "event").strip().lower() or "event"
    if value in ("event", "fast"):
        return "event"
    if value in ("reference", "ref", "timestep"):
        return "reference"
    if value == "auto":
        return "auto"
    raise ValueError(
        f"unknown {SIM_ENV} backend {value!r}; expected 'event', 'reference', or 'auto'"
    )


def resolve_sim_backend(
    cell: str,
    *,
    streaming: bool = False,
    p: int = 1,
    lengths: Optional[Sequence[int]] = None,
) -> str:
    """Resolve ``sim_backend()`` to a concrete backend for one simulator cell.

    Under ``REPRO_SIM=auto`` this applies a per-cell heuristic; any other
    setting passes straight through.  The heuristic encodes what the
    stream benchmark measures: the event backend wins whenever box probes
    are vectorized cheaply (the native kernel tier, or non-streamed runs
    where :class:`~repro.paging.kernel.SequenceKernel` probes amortize),
    and loses only on streamed per-chunk serving with the numpy-only
    kernel on heavily imbalanced feeds, where per-box overhead on
    mostly-tiny boxes dominates.  Every resolution is recorded under the
    ``sim.backend.auto`` counter with the cell name, the chosen backend,
    and the deciding reason, so benchmark rows can assert which simulator
    actually ran.
    """
    mode = sim_backend()
    if mode != "auto":
        return mode
    from ..obs import metrics as obs_metrics
    from ..paging.kernel import kernel_backend

    if kernel_backend() == "reference":
        choice, reason = "reference", "kernel-reference"
    elif not streaming:
        choice, reason = "event", "batch"
    elif kernel_backend() == "native":
        choice, reason = "event", "native-kernel"
    else:
        # streamed serving on the numpy kernel: tiny-box overhead is the
        # risk, and it grows with feed imbalance (many processors slaved
        # to one long feed => many short boxes per long-feed chunk)
        imbalance = 1.0
        if lengths:
            sizes = [max(0, int(x)) for x in lengths]
            mean = sum(sizes) / len(sizes)
            if mean > 0:
                imbalance = max(sizes) / mean
        if p > 1 and imbalance > 4.0:
            choice, reason = "reference", "streamed-imbalanced"
        else:
            choice, reason = "event", "streamed-balanced"
    obs_metrics.counter("sim.backend.auto", cell=cell, choice=choice, reason=reason).inc()
    return choice


class EventScheduler:
    """Deterministic min-heap event queue for parallel simulators.

    Events are ``(time, priority, kind, data)`` tuples ordered by
    ``(time, priority, sequence number)``:

    * ``priority`` defaults to the push sequence number, giving FIFO order
      among same-time events — DET-PAR's historical ``(t, counter)`` order;
    * an explicit ``priority`` pins the tie-break to a domain key, e.g.
      a processor index, so same-time events pop in ascending processor
      order.

    :meth:`cancel` is O(1); cancelled events are skipped at pop time, the
    same lazy-invalidation pattern DET-PAR used with stale tokens.  The
    queue itself never looks at ``kind``/``data``, so ordering can never
    depend on payload contents — the invariant the differential test
    harness pins down.
    """

    __slots__ = ("_heap", "_seq", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, str, object]] = []
        self._seq = 0
        self._cancelled: set = set()

    def schedule(self, time: int, kind: str, data: object = None, priority: Optional[int] = None) -> int:
        """Enqueue an event; returns a token usable with :meth:`cancel`."""
        token = self._seq
        self._seq += 1
        prio = token if priority is None else int(priority)
        heapq.heappush(self._heap, (int(time), prio, token, kind, data))
        return token

    def cancel(self, token: int) -> None:
        """Invalidate a scheduled event (skipped lazily at pop time)."""
        self._cancelled.add(token)

    def pop(self) -> Tuple[int, int, str, object]:
        """Remove and return the earliest live event ``(time, token, kind, data)``."""
        cancelled = self._cancelled
        while self._heap:
            time, _, token, kind, data = heapq.heappop(self._heap)
            if token in cancelled:
                cancelled.discard(token)
                continue
            return time, token, kind, data
        raise IndexError("pop from an empty EventScheduler")

    def peek_time(self) -> int:
        """Time of the earliest live event (raises IndexError when empty)."""
        cancelled = self._cancelled
        while self._heap and self._heap[0][2] in cancelled:
            cancelled.discard(heapq.heappop(self._heap)[2])
        if not self._heap:
            raise IndexError("peek on an empty EventScheduler")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self._heap) > len(self._cancelled)


class BoxRecord(NamedTuple):
    """One box as actually executed by one processor.

    A NamedTuple for the same reason as :class:`~repro.paging.engine.BoxRun`:
    one record is appended per box across every simulator, and tuple
    construction is an order of magnitude cheaper than a frozen
    dataclass's per-field ``object.__setattr__``.

    Attributes
    ----------
    proc:
        Processor index.
    height:
        Box height (pages).
    start, end:
        Wall-clock interval during which the box's memory was reserved.
        ``end - start`` can be shorter than the nominal ``s·height`` when a
        box was preempted by a taller one or cut by a phase boundary.
    served_start, served_end:
        Request positions served inside the box.
    hits, faults:
        Service counts inside the box.
    phase:
        Phase index the box belongs to (algorithm-specific; -1 if unused).
    tag:
        Free-form origin label ("primary", "secondary", "base", "strip",
        "singleton", "green", …) used by the audits and reports.
    """

    proc: int
    height: int
    start: int
    end: int
    served_start: int
    served_end: int
    hits: int
    faults: int
    phase: int = -1
    tag: str = ""

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def served(self) -> int:
        return self.served_end - self.served_start

    @property
    def reserved_impact(self) -> int:
        """Impact actually charged: height × reserved duration."""
        return self.height * self.duration


@dataclass
class ParallelRunResult:
    """Outcome of one parallel-paging simulation.

    Attributes
    ----------
    algorithm:
        Name of the scheduler that produced the run.
    completion_times:
        Per-processor completion times (int64 array, length p).
    trace:
        Every executed box, in start-time order (ties arbitrary).
    cache_size:
        Total cache the algorithm was allowed to reserve (``ξ·k``).
    miss_cost:
        Fault cost ``s``.
    meta:
        Scheduler-specific extras (phase boundaries, seeds, draw counts…).
    """

    algorithm: str
    completion_times: np.ndarray
    trace: List[BoxRecord]
    cache_size: int
    miss_cost: int
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def p(self) -> int:
        return len(self.completion_times)

    @property
    def makespan(self) -> int:
        """Maximum completion time (the paper's primary objective)."""
        return int(self.completion_times.max()) if self.p else 0

    @property
    def mean_completion_time(self) -> float:
        """Average completion time (the Corollary 3 objective)."""
        return float(self.completion_times.mean()) if self.p else 0.0

    def total_impact(self) -> int:
        """Total reserved impact across the whole trace."""
        return sum(r.reserved_impact for r in self.trace)

    def impact_by_proc(self) -> np.ndarray:
        """Reserved impact per processor (int64 array, length p)."""
        out = np.zeros(self.p, dtype=np.int64)
        for r in self.trace:
            out[r.proc] += r.reserved_impact
        return out

    def boxes_of(self, proc: int) -> List[BoxRecord]:
        """All boxes executed by one processor, in trace order."""
        return [r for r in self.trace if r.proc == proc]

    def validate(self) -> None:
        """Structural sanity: intervals well-formed, service contiguous."""
        by_proc: Dict[int, List[BoxRecord]] = {}
        for r in self.trace:
            if r.end < r.start:
                raise AssertionError(f"box with negative duration: {r}")
            if r.served_end < r.served_start:
                raise AssertionError(f"box with negative service: {r}")
            if r.hits + r.faults != r.served:
                raise AssertionError(f"hits+faults != served: {r}")
            by_proc.setdefault(r.proc, []).append(r)
        for proc, boxes in by_proc.items():
            boxes.sort(key=lambda r: (r.start, r.served_start))
            pos = None
            for r in boxes:
                if pos is not None and r.served_start != pos:
                    raise AssertionError(
                        f"proc {proc}: service not contiguous at position {pos} vs {r.served_start}"
                    )
                pos = r.served_end


def capacity_profile(trace: Sequence[BoxRecord]) -> Tuple[np.ndarray, np.ndarray]:
    """Step function of total reserved height over time.

    Returns ``(times, heights)`` where ``heights[i]`` is the reserved total
    in ``[times[i], times[i+1])``.  Used by the capacity-ledger tests and
    the utilization metric.
    """
    if not trace:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    deltas: Dict[int, int] = {}
    for r in trace:
        if r.duration == 0:
            continue
        deltas[r.start] = deltas.get(r.start, 0) + r.height
        deltas[r.end] = deltas.get(r.end, 0) - r.height
    times = np.array(sorted(deltas), dtype=np.int64)
    heights = np.cumsum([deltas[int(t)] for t in times]).astype(np.int64)
    return times, heights


def peak_concurrent_height(trace: Sequence[BoxRecord]) -> int:
    """Maximum total height reserved at any instant (the memory the
    algorithm actually needed; divide by k for measured ξ)."""
    _, heights = capacity_profile(trace)
    return int(heights.max()) if len(heights) else 0
