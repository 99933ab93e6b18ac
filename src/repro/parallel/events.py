"""Event scheduling and shared record types for parallel-paging simulations.

Every parallel algorithm in this repository — RAND-PAR, DET-PAR, the
black-box packing baseline, and the structured OPT schedules — produces the
same artifact: a :class:`ParallelRunResult` holding per-processor
completion times plus a full trace of every box it ran.  The trace is
what makes the theory auditable: the well-roundedness checker (§3.3),
the balance checker (Lemma 7), and the capacity ledger all operate on it
without re-running the simulation.

A trace has one layout, :class:`BoxTrace`: one block of int64 rows, one
per box, in the record layout the compiled DET-PAR and RAND-PAR loops
write, so their boxes never pass through python one at a time.  It is
also a read-only sequence of :class:`BoxRecord` tuples, built on first
access.  Whole-trace reductions read the columns with numpy: the
capacity profile behind every summary's peak height, measured ξ and
utilization, the impact sums, :meth:`ParallelRunResult.validate` and
the ``.npz`` archive.  Per-box audits iterate the records.

This module also owns :class:`EventScheduler`, the deterministic min-heap
event queue that drives the box simulators in :mod:`repro.parallel`:
DET-PAR's segment/strip events and the black-box packing loop pop from
the same structure, so their tie-breaking is defined in one place.  On
the native kernel tier DET-PAR runs compiled instead
(:mod:`repro.core.det_par`), over its own heap of events that pop in
the same ``(time, push order)``.  GLOBAL-LRU does not use it.  It schedules one event per simulated
request — one pending completion per processor, never cancelled — so
it keeps a bare heap of ``(time, processor)`` keys, which pops the
same ``(time, priority=processor)`` order without the per-event token,
payload and cancellation bookkeeping, and skips the heap entirely while
the processor it just served still holds the earliest completion.  That
loop runs compiled on the native kernel tier, in python otherwise (see
:mod:`repro.parallel.timestep`).  The retained per-timestep loops are the
reference oracle: ``REPRO_KERNEL=reference``, the one backend switch,
selects them together with the dict-LRU box walk, and
:func:`sim_backend` names the simulator that setting runs.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..paging.kernel import kernel_backend

__all__ = [
    "sim_backend",
    "EventScheduler",
    "BoxRecord",
    "BoxTrace",
    "ParallelRunResult",
    "peak_concurrent_height",
    "capacity_profile",
]


def sim_backend() -> str:
    """The parallel-simulator loops in use: ``"reference"`` exactly when
    :func:`~repro.paging.kernel.kernel_backend` is, ``"event"`` otherwise.

    ``REPRO_KERNEL=reference`` selects every oracle at once: the retained
    per-timestep / per-request simulator loops and the dict-LRU box walk.
    Both sides produce byte-identical results (completion times, traces,
    ``sim.*`` counters); the differential harness holds them together.
    """
    return "reference" if kernel_backend() == "reference" else "event"


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


#: Box records the compiled DET-PAR and RAND-PAR loops buffer between
#: hand-backs, as :class:`BoxTrace` rows.
RECORD_ROWS = 256

# columns of a BoxTrace row (BoxRecord's fields, in order) read by name
_PROC, _HEIGHT, _START, _END, _PHASE, _TAG = 0, 1, 2, 3, 8, 9


class BoxTrace(Sequence):
    """Every box one run executed, as one block of int64 rows.

    Row ``i`` holds box ``i``'s ten :class:`BoxRecord` fields in order,
    its tag as an index into :attr:`tags`: the layout the compiled
    DET-PAR and RAND-PAR loops write their record buffers in, so their
    drivers keep the buffers as they are and concatenate them once.
    The python loops append :class:`BoxRecord` tuples and
    :class:`ParallelRunResult` converts that list once
    (:meth:`from_records`), so every result carries this one
    representation.

    The form is canonical: :attr:`tags` lists the tags the rows use,
    sorted, so two traces of the same records have equal rows and pickle
    to the same bytes, however they were built.  A trace pickles as its
    rows and tags only.

    It is an immutable sequence of :class:`BoxRecord`: ``len``, truth,
    iteration, indexing (a slice gives a list) and ``==`` against any
    record sequence behave as a list of the records would.  The records,
    with python ints, are built on first access and kept.  Readers of
    the whole trace — :func:`capacity_profile`, the impact sums,
    :meth:`ParallelRunResult.validate` and
    :func:`~repro.parallel.serialize.save_result` — read :attr:`rows`
    with numpy and build no record; per-box audits (the trace verifier,
    the well-roundedness checks, the gantt and era views) iterate the
    records.
    """

    __slots__ = ("rows", "tags", "_records")

    def __init__(self, rows: Optional[np.ndarray] = None, tags: Sequence[str] = ()) -> None:
        rows = np.zeros((0, 10), dtype=np.int64) if rows is None else np.array(rows, dtype=np.int64, order="C")
        self._own(rows, tags)

    def _own(self, rows: np.ndarray, tags: Sequence[str]) -> None:
        """Take ``rows`` (C-contiguous int64, owned by no one else) in
        canonical form and make it read-only."""
        if rows.size == 0:
            rows = rows.reshape(0, 10)
        if rows.ndim != 2 or rows.shape[1] != 10:
            raise ValueError(f"box trace rows must have shape (n, 10), not {rows.shape}")
        tags = tuple(tags)
        if len(rows):
            col = rows[:, _TAG]
            if col.min() < 0 or col.max() >= len(tags):
                raise ValueError(f"tag index outside the {len(tags)} tags {tags}")
            used = sorted({tags[i] for i in np.flatnonzero(np.bincount(col, minlength=len(tags)))})
            if tuple(used) != tags:
                where = {t: i for i, t in enumerate(used)}
                rows[:, _TAG] = np.array([where.get(t, 0) for t in tags], dtype=np.int64)[col]
                tags = tuple(used)
        else:
            tags = ()
        rows.setflags(write=False)
        self.rows: np.ndarray = rows
        self.tags: Tuple[str, ...] = tags
        self._records: Optional[Tuple[BoxRecord, ...]] = None

    @classmethod
    def from_blocks(cls, blocks: Sequence[np.ndarray], tags: Sequence[str]) -> "BoxTrace":
        """The trace of a compiled loop's record buffers, concatenated once."""
        trace = cls.__new__(cls)
        trace._own(np.concatenate(blocks) if blocks else np.zeros((0, 10), dtype=np.int64), tags)
        return trace

    @classmethod
    def from_records(cls, records: Iterable[BoxRecord]) -> "BoxTrace":
        """The trace of a sequence of records (itself, for a trace)."""
        if isinstance(records, BoxTrace):
            return records
        records = list(records)
        tags = sorted({r[_TAG] for r in records})
        where = {t: i for i, t in enumerate(tags)}
        trace = cls.__new__(cls)
        trace._own(np.array([(*r[:_TAG], where[r[_TAG]]) for r in records], dtype=np.int64), tags)
        return trace

    def records(self) -> Tuple[BoxRecord, ...]:
        """Every box as a :class:`BoxRecord` of python ints, built once."""
        if self._records is None:
            cols = self.rows.T.tolist()
            cols[_TAG] = [self.tags[x] for x in cols[_TAG]]
            # tuple.__new__ skips the generated __new__'s frame per record
            self._records = tuple(map(tuple.__new__, repeat(BoxRecord), zip(*cols)))
        return self._records

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self.records()[index])
        return self.records()[index]

    def __iter__(self) -> Iterator[BoxRecord]:
        return iter(self.records())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoxTrace):
            return self.tags == other.tags and np.array_equal(self.rows, other.rows)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(other) == len(self) and all(a == b for a, b in zip(self.records(), other))
        return NotImplemented

    def __reduce__(self):
        return BoxTrace, (self.rows, self.tags)

    def __repr__(self) -> str:
        return f"BoxTrace({len(self)} boxes, tags={self.tags})"


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
        Every executed box, in start-time order (ties arbitrary), as a
        :class:`BoxTrace`; a sequence of records passed in is converted
        once.
    cache_size:
        Total cache the algorithm was allowed to reserve (``ξ·k``).
    miss_cost:
        Fault cost ``s``.
    meta:
        Scheduler-specific extras (phase boundaries, seeds, draw counts…).
    """

    algorithm: str
    completion_times: np.ndarray
    trace: BoxTrace
    cache_size: int
    miss_cost: int
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a python loop hands over its list of records: one conversion
        self.trace = BoxTrace.from_records(self.trace)

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
        return int(_impacts(self.trace.rows).sum())

    def impact_by_proc(self) -> np.ndarray:
        """Reserved impact per processor (int64 array, length p)."""
        out = np.zeros(self.p, dtype=np.int64)
        rows = self.trace.rows
        np.add.at(out, rows[:, _PROC], _impacts(rows))
        return out

    def boxes_of(self, proc: int) -> List[BoxRecord]:
        """All boxes executed by one processor, in trace order."""
        return [self.trace[i] for i in np.flatnonzero(self.trace.rows[:, _PROC] == proc).tolist()]

    def validate(self) -> None:
        """Structural sanity: intervals well-formed, service contiguous.

        Raises ``AssertionError`` at the first fault a walk over the
        records finds: a malformed box in trace order, then, processor
        by processor in order of first appearance, a gap in service
        between boxes sorted by ``(start, served_start)``.
        """
        rows = self.trace.rows
        proc, _, start, end, s_start, s_end, hits, faults = rows.T[:_PHASE]
        bad = np.flatnonzero((end < start) | (s_end < s_start) | (hits + faults != s_end - s_start))
        if len(bad):
            r = self.trace[int(bad[0])]
            if r.end < r.start:
                raise AssertionError(f"box with negative duration: {r}")
            if r.served_end < r.served_start:
                raise AssertionError(f"box with negative service: {r}")
            raise AssertionError(f"hits+faults != served: {r}")
        order = np.lexsort((s_start, start, proc))  # stable: ties keep trace order
        proc, s_start, s_end = proc[order], s_start[order], s_end[order]
        gaps = np.flatnonzero((proc[1:] == proc[:-1]) & (s_start[1:] != s_end[:-1])) + 1
        if len(gaps):
            seen, first = np.unique(rows[:, _PROC], return_index=True)
            k = gaps[np.argmin(first[np.searchsorted(seen, proc[gaps])])]
            raise AssertionError(
                f"proc {proc[k]}: service not contiguous at position {s_end[k - 1]} vs {s_start[k]}"
            )


def _impacts(rows: np.ndarray) -> np.ndarray:
    """Each box's reserved impact, height × reserved duration."""
    return rows[:, _HEIGHT] * (rows[:, _END] - rows[:, _START])


def capacity_profile(trace: Iterable[BoxRecord]) -> Tuple[np.ndarray, np.ndarray]:
    """Step function of total reserved height over time.

    Returns ``(times, heights)`` where ``heights[i]`` is the reserved total
    in ``[times[i], times[i+1])``: every start and end of a box that
    reserves for a nonzero duration is a breakpoint, including those
    where the changes cancel.  Used by the capacity-ledger tests and the
    utilization metric.
    """
    rows = BoxTrace.from_records(trace).rows
    kept = rows[rows[:, _START] != rows[:, _END]]
    times = np.concatenate((kept[:, _START], kept[:, _END]))
    order = np.argsort(times)
    times = times[order]
    heights = np.cumsum(np.concatenate((kept[:, _HEIGHT], -kept[:, _HEIGHT]))[order])
    # the running total after the last change at each time
    last = np.ones(len(times), dtype=bool)
    last[:-1] = times[1:] != times[:-1]
    return times[last], heights[last]


def peak_concurrent_height(trace: Iterable[BoxRecord]) -> int:
    """Maximum total height reserved at any instant (the memory the
    algorithm actually needed; divide by k for measured ξ)."""
    _, heights = capacity_profile(trace)
    return int(heights.max()) if len(heights) else 0
