"""Box execution engine: run a request sequence inside allocated boxes.

The WLOG reduction inherited from Agrawal et al. [SODA '21] means every
algorithm in this repository — RAND-GREEN, RAND-PAR, DET-PAR, the black-box
baseline, and the modeled OPT — interacts with a processor's request
sequence through exactly one operation:

    *give the processor a compartmentalized box of height ``h`` for
    ``s·h`` time steps and let it run LRU, cold-started, inside it.*

:func:`run_box` implements that operation with a hand-rolled
dict+linked-list LRU inline (hoisting all lookups into locals) rather than
going through the :class:`~repro.paging.lru.LRUCache` attribute API.  It is
not the production hot loop: on the native kernel tier the compiled
reuse-distance kernel in :mod:`repro.paging.kernel` (``run_box_fast``)
serves every call site.  This per-request loop is the reference
semantics, the box walk :func:`~repro.paging.kernel.box_walk` returns on
the reference tier (``REPRO_KERNEL=reference``, or a host without a C
compiler).  The two implementations are asserted bit-identical in the
test suite.

Timing semantics (paper §2, with the additive +1 folded into ``s``):

* a hit costs 1 time unit;
* a miss costs ``miss_cost = s > 1`` time units;
* a request is served only if it *finishes* within the box's budget;
  otherwise the processor stalls for the remainder of the box and the
  request is retried (from a cold cache) in its next box.

A box of height ``h`` has budget ``s·h`` by definition, but ``run_box``
accepts an arbitrary budget so schedulers can cut a box short (e.g. at a
phase boundary) and so tests can probe edge cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "BoxRun",
    "run_box",
    "box_budget",
    "ProfileRun",
    "execute_profile",
    "execute_profile_streaming",
]


def box_budget(height: int, miss_cost: int) -> int:
    """Duration of a compartmentalized box of the given height: ``s·h``."""
    return int(height) * int(miss_cost)


class BoxRun(NamedTuple):
    """Outcome of executing one box.

    A NamedTuple rather than a (frozen) dataclass: one ``BoxRun`` is
    built per box across every simulator, and tuple construction is an
    order of magnitude cheaper than ``object.__setattr__`` per field.

    Attributes
    ----------
    start, end:
        Sequence positions: requests ``start .. end-1`` were served.
    hits, faults:
        Served-request counts (``hits + faults == end - start``).
    time_used:
        Time units consumed serving requests (<= budget).  The box still
        *occupies* its full budget of wall-clock time; ``time_used`` only
        measures productive service and is what progress accounting uses.
    budget, height:
        The box parameters, echoed for audit trails.
    """

    start: int
    end: int
    hits: int
    faults: int
    time_used: int
    budget: int
    height: int

    @property
    def served(self) -> int:
        return self.end - self.start

    @property
    def stalled(self) -> int:
        """Idle time at the end of the box (wall budget minus service)."""
        return self.budget - self.time_used


def run_box(
    seq: np.ndarray,
    start: int,
    height: int,
    budget: int,
    miss_cost: int,
) -> BoxRun:
    """Execute requests ``seq[start:]`` in a cold LRU box.

    Parameters
    ----------
    seq:
        Full request sequence (1-D integer array).
    start:
        Position of the first unserved request (>= 0).
    height:
        Cache capacity inside the box (>= 1).
    budget:
        Time available, normally ``miss_cost * height``.
    miss_cost:
        Fault service time ``s`` (> 1).

    Returns
    -------
    BoxRun
        Progress and accounting for the box.
    """
    if start < 0:
        raise ValueError(f"box start must be >= 0, got {start}")
    if height < 1:
        raise ValueError(f"box height must be >= 1, got {height}")
    if miss_cost <= 1:
        raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
    n = len(seq)
    pos = start
    t = 0
    hits = 0
    faults = 0
    # Inline LRU: most-recent-first doubly linked list threaded through two
    # dicts.  Every resident page has entries in both prv and nxt, with -1
    # as the null sentinel; head is the MRU page, tail the LRU victim.
    prv: dict = {}
    nxt: dict = {}
    head = tail = -1
    cap = int(height)
    mc = int(miss_cost)
    while pos < n:
        page = int(seq[pos])
        if page in prv:  # hit
            if t + 1 > budget:
                break
            t += 1
            hits += 1
            if page != head:
                # unlink (page != head implies prv[page] != -1)
                p = prv[page]
                q = nxt[page]
                nxt[p] = q
                if q != -1:
                    prv[q] = p
                else:
                    tail = p
                # push front
                prv[page] = -1
                nxt[page] = head
                prv[head] = page
                head = page
        else:  # fault
            if t + mc > budget:
                break
            t += mc
            faults += 1
            if len(prv) >= cap:
                victim = tail
                p = prv[victim]
                del prv[victim]
                del nxt[victim]
                if p != -1:
                    nxt[p] = -1
                    tail = p
                else:
                    head = tail = -1
            # push front
            prv[page] = -1
            nxt[page] = head
            if head != -1:
                prv[head] = page
            else:
                tail = page
            head = page
        pos += 1
    return BoxRun(start=start, end=pos, hits=hits, faults=faults, time_used=t, budget=int(budget), height=cap)


@dataclass(frozen=True)
class ProfileRun:
    """Outcome of executing a sequence under a whole box profile.

    Attributes
    ----------
    runs:
        Per-box :class:`BoxRun` records, in order.
    completed:
        True iff the final position reached the end of the sequence.
    position:
        First unserved position after the last box.
    impact:
        Total memory impact ``sum(s * h_i^2)`` of the boxes *used* (every
        listed box counts in full, including its stalled tail — this is the
        green-paging cost the paper's Theorem 1 bounds).
    wall_time:
        Total wall-clock duration ``sum(s * h_i)`` of the boxes used.
    """

    runs: Tuple[BoxRun, ...]
    completed: bool
    position: int
    impact: int
    wall_time: int


def _record_profile_metrics(runs: Sequence[BoxRun], impact: int, wall: int) -> None:
    """Fold one profile execution into the ambient ``sim.*`` counters.

    Called once per profile (not per box, and never from inside
    :func:`run_box` — the offline DP probes ``run_box`` millions of times
    and must stay uninstrumented).  All values are pure functions of the
    simulated work, so they are byte-identical across reruns and worker
    counts.
    """
    reg = obs_metrics.active()
    if not reg.enabled or not runs:
        return
    reg.counter("sim.paging.boxes").inc(len(runs))
    reg.counter("sim.paging.hits").inc(sum(r.hits for r in runs))
    reg.counter("sim.paging.faults").inc(sum(r.faults for r in runs))
    reg.counter("sim.paging.stall_time").inc(sum(r.budget - r.time_used for r in runs))
    reg.counter("sim.paging.wall_time").inc(wall)
    reg.counter("sim.green.impact").inc(impact)
    hist = reg.histogram("sim.paging.box_height")
    for r in runs:
        hist.observe(r.height)


def execute_profile(
    seq: np.ndarray,
    heights: Iterable[int],
    miss_cost: int,
    start: int = 0,
    max_boxes: Optional[int] = None,
) -> ProfileRun:
    """Run ``seq`` through boxes of the given heights until completion.

    ``heights`` may be an infinite iterator (online algorithms emit boxes
    forever); execution stops as soon as the sequence completes, or after
    ``max_boxes`` boxes (a guard against profiles that cannot make
    progress — e.g. heights that never reach a long cycle's working set
    would still progress, so in practice the guard only trips on bugs).

    Boxes run on the tier's box walk (:func:`repro.paging.kernel.box_walk`):
    the cached reuse-distance kernel, or the dict-LRU loop on the
    reference tier; both produce bit-identical runs.

    Every consumed box is charged in full for impact and wall time, even
    the final partially-used one — matching the paper's box accounting.
    """
    from .kernel import box_walk

    runs: List[BoxRun] = []
    pos = int(start)
    n = len(seq)
    impact = 0
    wall = 0
    mc = int(miss_cost)
    walk = box_walk(seq)
    it: Iterator[int] = iter(heights)
    count = 0
    while pos < n:
        if max_boxes is not None and count >= max_boxes:
            break
        try:
            h = int(next(it))
        except StopIteration:
            break
        budget = mc * h
        run = walk(pos, h, budget, mc)
        runs.append(run)
        pos = run.end
        impact += mc * h * h
        wall += budget
        count += 1
        if run.served == 0 and pos < n and budget >= mc:
            # A full box always serves at least one request: its first
            # request is either a hit (cost 1) or a miss (cost s <= s*h).
            raise AssertionError("box with budget >= miss_cost made no progress")
    _record_profile_metrics(runs, impact, wall)
    return ProfileRun(
        runs=tuple(runs),
        completed=pos >= n,
        position=pos,
        impact=impact,
        wall_time=wall,
    )


def execute_profile_streaming(
    chunks: Iterable[np.ndarray],
    heights: Iterable[int],
    miss_cost: int,
    start: int = 0,
    max_boxes: Optional[int] = None,
) -> ProfileRun:
    """:func:`execute_profile` over a *stream* of sequence chunks.

    ``chunks`` yields consecutive 1-D int64 slices whose concatenation is
    the request sequence (e.g. ``TraceStore.iter_chunks`` from
    :mod:`repro.traces`).  The result is **bit-identical** to running
    :func:`execute_profile` on the concatenated array, but peak memory is
    bounded by one box window plus one chunk: a box of height ``h`` can
    serve at most ``miss_cost·h`` requests (each costs >= 1 time unit), so
    only ``[pos, pos + budget)`` ever needs to be resident, and everything
    behind ``pos`` is dropped before each chunk is pulled.

    On the native tier chunks feed an incremental
    :class:`~repro.paging.kernel.StreamKernel` — one amortized sweep per
    request, zero window concatenation, an O(1) compaction.  On the
    reference tier each box is the dict-LRU :func:`run_box` over a window
    of raw requests from ``pos`` on, the loop :func:`execute_profile`
    runs there.
    """
    from . import kernel as _kernel

    mc = int(miss_cost)
    runs: List[BoxRun] = []
    height_it: Iterator[int] = iter(heights)
    chunk_it: Iterator[np.ndarray] = iter(chunks)
    stream = _kernel.StreamKernel() if _kernel._active_native() is not None else None
    window = np.empty(0, dtype=np.int64)  # reference tier: requests from `base` on
    base = 0
    loaded = 0  # total requests pulled from the stream so far
    exhausted = False
    pos = int(start)
    impact = 0
    wall = 0
    count = 0

    def pull() -> bool:
        """Drop the requests behind ``pos`` (no future box starts before
        it), then load one more non-empty chunk; False once the stream
        ends."""
        nonlocal loaded, exhausted, window, base
        while True:
            try:
                chunk = next(chunk_it)
            except StopIteration:
                exhausted = True
                return False
            arr = np.ascontiguousarray(chunk, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError("chunks must be 1-D request arrays")
            if len(arr):
                drop = max(base, min(pos, loaded))
                if stream is not None:
                    stream.compact(drop)
                    stream.append(arr)
                else:
                    window = np.concatenate((window[drop - base :], arr))
                    base = drop
                loaded += len(arr)
                return True

    while True:
        while not exhausted and loaded <= pos:
            pull()
        if exhausted and pos >= loaded:
            break  # sequence complete (mirrors `while pos < n`)
        if max_boxes is not None and count >= max_boxes:
            break
        try:
            h = int(next(height_it))
        except StopIteration:
            break
        budget = mc * h
        while not exhausted and loaded < pos + budget:
            pull()
        if stream is not None:
            run = _kernel.run_box_fast(stream, pos, h, budget, mc)
        else:
            run = run_box(window, pos - base, h, budget, mc)
            run = run._replace(start=pos, end=base + run.end)
        runs.append(run)
        pos = run.end
        impact += mc * h * h
        wall += budget
        count += 1
        if run.served == 0 and pos < loaded and budget >= mc:
            raise AssertionError("box with budget >= miss_cost made no progress")
    _record_profile_metrics(runs, impact, wall)
    return ProfileRun(
        runs=tuple(runs),
        completed=exhausted and pos >= loaded,
        position=pos,
        impact=impact,
        wall_time=wall,
    )
