"""DET-PAR: the deterministic well-rounded parallel-paging algorithm (§3.3).

Lemma 6's construction, realized as an event-driven simulator:

* **Phases.**  A phase begins with ``P`` active processors and ends when
  the active count drops to ``P/2``.  The *base height* is ``b = 2·k/P``
  (the paper's ``b_Q = k/p_Q`` with ``p_Q`` = processors active at the end
  of the phase = ``P/2``).
* **Base boxes.**  Every active processor always holds a box of height at
  least ``b``: whenever a processor has nothing taller, it runs height-``b``
  boxes back to back.
* **Strips.**  For each lattice height ``z ∈ {2b, 4b, …, k}``, a *z-strip*
  owns ``m_z = max(1, k/(z·L))`` slots (``L`` = number of levels); each
  slot runs height-``z`` boxes back to back, handing each new box to the
  next active processor in round-robin order.  For ``z ≥ k/L`` this
  degenerates to the paper's single cycling box.  A processor *adopts* an
  offered box only if it is taller than what it currently holds
  (compartmentalized: adoption cold-starts the cache); otherwise the slot's
  box runs unclaimed — its reservation is still charged, exactly as in the
  paper's oblivious construction.
* The height-``b`` strip of the paper is subsumed by the base boxes (which
  provide a height-``b`` box *continuously*, a strictly stronger guarantee)
  and therefore not separately reserved.

The construction is **oblivious**: the schedule depends only on how many
processors are still active, never on hits/misses.  Its guarantees —
well-roundedness (every processor gets a box of height ≥ z at least every
``O(z²·s·log p / b)`` steps) and O(k) total reservation — are audited from
the produced trace by :mod:`.well_rounded` and the capacity tests.

Internal sizing: the algorithm plans against ``k_int``, the largest power
of two whose full reservation (bases + strips) fits in ``cache_size``;
``meta["k_int"]`` and per-phase reservations are reported so experiments
can state the measured resource augmentation exactly.

Two loops run the schedule.  On the native kernel tier (the rule
:class:`~repro.parallel.timestep.GlobalLRU` follows too), the whole event
loop — segment ends and strip slots in
``(time, push order)``, stale-event skips, round-robin strips and the
phase-end finalize — runs compiled as ``repro_detpar_run``
(:mod:`repro.paging._native`) over state arrays :meth:`DetPar.run`
owns.  Boxes are probed in place on each processor's columns: the cached
:class:`~repro.paging.kernel.SequenceKernel` of an in-memory column, and
for a streamed one its rows in the box server's arena when the store
holds it as one chunk, else its :class:`~repro.parallel.streaming.BoxFeed`
window.  Python runs only where the loop hands back: to pull chunks when
a box runs past a multi-chunk column's window, to plan each phase, and to
keep each full record buffer as one block of the run's
:class:`~repro.parallel.events.BoxTrace`.  The python event loop in
:meth:`DetPar.run` is the no-compiler path and the differential oracle;
both produce the same completions, trace and ``meta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..paging.kernel import _active_native
from ..parallel.events import RECORD_ROWS, BoxRecord, BoxTrace, EventScheduler, ParallelRunResult
from ..parallel.streaming import make_box_server
from ..workloads.trace import ParallelWorkload
from .box import validate_lattice
from .rand_par import next_power_of_two

__all__ = ["DetPar"]

#: ``repro_detpar_run``'s state layout (:mod:`repro.paging._native`):
#: the indices into its scalar array, its modes and per-processor fields.
(_T, _REMAINING, _EPOCH, _TOKEN, _SEQ, _HN, _HCAP, _PHASE, _PSA, _BASEH, _NLEV,
 _MODE, _FINJ, _NREC, _RECCAP, _UPTO, _P, _S, _ST_LEN) = range(19)
_SETUP = 2
_PROC_FIELDS = 7  # position, length, done, segment height, start, token, tag
_TAGS = ("base", "strip")


class _Segment:
    """A processor's current execution interval: one (possibly trimmed) box.

    A ``__slots__`` class with a hand-written ``__init__``: one segment is
    allocated per box, and the generated dataclass constructor plus a
    per-instance ``__dict__`` are measurable at streamed scale.
    """

    __slots__ = ("height", "start", "end", "token", "tag")

    def __init__(self, height: int, start: int, end: int, token: int, tag: str) -> None:
        self.height = height
        self.start = start
        self.end = end
        self.token = token
        self.tag = tag


@dataclass
class _PhaseInfo:
    """Reservation bookkeeping per phase (for ξ reporting and audits)."""

    index: int
    start_time: int
    active_at_start: int
    base_height: int
    k_int: int
    levels: int
    strip_slots: Dict[int, int]
    reserved_height: int


class DetPar:
    """Deterministic well-rounded parallel paging (Lemma 6 / Theorem 3).

    Parameters
    ----------
    cache_size:
        Physical cache the algorithm may reserve (any integer >= 1).
        Internal planning uses the largest ``k_int`` whose reservation
        fits; strip heights double from the base, so all lattice
        arguments survive non-power-of-two caches.
    miss_cost:
        Fault service time ``s > 1``.
    """

    name = "det-par"

    def __init__(self, cache_size: int, miss_cost: int) -> None:
        validate_lattice(int(cache_size), 1)
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.cache_size = int(cache_size)
        self.miss_cost = int(miss_cost)

    # ------------------------------------------------------------------ #
    # phase planning
    # ------------------------------------------------------------------ #
    @staticmethod
    def _phase_heights(k_int: int, b: int) -> List[int]:
        """Lattice heights for the phase, ascending: b, 2b, …, k_int."""
        hs = []
        z = b
        while z <= k_int:
            hs.append(z)
            z *= 2
        return hs

    def _plan_phase(self, n_active: int) -> Tuple[int, int, Dict[int, int], int]:
        """Choose ``(k_int, b, strip slot counts, reserved height)``.

        Shrinks ``k_int`` (halving from ``cache_size``) until bases +
        strips fit in ``cache_size``.  Raises if even the minimum plan
        does not fit.
        """
        p_pow = next_power_of_two(max(1, n_active))
        k_int = self.cache_size
        while k_int >= 1:
            b = max(1, (2 * k_int) // p_pow)
            if 2 * k_int >= p_pow:  # ensures b >= 1 without the clamp firing
                heights = self._phase_heights(k_int, b)
                L = len(heights)
                slots = {z: max(1, k_int // (z * L)) for z in heights if z > b}
                reserved = n_active * b + sum(m * z for z, m in slots.items())
                if reserved <= self.cache_size:
                    return k_int, b, slots, reserved
            k_int //= 2
        raise ValueError(
            f"cache_size={self.cache_size} too small for {n_active} active processors"
        )

    # ------------------------------------------------------------------ #
    def run(self, workload: ParallelWorkload) -> ParallelRunResult:
        """Simulate DET-PAR on ``workload`` until every processor finishes.

        On the native kernel tier the schedule runs as one compiled loop
        (:meth:`_run_native`); the python loop below is the no-compiler
        path and its oracle.
        """
        s = self.miss_cost
        p = workload.p
        if p < 1:
            raise ValueError("workload must have at least one processor")
        server = make_box_server(workload, s)
        ops = _active_native()
        if ops is not None:
            return self._run_native(ops, server)
        n = server.lengths
        pos = [0] * p
        done = [n[i] == 0 for i in range(p)]
        remaining = sum(1 for d in done if not d)
        completion = np.zeros(p, dtype=np.int64)
        trace: List[BoxRecord] = []
        phases: List[_PhaseInfo] = []
        rebuild_times: List[int] = []

        sched = EventScheduler()
        epoch = 0
        token_counter = 0
        segments: List[Optional[_Segment]] = [None] * p
        strip_ptr: Dict[int, int] = {}
        phase_idx = -1
        phase_start_active = 0
        base_height = 1

        push = sched.schedule  # one frame less per event at streamed scale
        serve = server.serve

        def finalize(i: int, t: int) -> None:
            """Execute processor i's current segment up to time t."""
            nonlocal remaining
            seg = segments[i]
            if seg is None:
                return
            segments[i] = None
            budget = t - seg.start
            if budget <= 0:
                return
            run = serve(i, pos[i], seg.height, budget)
            trace.append(
                BoxRecord(
                    proc=i,
                    height=seg.height,
                    start=seg.start,
                    end=t,
                    served_start=run.start,
                    served_end=run.end,
                    hits=run.hits,
                    faults=run.faults,
                    phase=phase_idx,
                    tag=seg.tag,
                )
            )
            pos[i] = run.end
            if pos[i] >= n[i] and not done[i]:
                done[i] = True
                remaining -= 1
                completion[i] = seg.start + run.time_used

        def start_segment(i: int, h: int, t: int, tag: str) -> None:
            nonlocal token_counter
            token_counter += 1
            segments[i] = _Segment(height=h, start=t, end=t + s * h, token=token_counter, tag=tag)
            push(t + s * h, "seg_end", (i, token_counter))

        def setup_phase(t: int) -> None:
            nonlocal epoch, phase_idx, phase_start_active, base_height, strip_ptr
            active = [i for i in range(p) if not done[i]]
            if not active:
                return
            epoch += 1
            phase_idx += 1
            phase_start_active = len(active)
            k_int, b, slots, reserved = self._plan_phase(len(active))
            base_height = b
            heights = self._phase_heights(k_int, b)
            strip_ptr = {z: 0 for z in slots}
            phases.append(
                _PhaseInfo(
                    index=phase_idx,
                    start_time=t,
                    active_at_start=len(active),
                    base_height=b,
                    k_int=k_int,
                    levels=len(heights),
                    strip_slots=dict(slots),
                    reserved_height=reserved,
                )
            )
            for i in active:
                start_segment(i, b, t, "base")
            for z, m in slots.items():
                for slot in range(m):
                    push(t, "slot", (epoch, z, slot))

        def next_in_rotation(z: int) -> Optional[int]:
            """Round-robin over processor ids, skipping finished ones."""
            ptr = strip_ptr.get(z, 0)
            for off in range(p):
                i = (ptr + off) % p
                if not done[i]:
                    strip_ptr[z] = (i + 1) % p
                    return i
            return None

        setup_phase(0)
        needs_rebuild = False
        rebuild_time = 0

        pop = sched.pop
        while remaining > 0:
            try:
                t, _, kind, data = pop()
            except IndexError:
                break  # queue drained (the __bool__ check, minus a per-event scan)
            if kind == "seg_end":
                i, token = data
                seg = segments[i]
                if seg is None or seg.token != token:
                    continue  # stale: segment was preempted or phase rebuilt
                finalize(i, t)
                if not done[i]:
                    start_segment(i, base_height, t, "base")
            elif kind == "slot":
                ev_epoch, z, slot = data
                if ev_epoch != epoch:
                    continue  # stale: phase was rebuilt
                i = next_in_rotation(z)
                if i is None:
                    continue  # no active processors; strip dies this epoch
                seg = segments[i]
                if seg is None or z > seg.height:
                    finalize(i, t)
                    if not done[i]:
                        start_segment(i, z, t, "strip")
                    # if the processor finished inside the preempted
                    # segment, the slot's box simply runs unclaimed
                # shorter/equal offers are ignored by the processor; the
                # slot keeps cycling either way
                push(t + s * z, "slot", (epoch, z, slot))
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown event kind {kind!r}")

            # phase transition: half the processors active at phase start
            # have finished
            if remaining and remaining <= phase_start_active // 2:
                # finalize every running segment and rebuild at current time
                rebuild_times.append(t)
                for i in range(p):
                    if segments[i] is not None:
                        finalize(i, t)
                setup_phase(t)

        # drain: if the loop exited with all done, completions are recorded
        if remaining:  # pragma: no cover - defensive
            raise RuntimeError("DET-PAR event queue drained before completion (bug)")

        return self._result(completion, trace, phases, rebuild_times)

    def _result(
        self,
        completion: np.ndarray,
        trace: Sequence[BoxRecord],
        phases: List[_PhaseInfo],
        rebuild_times: List[int],
    ) -> ParallelRunResult:
        return ParallelRunResult(
            algorithm=self.name,
            completion_times=completion,
            trace=trace,
            cache_size=self.cache_size,
            miss_cost=self.miss_cost,
            meta={
                "phases": phases,
                "rebuild_times": rebuild_times,
                "reserved_peak": max((ph.reserved_height for ph in phases), default=0),
            },
        )

    def _run_native(self, ops, server) -> ParallelRunResult:
        """The python loop's schedule as ``repro_detpar_run``, a compiled
        loop over state arrays this method owns.

        The loop hands back to python at three points, each before it
        changes any state of the step it stops at: a processor's window
        ends before the box it is about to run (its :class:`BoxFeed`
        pulls chunks until it covers the box — in-memory kernels and the
        arena of single-chunk columns cover their whole column from the
        start), a phase ends (the next one
        is planned here, raising the same ``ValueError`` when it does not
        fit), or the record buffer is full.  Each full buffer is kept as
        one block of the trace.
        """
        p, n = server.p, server.lengths
        completion = np.zeros(p, dtype=np.int64)
        blocks: List[np.ndarray] = []
        phases: List[_PhaseInfo] = []
        rebuild_times: List[int] = []
        remaining = sum(1 for x in n if x)
        if not remaining:
            return self._result(completion, BoxTrace(), phases, rebuild_times)
        st = np.zeros(_ST_LEN, dtype=np.int64)
        st[_REMAINING], st[_RECCAP], st[_P], st[_S] = remaining, RECORD_ROWS, p, self.miss_cost
        proc = np.zeros((p, _PROC_FIELDS), dtype=np.int64)
        proc[:, 1] = n
        proc[:, 2] = [x == 0 for x in n]
        # the kernels the rows point into stay alive in ``server``
        win = server.window_rows()
        lev = np.zeros((64, 3), dtype=np.int64)  # heights double: at most 63 levels
        rec = np.zeros((RECORD_ROWS, 10), dtype=np.int64)
        heap = np.zeros((0, 4), dtype=np.int64)

        def drain() -> None:
            blocks.append(rec[: st[_NREC]].copy())
            st[_NREC] = 0

        def plan(t: int) -> None:
            """setup_phase's planning half; the loop starts the boxes."""
            nonlocal heap
            active = int(st[_REMAINING])
            k_int, b, slots, reserved = self._plan_phase(active)
            heights = self._phase_heights(k_int, b)
            phases.append(
                _PhaseInfo(
                    index=len(phases),
                    start_time=t,
                    active_at_start=active,
                    base_height=b,
                    k_int=k_int,
                    levels=len(heights),
                    strip_slots=dict(slots),
                    reserved_height=reserved,
                )
            )
            st[_EPOCH] += 1
            st[_PHASE], st[_PSA], st[_BASEH] = len(phases) - 1, active, b
            st[_NLEV] = len(slots)
            lev[: len(slots), 0] = list(slots)
            lev[: len(slots), 1] = list(slots.values())
            # pending events never exceed those pending now plus, per
            # active processor, one segment per height (its chain of
            # preemptions) plus the slots: each slot event re-pushes
            # itself, and a chain's stale ends precede its last end
            need = int(st[_HN]) + active * len(heights) + sum(slots.values()) + 2
            if need > len(heap):
                grown = np.zeros((max(need, 2 * len(heap)), 4), dtype=np.int64)
                grown[: len(heap)] = heap
                heap = grown
                st[_HCAP] = len(heap)
            st[_T], st[_MODE] = t, _SETUP

        plan(0)
        step = ops.detpar_loop(st, heap, proc, win, lev, rec, completion)
        while (i := step()) != -1:
            if i >= 0:
                server.refill(win, i, int(proc[i, 0]), int(st[_UPTO]))
            elif i == -3:
                drain()
            elif i == -2:
                t = int(st[_T])
                rebuild_times.append(t)
                if not st[_REMAINING]:
                    break
                bound = heap
                plan(t)
                if heap is not bound:
                    step = ops.detpar_loop(st, heap, proc, win, lev, rec, completion)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"DET-PAR compiled loop stopped with status {i} (bug)")
        drain()
        return self._result(completion, BoxTrace.from_blocks(blocks, _TAGS), phases, rebuild_times)
