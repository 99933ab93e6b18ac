"""Exact optimal parallel paging for tiny two-processor instances.

Parallel paging OPT is NP-hard in general, but for p = 2, short sequences,
and the normalized box lattice, the optimal *box schedule* can be found by
exhaustive memoized search.  This module exists for rigor, not scale: the
test suite uses it to

* certify that :func:`repro.parallel.opt.makespan_lower_bound` is sound
  (LB <= exact OPT on every searched instance), and
* measure how loose the bound is (documented in EXPERIMENTS.md).

Model searched (the paper's WLOG normal form, plus early release):

* a processor is idle or inside a compartmentalized box of lattice height
  ``h`` (heights ``1, 2, …, k``), LRU inside, maximal service;
* a non-finishing box lasts exactly ``s·h``; a box in which the sequence
  completes is released at its service time (OPT would never hold memory
  past completion);
* whenever both boxes are live, ``h₁ + h₂ <= k``;
* decisions happen when a processor is boxless: start any feasible box
  now, or stall until the other's box ends (stalling at other moments is
  dominated; deciders alternate instantaneously, so every simultaneous
  height pair is reachable).

State: ``(decider, pos_decider, pos_other, other_remaining, other_height)``
— positions are advanced at box *start* (service outcome is deterministic),
so at most one processor is "mid-box" in any decision state.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.box import HeightLattice
from ..paging.kernel import box_walk
from ..workloads.trace import ParallelWorkload

__all__ = ["exact_two_proc_makespan"]

_INF = float("inf")


def exact_two_proc_makespan(
    workload: ParallelWorkload,
    k: int,
    miss_cost: int,
    max_states: int = 500_000,
) -> int:
    """Minimum makespan of any box schedule for a 2-processor workload.

    Raises ``RuntimeError`` if the memo table exceeds ``max_states``
    (instance too large for exact search).
    """
    if workload.p != 2:
        raise ValueError(f"exact search supports exactly 2 processors, got {workload.p}")
    lattice = HeightLattice(k=k, p=k)  # heights 1, 2, ..., k
    heights = lattice.heights
    s = int(miss_cost)
    seqs = (workload.sequences[0], workload.sequences[1])
    lens = (len(seqs[0]), len(seqs[1]))

    # progress[i][h][pos] = (end position, charged duration) — the
    # lens[i] · k box probes below dominate small instances, so they go
    # through the tier's box walk (the cached reuse-distance kernel).
    digest = getattr(workload, "content_digest", None)
    progress: Tuple[Dict[int, Dict[int, Tuple[int, int]]], ...] = ({}, {})
    for i in (0, 1):
        walk = box_walk(seqs[i], key=(digest, i) if digest else None)
        for h in heights:
            table: Dict[int, Tuple[int, int]] = {}
            for pos in range(lens[i]):
                r = walk(pos, h, s * h, s)
                duration = r.time_used if r.end >= lens[i] else s * h
                table[pos] = (r.end, duration)
            progress[i][h] = table

    solo_memo: Dict[Tuple[int, int], float] = {}

    def solo(i: int, pos: int) -> float:
        """Best remaining time for processor i alone with the full cache."""
        if pos >= lens[i]:
            return 0.0
        key = (i, pos)
        cached = solo_memo.get(key)
        if cached is not None:
            return cached
        best = _INF
        for h in heights:
            end, dur = progress[i][h][pos]
            if end == pos:
                continue
            cand = dur if end >= lens[i] else dur + solo(i, end)
            if cand < best:
                best = cand
        solo_memo[key] = best
        return best

    memo: Dict[Tuple[int, int, int, int, int, bool], float] = {}

    def best(decider: int, pos_d: int, pos_o: int, rem_o: int, h_o: int, passed: bool = False) -> float:
        """Min additional time until both finish.

        ``decider`` is boxless; the other processor has ``rem_o`` steps
        left in a height-``h_o`` box (0 = idle).  A processor whose
        position reached its length and whose box has been released is
        done.  ``passed`` marks that the decision was already handed over
        once at this instant (prevents infinite mutual deferral while
        still making "idle with no box while the other takes the full
        cache" reachable).
        """
        other = 1 - decider
        d_done = pos_d >= lens[decider]
        o_done = pos_o >= lens[other]
        if d_done:
            if rem_o > 0:
                return rem_o + (0.0 if o_done else solo(other, pos_o))
            return 0.0 if o_done else solo(other, pos_o)
        if rem_o == 0 and o_done:
            return solo(decider, pos_d)
        key = (decider, pos_d, pos_o, rem_o, h_o, passed)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(memo) > max_states:
            raise RuntimeError("exact search exceeded max_states; instance too large")
        result = _INF
        cap = k - (h_o if rem_o > 0 else 0)
        for h in heights:
            if h > cap:
                break
            end, dur = progress[decider][h][pos_d]
            if rem_o == 0:
                # other is idle but unfinished: it decides next, at this instant
                cand = best(other, pos_o, end, dur, h)
            elif dur <= rem_o:
                cand = dur + best(decider, end, pos_o, rem_o - dur, h_o if rem_o > dur else 0)
            else:
                cand = rem_o + best(other, pos_o, end, dur - rem_o, h)
            if cand < result:
                result = cand
        if rem_o > 0:
            # stall until the other's box ends
            cand = rem_o + best(decider, pos_d, pos_o, 0, 0)
            if cand < result:
                result = cand
        elif not passed and not o_done:
            # hand the decision over without taking a box, so the other can
            # claim the full cache while we wait
            cand = best(other, pos_o, pos_d, 0, 0, passed=True)
            if cand < result:
                result = cand
        memo[key] = result
        return result

    if lens[0] == 0 and lens[1] == 0:
        return 0
    if lens[0] == 0:
        return int(solo(1, 0))
    if lens[1] == 0:
        return int(solo(0, 0))
    return int(best(0, 0, 0, 0, 0))
