"""RAND-PAR: the randomized online parallel-paging algorithm of §3.2.

Structure (exactly the paper's):

* The run proceeds in **chunks**.  Let ``r`` be the number of active
  processors at the start of the chunk, rounded up to a power of two.
* **Primary part** — every active processor receives ``log₂ r + 1``
  consecutive minimum boxes of height ``K/r`` (total length
  ``ℓ₁ = Θ(s·K·log r / r)``; concurrent height ≤ K).
* **Secondary part** — one height ``j`` is drawn from the inverse-square
  distribution on the lattice ``{K/r, …, K}`` (:mod:`.distributions`), and
  every active processor gets one height-``j`` box.  The boxes run
  ``⌊K/j⌋`` at a time (processors outside the current batch stall), so the
  part lasts ``ℓ₂ ≈ s·r·j²/K`` — matching Observation 1's
  ``E[ℓ₂] = ℓ₁`` in expectation.
* **Phases** — an analysis device: phase ``q`` ends when the active count
  first drops to half its value at the phase start.  We record phase
  boundaries in the result metadata for the E2/E3 experiments but the
  schedule itself only depends on the current active count, keeping the
  algorithm *oblivious* in the paper's sense (it never looks at which
  requests hit or miss, only at who has finished).

The theorem this reproduces (E3): expected makespan ``O(log p · T_OPT)``
with O(1) resource augmentation (Theorem 2); RAND-PAR's concurrent
reserved height never exceeds ``K``, so its measured ξ is 1.

Two loops run the schedule.  On the native kernel tier (the rule
:class:`~repro.core.det_par.DetPar` follows too), every chunk's boxes —
the primary rounds, then the secondary batches, each round or batch
advancing the clock — run compiled as ``repro_randpar_run``
(:mod:`repro.paging._native`) over state arrays :meth:`RandPar.run`
owns.  Boxes are probed in place on each processor's columns: the
cached :class:`~repro.paging.kernel.SequenceKernel` of an in-memory
column, or the :class:`~repro.parallel.streaming.BoxFeed` window of a
streamed one.  Python runs only where the loop hands back: to plan each
chunk (the active processors, ``r``, the one height draw) and keep the
chunk and phase bookkeeping, to pull chunks when a box runs past a
window, and to turn full record buffers into
:class:`~repro.parallel.events.BoxRecord` lists.  The python loop in
:meth:`RandPar.run` is the no-compiler path and the differential
oracle; both produce the same completions, trace and ``meta``.  Each
chunk draws its height once, before its boxes run, and nothing else
draws from the generator, so both loops consume the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ..paging.kernel import _active_native
from ..parallel.events import RECORD_ROWS, BoxRecord, ParallelRunResult, drain_records
from ..parallel.streaming import make_box_server
from ..workloads.trace import ParallelWorkload
from .box import HeightLattice, ceil_pow2, validate_lattice
from .distributions import DistributionKind, HeightDistribution, make_distribution

__all__ = ["RandPar", "next_power_of_two"]

#: ``repro_randpar_run``'s scalar array (:mod:`repro.paging._native`):
#: the run's state, each chunk's plan (``_A`` to ``_BS``) and its cursor
#: and counts (``_ROUND`` on), which each plan zeroes.
(_T, _REMAINING, _PHASE, _NREC, _RECCAP, _UPTO, _S, _A, _HMIN, _ROUNDS, _J, _BS,
 _ROUND, _K, _LO, _RAN, _NPRIM, _NSEC, _NBATCH, _ST_LEN) = range(20)
_TAGS = ("primary", "secondary")


def next_power_of_two(x: int) -> int:
    """Smallest power of two >= x (x >= 1); alias of :func:`repro.core.box.ceil_pow2`."""
    return ceil_pow2(x)


@lru_cache(maxsize=1024)
def _distribution(k: int, r: int, kind: str) -> HeightDistribution:
    """The secondary part's height distribution on ``HeightLattice(k, r)``.

    Immutable, so it is built once per ``(k, r, kind)`` and shared by
    every chunk and run: a hunt scores hundreds of runs at a few cache
    sizes.
    """
    return make_distribution(HeightLattice(k, r), kind)


@dataclass
class _ChunkStats:
    """Per-chunk bookkeeping surfaced for the Observation 1 experiment."""

    index: int
    active_at_start: int
    r_pow: int
    primary_length: int
    secondary_length: int
    drawn_height: int
    primary_impact: int
    secondary_impact: int


class RandPar:
    """Randomized online parallel paging (§3.2, Theorem 2).

    Parameters
    ----------
    cache_size:
        Total cache ``K`` the algorithm may reserve at any instant (any
        integer >= 1; the internal chunk lattice rounds the active count
        up to a power of two and clamps at ``K``).  Compare against lower
        bounds computed at ``K/ξ`` to account for resource augmentation.
    miss_cost:
        Fault service time ``s > 1``.
    rng:
        Seeded numpy Generator (drives only the secondary-part draws).
    kind:
        Height distribution for the secondary part; the paper's algorithm
        is ``"inverse_square"``; others exist for the E8 ablation.
    """

    name = "rand-par"

    def __init__(
        self,
        cache_size: int,
        miss_cost: int,
        rng: np.random.Generator,
        kind: DistributionKind = "inverse_square",
    ) -> None:
        validate_lattice(int(cache_size), 1)
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.cache_size = int(cache_size)
        self.miss_cost = int(miss_cost)
        self.rng = rng
        self.kind: DistributionKind = kind

    # ------------------------------------------------------------------ #
    def _chunk_plan(self, active: int) -> Tuple[int, HeightDistribution]:
        """``r`` (the active count rounded up to a power of two, at most
        ``K``) and the chunk's height distribution on ``{K/r, …, K}``."""
        r_pow = min(next_power_of_two(active), self.cache_size)
        return r_pow, _distribution(self.cache_size, r_pow, self.kind)

    def run(self, workload: ParallelWorkload, max_chunks: Optional[int] = None) -> ParallelRunResult:
        """Simulate RAND-PAR on ``workload`` until every processor finishes.

        On the native kernel tier the chunks run as one compiled loop
        (:meth:`_run_native`); the python loop below is the no-compiler
        path and its oracle.  ``max_chunks`` stops the run before the
        next chunk is planned (``meta["finished"]`` then says whether
        every processor finished).
        """
        K = self.cache_size
        s = self.miss_cost
        p = workload.p
        if p < 1:
            raise ValueError("workload must have at least one processor")
        validate_lattice(K, p)
        server = make_box_server(workload, s)
        ops = _active_native()
        if ops is not None:
            return self._run_native(ops, server, max_chunks)
        n = server.lengths
        pos = [0] * p
        done = [n[i] == 0 for i in range(p)]
        completion = np.zeros(p, dtype=np.int64)
        trace: List[BoxRecord] = []
        chunks: List[_ChunkStats] = []
        phase_bounds: List[int] = []

        t = 0
        chunk_idx = 0
        # phase tracking (analysis bookkeeping only)
        phase_idx = 0
        phase_start_active = sum(1 for d in done if not d)

        while not all(done):
            if max_chunks is not None and chunk_idx >= max_chunks:
                break
            active = [i for i in range(p) if not done[i]]
            a = len(active)
            r_pow, dist = self._chunk_plan(a)
            h_min = K // r_pow
            rounds = dist.lattice.levels  # log2(r) + 1 minimum boxes
            primary_len = 0
            primary_impact = 0

            # ---------------- primary part ---------------- #
            for _ in range(rounds):
                dur = s * h_min
                for i in active:
                    if done[i]:
                        continue
                    run = server.serve(i, pos[i], h_min, dur)
                    trace.append(
                        BoxRecord(
                            proc=i,
                            height=h_min,
                            start=t,
                            end=t + dur,
                            served_start=run.start,
                            served_end=run.end,
                            hits=run.hits,
                            faults=run.faults,
                            phase=phase_idx,
                            tag="primary",
                        )
                    )
                    primary_impact += h_min * dur
                    pos[i] = run.end
                    if pos[i] >= n[i]:
                        done[i] = True
                        completion[i] = t + run.time_used
                t += dur
                primary_len += dur

            # ---------------- secondary part ---------------- #
            j = int(dist.sample(self.rng))
            batch_size = max(1, K // j)
            secondary_len = 0
            secondary_impact = 0
            for lo in range(0, len(active), batch_size):
                batch = active[lo : lo + batch_size]
                dur = s * j
                ran_any = False
                for i in batch:
                    if done[i]:
                        continue
                    ran_any = True
                    run = server.serve(i, pos[i], j, dur)
                    trace.append(
                        BoxRecord(
                            proc=i,
                            height=j,
                            start=t,
                            end=t + dur,
                            served_start=run.start,
                            served_end=run.end,
                            hits=run.hits,
                            faults=run.faults,
                            phase=phase_idx,
                            tag="secondary",
                        )
                    )
                    secondary_impact += j * dur
                    pos[i] = run.end
                    if pos[i] >= n[i]:
                        done[i] = True
                        completion[i] = t + run.time_used
                if ran_any:
                    t += dur
                    secondary_len += dur

            chunks.append(
                _ChunkStats(
                    index=chunk_idx,
                    active_at_start=a,
                    r_pow=r_pow,
                    primary_length=primary_len,
                    secondary_length=secondary_len,
                    drawn_height=j,
                    primary_impact=primary_impact,
                    secondary_impact=secondary_impact,
                )
            )
            chunk_idx += 1

            # phase bookkeeping: phase ends when half the processors that
            # were active at its start have finished
            now_active = sum(1 for d in done if not d)
            if now_active <= phase_start_active // 2 and now_active > 0:
                phase_bounds.append(t)
                phase_idx += 1
                phase_start_active = now_active

        return self._result(completion, trace, chunks, phase_bounds, all(done))

    def _result(
        self,
        completion: np.ndarray,
        trace: List[BoxRecord],
        chunks: List[_ChunkStats],
        phase_bounds: List[int],
        finished: bool,
    ) -> ParallelRunResult:
        return ParallelRunResult(
            algorithm=self.name,
            completion_times=completion,
            trace=trace,
            cache_size=self.cache_size,
            miss_cost=self.miss_cost,
            meta={
                "chunks": chunks,
                "phase_bounds": phase_bounds,
                "distribution": self.kind,
                "finished": finished,
            },
        )

    def _run_native(self, ops, server, max_chunks: Optional[int]) -> ParallelRunResult:
        """The python loop's schedule as ``repro_randpar_run``, a compiled
        loop over state arrays this method owns.

        Each chunk is planned here — its active processors, ``r``, the
        minimum height, the rounds and the height draw — and its
        ``_ChunkStats`` and the phase bookkeeping are kept here; the loop
        runs its boxes.  It hands back before it changes any state of
        the step it stops at: when a processor's window ends before the
        box it is about to run (its :class:`BoxFeed` pulls chunks until
        it covers the box; in-memory kernels cover their whole column),
        when the record buffer is full, and at the chunk's end.
        """
        K, s, p, n = self.cache_size, self.miss_cost, server.p, server.lengths
        completion = np.zeros(p, dtype=np.int64)
        trace: List[BoxRecord] = []
        chunks: List[_ChunkStats] = []
        phase_bounds: List[int] = []
        st = np.zeros(_ST_LEN, dtype=np.int64)
        phase_start_active = sum(1 for x in n if x)
        st[_REMAINING], st[_RECCAP], st[_S] = phase_start_active, RECORD_ROWS, s
        proc = np.zeros((p, 3), dtype=np.int64)  # position, length, done
        proc[:, 1] = n
        proc[:, 2] = [x == 0 for x in n]
        # the kernels the rows point into stay alive in ``server``
        win = server.window_rows()
        act = np.zeros(p, dtype=np.int64)
        rec = np.zeros((RECORD_ROWS, 10), dtype=np.int64)
        step = ops.randpar_loop(st, proc, win, act, rec, completion)
        while st[_REMAINING]:
            if max_chunks is not None and len(chunks) >= max_chunks:
                break
            a = int(st[_REMAINING])
            act[:a] = np.flatnonzero(proc[:, 2] == 0)
            r_pow, dist = self._chunk_plan(a)
            h_min, rounds = K // r_pow, dist.lattice.levels
            j = int(dist.sample(self.rng))
            st[_A:_ROUND] = a, h_min, rounds, j, max(1, K // j)
            st[_ROUND:] = 0
            while (i := step()) != -2:
                if i >= 0:
                    server.refill(win, i, int(proc[i, 0]), int(st[_UPTO]))
                elif i == -3:
                    drain_records(trace, rec[: st[_NREC]], _TAGS)
                    st[_NREC] = 0
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"RAND-PAR compiled loop stopped with status {i} (bug)")
            chunks.append(
                _ChunkStats(
                    index=len(chunks),
                    active_at_start=a,
                    r_pow=r_pow,
                    primary_length=rounds * s * h_min,
                    secondary_length=int(st[_NBATCH]) * s * j,
                    drawn_height=j,
                    primary_impact=int(st[_NPRIM]) * h_min * s * h_min,
                    secondary_impact=int(st[_NSEC]) * j * s * j,
                )
            )
            now_active = int(st[_REMAINING])
            if 0 < now_active <= phase_start_active // 2:
                phase_bounds.append(int(st[_T]))
                st[_PHASE] += 1
                phase_start_active = now_active
        drain_records(trace, rec[: st[_NREC]], _TAGS)
        return self._result(completion, trace, chunks, phase_bounds, not st[_REMAINING])
