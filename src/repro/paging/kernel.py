"""Reuse-distance box kernel: vectorized :func:`run_box` over one precompute.

The classical LRU inclusion property (Mattson et al. [IBM Sys. J. 1970];
Fiat et al., *Competitive Paging Algorithms*) says an LRU cache of height
``h`` always holds exactly the ``h`` most-recently-used distinct pages.
Inside a compartmentalized box that cold-starts at position ``q`` this
collapses the whole per-request simulation into two facts that depend only
on the *sequence*, not on the box:

* ``prev_occ[i]`` — index of the previous occurrence of ``seq[i]``
  (``-1`` for a first occurrence), and
* ``reuse_dist[i]`` — number of distinct pages referenced strictly
  between that occurrence and ``i``.

Request ``i`` hits in a box ``(start, height)`` iff ``prev_occ[i] >=
start`` (its last occurrence is inside the box) **and** ``reuse_dist[i] <
height`` (it is still among the ``height`` most recent distinct pages).
Both arrays are computed **once per sequence** by an O(n log n)
Fenwick-tree sweep; every subsequent box — any ``start``, ``height``,
``budget`` — is then a handful of numpy array ops: build the hit mask,
turn it into per-request costs, ``cumsum`` + ``searchsorted`` for the
budget cutoff.  The offline green-paging DP alone probes the box engine
O(n · levels) times per solve, so the amortization is dramatic.

:func:`run_box_fast` is cross-checked bit-identical to the dict-LRU
reference :func:`repro.paging.engine.run_box` by the property suite in
``tests/paging/test_kernel.py``.  Three tiers produce bit-identical
rows, selected by ``$REPRO_KERNEL``:

* ``native`` (the default when unset) routes the reuse-distance sweep,
  the box service walk, the offline DP relaxation and GLOBAL-LRU's
  event loop through the cc-compiled primitives of
  :mod:`repro.paging._native`;
* ``fast`` is the numpy path below, which is also what ``native``
  resolves to when no C compiler is available (or ``REPRO_NATIVE=off``);
* ``reference`` makes every threaded call site fall back to the
  dict-LRU loop, the cross-check oracle.

Two kernel flavors:

* :class:`SequenceKernel` — whole sequence in memory, built once, shared
  through the LRU-bounded module cache (:func:`get_kernel`, keyed by
  array identity or an explicit content digest);
* :class:`StreamKernel` — incremental: chunks are appended as a stream
  delivers them and the swept prefix is compacted away as execution
  passes it, so bounded-memory streaming keeps bounded memory.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ._native import native_flavor, native_ops
from .engine import BoxRun, run_box

__all__ = [
    "SequenceKernel",
    "StreamKernel",
    "run_box_fast",
    "get_kernel",
    "maybe_kernel",
    "peek_kernel",
    "seed_kernel",
    "kernel_backend",
    "native_flavor",
    "native_dp_solve",
    "clear_kernel_cache",
    "KERNEL_ENV",
]

#: Environment variable selecting the box-engine backend.
KERNEL_ENV = "REPRO_KERNEL"

#: Streaming compaction threshold: the dead prefix must reach this many
#: requests *and* at least the live window before a compaction pays for its
#: Fenwick rebuild.  Module-level so tests can shrink it to force the path.
STREAM_COMPACT_MIN = 256

#: Sentinel reuse distance for requests with no usable previous occurrence.
#: Any value that compares >= every legal box height works; first
#: occurrences are already masked by ``prev_occ[i] = -1 < start``.
_COLD = np.iinfo(np.int64).max

#: Boxes that serve at most this many requests are evaluated by a scalar
#: walk over plain-int lists instead of ~10 numpy dispatches — RAND-GREEN's
#: inverse-square distribution draws mostly minimum-height boxes serving a
#: handful of requests each, where per-call numpy overhead dominates.
_SCALAR_MAX = 128

#: The offline DP's ladder plan evaluates endpoints for this many
#: consecutive start positions per batch, amortizing numpy dispatch
#: overhead ~_PLAN_BLOCK-fold over the per-probe path.
_PLAN_BLOCK = 32

#: The chunked vectorized reuse-distance build does O(n²/chunk) work in
#: its cross-chunk prefix counts, so it only runs below this length; the
#: O(n log n) Fenwick sweep takes over beyond it.
_VEC_BUILD_MAX = 16384
_BUILD_CHUNK = 128


def _reuse_vectorized(prev: np.ndarray, nxt: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Chunked numpy reuse-distance computation (no per-request Python).

    Position ``x`` stops being its page's most recent occurrence — is
    *deleted* — once ``nxt[x]`` has passed, so for ``j = prev[i]``::

        reuse[i] = #actives in (j, i) = (i - 1 - j) - #{x in (j, i): nxt[x] < i}

    Per chunk ``[a, b)``, the deleted count splits into parts that are
    each one cumsum away: pairs with ``j >= a`` read a within-chunk
    matrix ``W[x, i] = nxt[x] < i``; pairs reaching back past ``a`` add
    pre-chunk positions already dead at the chunk start (a prefix count
    over ``nxt < a``) and pre-chunk positions dying inside the chunk
    (their killers ``y = nxt[x]`` lie in the chunk, so ``x = prev[y]``
    ranges over one chunk-sized array).

    ``start`` restricts the computation to positions ``>= start``
    (positions below it come back ``_COLD``): the streaming kernel knows
    reuse distances of already-swept rows can never change, so it only
    pays for the appended suffix.
    """
    reuse = np.full(n, _COLD, dtype=np.int64)
    step = _BUILD_CHUNK
    for a in range(start, n, step):
        b = min(n, a + step)
        prev_c = prev[a:b]
        warm = prev_c >= 0
        if not warm.any():
            continue
        m = b - a
        idx = np.arange(a, b, dtype=np.int64)
        irel = np.arange(m)
        prefix = np.maximum(irel - 1, 0)
        W = nxt[a:b, np.newaxis] < idx[np.newaxis, :]
        Wc = W.cumsum(axis=0, dtype=np.int32)
        top_w = np.where(irel > 0, Wc[prefix, irel], 0)
        jrel = prev_c - a
        within = jrel >= 0
        d_within = top_w - Wc[np.maximum(jrel, 0), irel]
        if a > 0:
            dead_at_a = np.cumsum(nxt[:a] < a, dtype=np.int64)
            g1 = dead_at_a[a - 1] - dead_at_a[np.clip(prev_c, 0, a - 1)]
            pre_chunk_kill = warm & (prev_c < a)
            N = (prev_c[:, np.newaxis] > prev_c[np.newaxis, :]) & pre_chunk_kill[:, np.newaxis]
            Nc = N.cumsum(axis=0, dtype=np.int32)
            g2 = np.where(irel > 0, Nc[prefix, irel], 0)
            dead = np.where(within, d_within, g1 + g2 + top_w)
        else:
            dead = d_within
        reuse[a:b] = np.where(warm, (idx - 1 - prev_c) - dead, _COLD)
    return reuse


def _requested_tier() -> str:
    """``$REPRO_KERNEL`` normalized to ``native``/``fast``/``reference``.

    The one place the unset default lives: :func:`kernel_backend` and
    :func:`_active_native` both read it, so the tier that is reported is
    the tier kernels are built with.
    """
    value = os.environ.get(KERNEL_ENV, "").strip().lower() or "native"
    if value in ("native", "compiled"):
        return "native"
    if value in ("fast", "kernel"):
        return "fast"
    if value in ("reference", "ref"):
        return "reference"
    raise ValueError(
        f"unknown {KERNEL_ENV} backend {value!r}; expected 'fast', 'native', or 'reference'"
    )


def kernel_backend() -> str:
    """The active box-engine backend: ``"native"`` (default), ``"fast"``,
    or ``"reference"``.

    Controlled by ``$REPRO_KERNEL``.  All backends produce bit-identical
    :class:`~repro.paging.engine.BoxRun` values; the reference dict-LRU
    exists as a cross-check oracle and an escape hatch, and ``native``
    routes the inner loops through :mod:`repro.paging._native`.  When
    ``native`` is requested (or ``$REPRO_KERNEL`` is unset) but the
    compiled library is unavailable (no usable C compiler, or
    ``REPRO_NATIVE=off``), this resolves to ``"fast"`` — the numpy
    fallback, never an error.
    """
    tier = _requested_tier()
    if tier == "native" and native_ops() is None:
        return "fast"
    return tier


def _active_native():
    """The compiled primitives when the tier resolves to native, else None.

    Read at kernel construction: the compiled tier is bit-identical to
    the numpy path, so a cached kernel built under one setting stays
    correct if the benchmark harness flips ``$REPRO_KERNEL`` afterwards —
    it only keeps its construction-time speed.  Flip-sensitive callers
    (the benchmarks) clear the kernel cache between timings.
    """
    return native_ops() if _requested_tier() == "native" else None


class _KernelOps:
    """Shared vectorized box evaluation over ``prev_occ``/``reuse_dist``.

    Subclasses provide ``_prev``/``_reuse`` (int64 arrays, at least
    ``_n`` valid entries) in *local* coordinates plus ``_ops``/``_hand``
    (the construction-time native primitives and their prepared-probe
    handle, both ``None`` on the numpy tier).  No validation happens
    here: callers either go through :func:`run_box_fast` (which validates
    like the reference) or pre-validate once (the offline DP).
    """

    _prev: np.ndarray
    _reuse: np.ndarray
    _n: int
    _ops: object
    _hand: object

    def box_end(self, start: int, height: int, budget: int, miss_cost: int) -> int:
        """First unserved position after a box — the offline DP's only need.

        Pre-validated fast path: ``height``/``miss_cost`` are assumed
        legal (hoist the checks out of the probe loop).
        """
        n = self._n
        ops = self._ops
        if ops is not None and start < n:
            hand = self._hand
            if hand is None:
                hand = self._hand = ops.prepare(self._prev, self._reuse)
            served, _, _ = ops.box_probe(hand, n, start, height, budget, miss_cost)
            return start + served
        stop = start + budget
        if stop > n:
            stop = n
        if stop <= start:
            return start
        hit = (self._prev[start:stop] >= start) & (self._reuse[start:stop] < height)
        cum = np.cumsum(miss_cost - (miss_cost - 1) * hit)
        return start + int(np.searchsorted(cum, budget, side="right"))

    def box(self, start: int, height: int, budget: int, miss_cost: int, offset: int = 0) -> BoxRun:
        """Full :class:`BoxRun` for one box, shifted by ``offset`` into
        global coordinates (used by the streaming engine)."""
        n = self._n
        stop = start + budget
        if stop > n:
            stop = n
        if stop <= start:
            return BoxRun(
                start=start + offset,
                end=start + offset,
                hits=0,
                faults=0,
                time_used=0,
                budget=budget,
                height=height,
            )
        hit = (self._prev[start:stop] >= start) & (self._reuse[start:stop] < height)
        cum = np.cumsum(miss_cost - (miss_cost - 1) * hit)
        served = int(np.searchsorted(cum, budget, side="right"))
        hits = int(np.count_nonzero(hit[:served]))
        return BoxRun(
            start=start + offset,
            end=start + served + offset,
            hits=hits,
            faults=served - hits,
            time_used=int(cum[served - 1]) if served else 0,
            budget=budget,
            height=height,
        )


class SequenceKernel(_KernelOps):
    """Per-sequence reuse-distance precompute for the fast box engine.

    Construction computes ``prev_occ``/``reuse_dist`` once — a chunked
    vectorized pass for typical lengths, an O(n log n) Fenwick sweep
    beyond ``_VEC_BUILD_MAX``; every box probe afterwards is
    O(min(budget, n - start)) vectorized work.  Instances
    are immutable in spirit — share them freely across boxes, heights,
    algorithms, and DP solves on the same sequence (see :func:`get_kernel`).
    """

    __slots__ = (
        "seq", "_prev", "_reuse", "_n", "_weak", "_plan_cache",
        "_prev_list", "_reuse_list", "_ops", "_hand",
    )

    def __init__(self, seq: np.ndarray) -> None:
        arr = np.ascontiguousarray(seq, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"sequence must be 1-D, got shape {arr.shape}")
        self.seq = seq if isinstance(seq, np.ndarray) else arr
        self._plan_cache: Dict[Tuple, "_LadderPlan"] = {}
        self._prev_list: Optional[List[int]] = None
        self._reuse_list: Optional[List[int]] = None
        self._hand = None
        n = len(arr)
        self._n = n
        # prev_occ fully vectorized: stable-sort positions by page, then
        # each position's predecessor within its page group is its
        # previous occurrence.
        prev = np.full(n, -1, dtype=np.int64)
        if n:
            order = np.argsort(arr, kind="stable")
            same = arr[order[1:]] == arr[order[:-1]]
            prev[order[1:]] = np.where(same, order[:-1], -1)
        ops = _active_native()
        self._ops = ops
        if n and ops is not None:
            # compiled Fenwick sweep: O(n log n) with a C/jit constant,
            # bit-identical to both pure-python forms below
            reuse = np.empty(n, dtype=np.int64)
            ops.reuse_sweep(prev, 0, n, _COLD, np.zeros(n + 1, dtype=np.int64), n, reuse)
            self._prev = prev
            self._reuse = reuse
        elif n and n <= _VEC_BUILD_MAX:
            nxt = np.full(n, n, dtype=np.int64)
            nxt[order[:-1]] = np.where(same, order[1:], n)
            self._prev = prev
            self._reuse = _reuse_vectorized(prev, nxt, n)
        else:
            # Fenwick sweep for reuse_dist, in deletion form: position j
            # is marked once its page reoccurs, so the distinct count
            # between an occurrence pair is the gap length minus the
            # marks inside it (cf. the most-recent-flag form in
            # repro.paging.stack, which pays an extra O(log n) insert per
            # request — including every cold one; this form does BIT work
            # only on warm requests).
            tree = [0] * (n + 1)
            reuse_l = [_COLD] * n
            for i, j in enumerate(prev.tolist()):
                if j >= 0:
                    acc = i - 1 - j  # gap length, minus marks in (j, i):
                    x = i  # deleted in 1-indexed prefix [1, i] = pos < i
                    while x > 0:
                        acc -= tree[x]
                        x -= x & -x
                    x = j + 1  # add back deleted at positions <= j
                    while x > 0:
                        acc += tree[x]
                        x -= x & -x
                    reuse_l[i] = acc
                    x = j + 1  # j is no longer its page's latest occurrence
                    while x <= n:
                        tree[x] += 1
                        x += x & -x
            self._prev = prev
            self._reuse = np.array(reuse_l, dtype=np.int64)

    @classmethod
    def from_precomputed(
        cls, seq: np.ndarray, prev: np.ndarray, reuse: np.ndarray
    ) -> "SequenceKernel":
        """Wrap already-computed ``prev_occ``/``reuse_dist`` arrays.

        Used by the zero-copy worker handoff: the parent ships its
        kernel's arrays over shared memory and the worker rebuilds the
        kernel in O(1) instead of re-running the precompute.  The arrays
        are trusted to match what ``__init__`` would produce for ``seq``.
        """
        self = cls.__new__(cls)
        self.seq = seq
        self._plan_cache = {}
        self._prev_list = None
        self._reuse_list = None
        self._ops = _active_native()
        self._hand = None
        self._n = len(prev)
        self._prev = np.ascontiguousarray(prev, dtype=np.int64)
        self._reuse = np.ascontiguousarray(reuse, dtype=np.int64)
        return self

    def __len__(self) -> int:
        return self._n

    @property
    def prev_occ(self) -> np.ndarray:
        """Previous-occurrence index per request (``-1`` = first occurrence)."""
        return self._prev

    @property
    def reuse_dist(self) -> np.ndarray:
        """Distinct pages since the previous occurrence (huge for cold)."""
        return self._reuse

    def box(self, start: int, height: int, budget: int, miss_cost: int, offset: int = 0) -> BoxRun:
        """:meth:`_KernelOps.box` with a scalar walk for short boxes.

        The walk is the reference loop verbatim over the precomputed
        hit predicate, so it is exact by construction; after
        ``_SCALAR_MAX`` served requests with budget to spare it defers
        to the vectorized pass (the walk so far is then sunk cost, but
        boxes that large are exactly where vectorization wins).  On the
        native tier the walk runs compiled instead, with no
        length cutoff — the compiled loop is O(served) at C speed.
        """
        ops = self._ops
        if ops is not None:
            hand = self._hand
            if hand is None:
                hand = self._hand = ops.prepare(self._prev, self._reuse)
            served, hits, t = ops.box_probe(
                hand, self._n, start, height, budget, miss_cost
            )
            return BoxRun(
                start=start + offset,
                end=start + served + offset,
                hits=hits,
                faults=served - hits,
                time_used=t,
                budget=budget,
                height=height,
            )
        pl = self._prev_list
        if pl is None:
            pl = self._prev.tolist()
            rl = self._reuse.tolist()
            self._prev_list = pl
            self._reuse_list = rl
        else:
            rl = self._reuse_list
        n = self._n
        i = start
        t = 0
        hits = 0
        cutoff = start + _SCALAR_MAX
        while i < n:
            c = 1 if (pl[i] >= start and rl[i] < height) else miss_cost
            nt = t + c
            if nt > budget:
                break
            t = nt
            if c == 1:
                hits += 1
            i += 1
            if i == cutoff and t < budget:
                # still both budget and window left: go vectorized
                return _KernelOps.box(self, start, height, budget, miss_cost, offset)
        return BoxRun(
            start=start + offset,
            end=i + offset,
            hits=hits,
            faults=i - start - hits,
            time_used=t,
            budget=budget,
            height=height,
        )

    def ladder_plan(
        self,
        heights: Tuple[int, ...],
        budgets: Tuple[int, ...],
        miss_cost: int,
    ) -> "_LadderPlan":
        """Memoized :class:`_LadderPlan` for an ascending height ladder.

        The offline DP probes one lattice thousands of times per solve;
        everything that depends only on (sequence, ladder, miss_cost) —
        warmth thresholds, cost prefixes, budget columns — is hoisted
        here so each probe is pure sliced-array work.  On the native
        tier the plan evaluates its blocks in the
        compiled walk instead (same ``ends`` contract, same rows); the
        memo key includes the backend so flipping ``$REPRO_KERNEL``
        between probes never serves a plan built for the other tier.
        """
        ops = self._ops
        key = (heights, budgets, miss_cost, ops is not None)
        plan = self._plan_cache.get(key)
        if plan is None:
            if ops is not None:
                plan = _NativeLadderPlan(self, heights, budgets, miss_cost, ops)
            else:
                plan = _LadderPlan(self, heights, budgets, miss_cost)
            self._plan_cache[key] = plan
        return plan

    def box_ends(
        self,
        start: int,
        heights: Tuple[int, ...],
        budgets: Tuple[int, ...],
        miss_cost: int,
    ) -> List[int]:
        """Box end positions from ``start`` for a whole ascending height
        ladder at once — the offline DP's relaxation step.

        One shared window pass replaces ``len(heights)`` independent
        :meth:`box_end` probes (see :class:`_LadderPlan`).  Pre-validated
        fast path: ``heights`` must be ascending with matching positive
        ``budgets`` and ``miss_cost > 1``.
        """
        return list(self.ladder_plan(heights, budgets, miss_cost).ends(start))


class _LadderPlan:
    """Batched box-endpoint evaluation for one (sequence, height ladder).

    Exploits three structural facts:

    * **Nested hits** — a taller box hits everything a shorter one does,
      so each request has a single warmth threshold ``lev[i]`` (index of
      the shortest height that hits it), and the per-level hit predicate
      collapses to one comparison ``D_l[i] >= start`` against a masked
      previous-occurrence array (``D_l[i] = prev_occ[i]`` where level
      ``l`` can hit, ``-1`` elsewhere).
    * **Dominant top row** — shorter heights have both more misses and
      smaller budgets, so no level can out-serve the tallest.  The top
      row is evaluated first and its furthest progress clamps the 3-D
      pass for every other level.
    * **Blocked starts** — the DP relaxes start positions in ascending
      order, so endpoints are computed for ``_PLAN_BLOCK`` consecutive
      starts per batch.  Rows share one window; a row's own start offset
      is removed by subtracting its prefix cost (every position before a
      row's start has ``D < start`` and is affordable, so prefix counts
      subtract out exactly).  Dispatch overhead per probe drops by the
      block factor while total element work is unchanged.
    """

    __slots__ = ("_n", "_s", "_L", "_b_top", "_bud_low", "_Dtop", "_Dlow", "_T", "_dt", "_blk_q0", "_blk")

    def __init__(
        self,
        kernel: SequenceKernel,
        heights: Tuple[int, ...],
        budgets: Tuple[int, ...],
        miss_cost: int,
    ) -> None:
        n = kernel._n
        s = int(miss_cost)
        L = len(heights)
        harr = np.asarray(heights, dtype=np.int64)
        prev = kernel._prev
        # lev[i] = first ladder index whose height exceeds reuse_dist[i];
        # lev == levels means no height on the ladder ever hits it.
        lev = np.searchsorted(harr, kernel._reuse, side="right")
        self._n = n
        self._s = s
        self._L = L
        self._b_top = int(budgets[-1])
        # Every quantity in a block pass is bounded by one full window of
        # misses plus a budget; int32 halves the memory traffic of the
        # cumsum-dominated inner passes whenever that fits.
        dt = np.int32 if s * (n + _PLAN_BLOCK + 1) + self._b_top < 2**31 - 1 else np.int64
        self._dt = dt
        self._bud_low = np.asarray(budgets[:-1], dtype=dt)[:, np.newaxis]
        self._Dtop = np.where(lev < L, prev, -1).astype(dt)
        self._Dlow = (
            np.where(
                lev[np.newaxis, :] <= np.arange(L - 1, dtype=np.int64)[:, np.newaxis],
                prev[np.newaxis, :],
                -1,
            ).astype(dt)
            if L > 1
            else None
        )
        self._T = (s * np.arange(1, n + 1, dtype=np.int64)).astype(dt)
        self._blk_q0 = -1
        self._blk: List[List[int]] = []

    def ends(self, start: int) -> List[int]:
        """Box end positions from ``start``, one per ladder height.

        Returns a cached row of the current block — callers must treat
        it as read-only (:meth:`SequenceKernel.box_ends` copies).
        """
        if start >= self._n:
            return [start] * self._L
        q0 = self._blk_q0
        if q0 < 0 or not q0 <= start < q0 + len(self._blk):
            self._compute_block(start - start % _PLAN_BLOCK)
            q0 = self._blk_q0
        return self._blk[start - q0]

    def _compute_block(self, q0: int) -> None:
        n = self._n
        s = self._s
        s1 = s - 1
        L = self._L
        dt = self._dt
        B = min(_PLAN_BLOCK, n - q0)
        b_top = self._b_top
        wmax = min(n, q0 + B - 1 + b_top) - q0
        rows = np.arange(B, dtype=np.int64)
        qcol = (q0 + rows)[:, np.newaxis].astype(dt)
        Dtop = self._Dtop
        T = self._T
        # Top row, all starts in the block at once, with geometric window
        # growth: an all-miss box serves b_top/s requests, so most blocks
        # resolve within a few times that; hit-heavy stretches grow out
        # to the full budget window.  C[b, i] is the time a box from
        # q0+b would spend serving the common window's prefix [q0, q0+i];
        # positions before the row's own start are all cold (prev <
        # position < start) and all affordable, so subtracting the
        # prefix cost offs[b] = C[b, b-1] re-bases each row exactly.
        w = min(wmax, 4 * (b_top // s) + B)
        while True:
            M = Dtop[q0 : q0 + w] >= qcol
            C = T[:w] - s1 * M.cumsum(axis=1, dtype=dt)
            offs = np.zeros(B, dtype=dt)
            if B > 1:
                offs[1:] = C[rows[1:], rows[:-1]]
            if w == wmax or bool((C[:, -1] > b_top + offs).all()):
                break
            w = min(wmax, w * 4)
        served_top = (C <= (b_top + offs)[:, np.newaxis]).sum(axis=1) - rows
        ends = np.empty((B, L), dtype=np.int64)
        ends[:, L - 1] = q0 + rows + served_top
        if L > 1:
            # Lower levels serve no further than the top row (subset
            # hits, smaller budgets) and never past their own budget, so
            # the shared window is clamped by both.
            U = min(int(served_top.max()), int(self._bud_low[-1, 0]))
            if U == 0:
                ends[:, : L - 1] = q0 + rows[:, np.newaxis]
            else:
                w2 = min(n, q0 + B - 1 + U) - q0
                M2 = self._Dlow[:, np.newaxis, q0 : q0 + w2] >= qcol[np.newaxis, :, :]
                C2 = T[:w2] - s1 * M2.cumsum(axis=2, dtype=dt)
                offs2 = np.zeros((L - 1, B), dtype=dt)
                if B > 1:
                    offs2[:, 1:] = C2[:, rows[1:], rows[:-1]]
                lim = self._bud_low + offs2
                served_low = (C2 <= lim[:, :, np.newaxis]).sum(axis=2) - rows[np.newaxis, :]
                ends[:, : L - 1] = q0 + rows[:, np.newaxis] + served_low.T
        self._blk_q0 = q0
        self._blk = ends.tolist()


class _NativeLadderPlan:
    """Compiled twin of :class:`_LadderPlan` (same ``ends`` contract).

    Shares the warmth-threshold reduction (``lev[i]`` = first ladder
    index whose height exceeds ``reuse_dist[i]``) but evaluates each
    blocked batch of starts with the compiled O(served) walk instead of
    windowed numpy passes.  Rows are bit-identical: both formulations
    serve a request iff ``prev_occ[i] >= start`` and ``lev[i] <= level``
    under the same budget arithmetic.
    """

    __slots__ = ("_ops", "_n", "_s", "_L", "_prev", "_lev", "_budgets", "_blk_q0", "_blk")

    def __init__(
        self,
        kernel: SequenceKernel,
        heights: Tuple[int, ...],
        budgets: Tuple[int, ...],
        miss_cost: int,
        ops,
    ) -> None:
        harr = np.asarray(heights, dtype=np.int64)
        self._ops = ops
        self._n = kernel._n
        self._s = int(miss_cost)
        self._L = len(heights)
        self._prev = kernel._prev
        self._lev = np.ascontiguousarray(
            np.searchsorted(harr, kernel._reuse, side="right"), dtype=np.int64
        )
        self._budgets = np.ascontiguousarray(budgets, dtype=np.int64)
        self._blk_q0 = -1
        self._blk: List[List[int]] = []

    def ends(self, start: int) -> List[int]:
        """Box end positions from ``start``, one per ladder height
        (cached block row — read-only, like :meth:`_LadderPlan.ends`)."""
        if start >= self._n:
            return [start] * self._L
        q0 = self._blk_q0
        if q0 < 0 or not q0 <= start < q0 + len(self._blk):
            q0 = start - start % _PLAN_BLOCK
            B = min(_PLAN_BLOCK, self._n - q0)
            out = np.empty(B * self._L, dtype=np.int64)
            self._ops.ladder_block(
                self._prev, self._lev, self._n, self._budgets, self._s, q0, B, out
            )
            self._blk_q0 = q0
            self._blk = out.reshape(B, self._L).tolist()
        return self._blk[start - self._blk_q0]


def native_dp_solve(
    kernel: SequenceKernel,
    heights: Tuple[int, ...],
    budgets: Tuple[int, ...],
    costs: Tuple[int, ...],
    miss_cost: int,
    inf: int,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the whole offline green DP relaxation compiled, or ``None``.

    Returns ``(dist, parent_pos, parent_h)`` — byte-identical to the
    python sweep in :func:`repro.green.offline.optimal_box_profile`
    (ascending positions, ascending ladder levels, strict-``<``
    improvement) — when the kernel was built on the native tier;
    ``None`` otherwise, and the caller falls back to its own
    sweep.  Hoisting the relaxation loop itself (not just the endpoint
    probes) is what buys the DP arm its headroom: at typical experiment
    sizes the python ``zip`` loop costs as much as the probes.
    """
    ops = kernel._ops
    if ops is None:
        return None
    n = kernel._n
    harr = np.ascontiguousarray(heights, dtype=np.int64)
    lev = np.ascontiguousarray(
        np.searchsorted(harr, kernel._reuse, side="right"), dtype=np.int64
    )
    dist = np.full(n + 1, inf, dtype=np.int64)
    dist[0] = 0
    parent_pos = np.full(n + 1, -1, dtype=np.int64)
    parent_h = np.zeros(n + 1, dtype=np.int64)
    ops.dp_solve(
        kernel._prev,
        lev,
        np.ascontiguousarray(budgets, dtype=np.int64),
        np.ascontiguousarray(costs, dtype=np.int64),
        harr,
        int(miss_cost),
        int(inf),
        dist,
        parent_pos,
        parent_h,
    )
    return dist, parent_pos, parent_h


class StreamKernel(_KernelOps):
    """Incremental reuse-distance kernel over a stream of chunks.

    ``prev_occ``/``reuse_dist`` only ever look backwards, so appending a
    chunk can never change an already-swept row: :meth:`append`
    concatenates the chunk onto the retained window and runs the same
    vectorized build :class:`SequenceKernel` uses, restricted to the new
    suffix — O(window) numpy work per chunk instead of O(log window)
    Python work per request.  :meth:`compact` drops the already-served
    prefix (the stream engine never starts a box before its execution
    position), so resident state stays proportional to the active
    window — the same bound the chunked reference path guarantees.

    Local coordinates: position 0 is the oldest retained request;
    ``base`` is its global stream index.  Boxes must start at or after
    ``base``.
    """

    __slots__ = (
        "_window", "_prev", "_reuse", "_n", "base",
        "_prev_list", "_reuse_list", "_ops", "_hand",
    )

    def __init__(self, capacity: int = 1024) -> None:
        # ``capacity`` is a historical hint: arrays are rebuilt per
        # append, so no preallocation is needed; accepted for API
        # stability.
        del capacity
        self._window = np.empty(0, dtype=np.int64)
        self._prev = np.empty(0, dtype=np.int64)
        self._reuse = np.empty(0, dtype=np.int64)
        self._n = 0
        self.base = 0
        self._ops = _active_native()
        self._hand = None
        # plain-int mirrors of _prev/_reuse for the scalar short-box
        # walk; built lazily on the first box, then maintained
        # incrementally (append extends, compact re-slices) — appended
        # rows never change, so the extension is exact
        self._prev_list: Optional[List[int]] = None
        self._reuse_list: Optional[List[int]] = None

    def __len__(self) -> int:
        return self._n

    @property
    def end(self) -> int:
        """Global index one past the last swept request."""
        return self.base + self._n

    def append(self, chunk: np.ndarray) -> None:
        """Sweep one more chunk of the stream into the kernel."""
        arr = np.ascontiguousarray(chunk, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("chunks must be 1-D request arrays")
        if len(arr) == 0:
            return
        old = self._n
        window = np.concatenate([self._window, arr]) if old else arr.copy()
        n = len(window)
        # prev/nxt over the whole window (cheap vectorized sorts); rows
        # whose true previous occurrence was compacted away come back -1,
        # which the box predicate treats exactly like the old clamped
        # negative offsets.
        prev = np.full(n, -1, dtype=np.int64)
        order = np.argsort(window, kind="stable")
        same = window[order[1:]] == window[order[:-1]]
        prev[order[1:]] = np.where(same, order[:-1], -1)
        ops = self._ops
        if ops is not None:
            # compiled Fenwick sweep: rows [0, old) feed their tree marks
            # but only the appended suffix is written
            reuse = np.empty(n, dtype=np.int64)
            ops.reuse_sweep(prev, old, n, _COLD, np.zeros(n + 1, dtype=np.int64), n, reuse)
        else:
            nxt = np.full(n, n, dtype=np.int64)
            nxt[order[:-1]] = np.where(same, order[1:], n)
            reuse = _reuse_vectorized(prev, nxt, n, start=old)
        # already-swept rows keep their stored values (they cannot change)
        reuse[:old] = self._reuse
        self._window = window
        self._prev = prev
        self._reuse = reuse
        self._n = n
        self._hand = None  # prepared probe handle points at the old arrays
        if self._prev_list is not None:
            self._prev_list.extend(prev[old:].tolist())
            self._reuse_list.extend(reuse[old:].tolist())

    def box_end(self, start: int, height: int, budget: int, miss_cost: int) -> int:
        """Global-coordinate :meth:`_KernelOps.box_end` over the live window."""
        local = start - self.base
        if local < 0:
            raise ValueError(f"box start {start} precedes retained window base {self.base}")
        return _KernelOps.box_end(self, local, height, budget, miss_cost) + self.base

    def box(self, start: int, height: int, budget: int, miss_cost: int, offset: int = 0) -> BoxRun:
        """Global-coordinate box evaluation over the live window.

        Mirrors :meth:`SequenceKernel.box`: compiled walk on the native
        tier, else a scalar list walk for short boxes
        (streamed box algorithms serve a handful of requests per box,
        where ~10 numpy dispatches plus an O(window) cumsum dominated
        the event backend), deferring to the vectorized pass after
        ``_SCALAR_MAX`` served requests with budget to spare.
        """
        local = start - self.base
        if local < 0:
            raise ValueError(f"box start {start} precedes retained window base {self.base}")
        ops = self._ops
        if ops is not None:
            hand = self._hand
            if hand is None:
                hand = self._hand = ops.prepare(self._prev, self._reuse)
            served, hits, t = ops.box_probe(
                hand, self._n, local, height, budget, miss_cost
            )
            glob = start + offset
            return BoxRun(
                start=glob,
                end=glob + served,
                hits=hits,
                faults=served - hits,
                time_used=t,
                budget=budget,
                height=height,
            )
        pl = self._prev_list
        if pl is None:
            pl = self._prev.tolist()
            rl = self._reuse.tolist()
            self._prev_list = pl
            self._reuse_list = rl
        else:
            rl = self._reuse_list
        n = self._n
        i = local
        t = 0
        hits = 0
        cutoff = local + _SCALAR_MAX
        while i < n:
            c = 1 if (pl[i] >= local and rl[i] < height) else miss_cost
            nt = t + c
            if nt > budget:
                break
            t = nt
            if c == 1:
                hits += 1
            i += 1
            if i == cutoff and t < budget:
                return _KernelOps.box(self, local, height, budget, miss_cost, offset + self.base)
        glob = start + offset
        return BoxRun(
            start=glob,
            end=glob + (i - local),
            hits=hits,
            faults=i - local - hits,
            time_used=t,
            budget=budget,
            height=height,
        )

    def compact(self, upto: int) -> None:
        """Forget everything before global position ``upto``.

        Sound whenever no future box starts before ``upto``: a dropped
        position can then never satisfy ``prev_occ >= start``, and pages
        whose last occurrence is dropped correctly re-enter cold.
        """
        d = int(upto) - self.base
        if d <= 0:
            return
        if d > self._n:
            raise ValueError(f"cannot compact past swept prefix ({upto} > {self.end})")
        # copies, not views: a view would pin the pre-compact arrays
        self._window = self._window[d:].copy()
        self._prev = self._prev[d:] - d
        self._reuse = self._reuse[d:].copy()
        self._n -= d
        self.base += d
        self._hand = None
        if self._prev_list is not None:
            # dropped previous occurrences go negative, exactly like the
            # array form above — the box predicate masks them as cold
            self._prev_list = [x - d for x in self._prev_list[d:]]
            self._reuse_list = self._reuse_list[d:]


def run_box_fast(
    kernel: _KernelOps,
    start: int,
    height: int,
    budget: int,
    miss_cost: int,
) -> BoxRun:
    """Vectorized :func:`repro.paging.engine.run_box` over a kernel.

    Same contract, same validation, bit-identical :class:`BoxRun` —
    ``start`` is in the kernel's local coordinates (identical to sequence
    coordinates for a :class:`SequenceKernel`).
    """
    if height < 1:
        raise ValueError(f"box height must be >= 1, got {height}")
    if miss_cost <= 1:
        raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
    return kernel.box(int(start), int(height), int(budget), int(miss_cost))


# --------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------- #
#: key -> (weakref-to-array-or-None, kernel).  Ordered for LRU eviction.
_CACHE: "OrderedDict[Tuple[str, Hashable], Tuple[Optional[weakref.ref], SequenceKernel]]" = OrderedDict()

_CACHE_MAX_ENTRIES = 64
#: Bound on total cached elements (~16 B/request), so huge traces cannot
#: pin unbounded memory through the cache.
_CACHE_MAX_ELEMENTS = 32_000_000
_cache_elements = 0


def _evict_until_bounded() -> None:
    global _cache_elements
    while _CACHE and (
        len(_CACHE) > _CACHE_MAX_ENTRIES or _cache_elements > _CACHE_MAX_ELEMENTS
    ):
        _, (_, old) = _CACHE.popitem(last=False)
        _cache_elements -= len(old)


def get_kernel(seq: np.ndarray, key: Optional[Hashable] = None) -> SequenceKernel:
    """A (possibly cached) :class:`SequenceKernel` for ``seq``.

    With ``key=None`` the cache entry is keyed on the array's object
    identity and guarded by a weak reference, so a recycled ``id()`` can
    never alias a dead array.  Pass an explicit ``key`` (e.g. a trace
    ``content_digest`` plus processor index) when the same bytes arrive
    as different array objects — registry-backed workloads reuse one
    kernel across algorithms, seeds, and whole experiment sweeps.

    The cache is LRU-bounded both in entries and in total cached
    elements; :func:`clear_kernel_cache` empties it.
    """
    global _cache_elements
    if key is not None:
        ck: Tuple[str, Hashable] = ("key", key)
        entry = _CACHE.get(ck)
        if entry is not None:
            _CACHE.move_to_end(ck)
            return entry[1]
        kern = SequenceKernel(seq)
        _CACHE[ck] = (None, kern)
    else:
        ck = ("id", id(seq))
        entry = _CACHE.get(ck)
        if entry is not None:
            ref = entry[0]
            if ref is not None and ref() is seq:
                _CACHE.move_to_end(ck)
                return entry[1]
            _CACHE.pop(ck)  # stale id from a dead array
            _cache_elements -= len(entry[1])
        kern = SequenceKernel(seq)
        try:
            ref = weakref.ref(seq)
        except TypeError:  # non-weakref-able sequence types: don't cache
            return kern
        _CACHE[ck] = (ref, kern)
    _cache_elements += len(kern)
    _evict_until_bounded()
    return kern


def maybe_kernel(seq: np.ndarray, key: Optional[Hashable] = None) -> Optional[SequenceKernel]:
    """:func:`get_kernel`, or ``None`` under ``REPRO_KERNEL=reference``.

    The idiom at every threaded call site::

        kern = maybe_kernel(seq)
        ...
        run = run_box_fast(kern, pos, h, budget, s) if kern is not None \\
            else run_box(seq, pos, h, budget, s)
    """
    if kernel_backend() == "reference":
        return None
    return get_kernel(seq, key=key)


def peek_kernel(seq: np.ndarray, key: Optional[Hashable] = None) -> Optional[SequenceKernel]:
    """The cached kernel for ``seq``/``key`` if one exists, else ``None``.

    Never computes: useful to decide whether precomputed ``prev_occ``/
    ``reuse_dist`` arrays are available to ship to pool workers.
    """
    ck: Tuple[str, Hashable] = ("key", key) if key is not None else ("id", id(seq))
    entry = _CACHE.get(ck)
    if entry is None:
        return None
    if key is None:
        ref = entry[0]
        if ref is None or ref() is not seq:
            return None
    return entry[1]


def seed_kernel(
    seq: np.ndarray,
    prev: np.ndarray,
    reuse: np.ndarray,
    key: Optional[Hashable] = None,
) -> SequenceKernel:
    """Install a kernel built from precomputed ``prev_occ``/``reuse_dist``.

    The zero-copy handoff path ships a parent's precomputes to pool
    workers over shared memory; this seeds the worker-side cache so the
    worker never recomputes them.  ``prev``/``reuse`` must be exactly
    what :class:`SequenceKernel` would compute for ``seq`` — callers are
    trusted (the arrays come from a kernel on the parent side).
    """
    global _cache_elements
    existing = peek_kernel(seq, key=key)
    if existing is not None:
        return existing
    kern = SequenceKernel.from_precomputed(seq, prev, reuse)
    if key is not None:
        _CACHE[("key", key)] = (None, kern)
    else:
        try:
            ref = weakref.ref(seq)
        except TypeError:
            return kern
        _CACHE[("id", id(seq))] = (ref, kern)
    _cache_elements += len(kern)
    _evict_until_bounded()
    return kern


def clear_kernel_cache() -> None:
    """Drop every cached kernel (tests and memory-pressure escape hatch)."""
    global _cache_elements
    _CACHE.clear()
    _cache_elements = 0
