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
  the streaming window's append, the box service walk, the offline DP
  relaxation and the GLOBAL-LRU, DET-PAR and RAND-PAR loops through the
  cc-compiled primitives of :mod:`repro.paging._native`;
* ``fast`` is the numpy path below, which is also what ``native``
  resolves to when the compiled library cannot be built (no usable C
  compiler);
* ``reference`` selects every oracle: the dict-LRU
  :func:`~repro.paging.engine.run_box` for boxes and DP endpoints, and
  the retained per-instant loops of the parallel simulators.

This module picks the box walk for every caller: :func:`box_walk`
returns a kernel (a kernel is callable as :func:`run_box_fast` over
itself) or, under ``reference``, ``run_box`` bound to the sequence, and
:func:`ladder_ends` does the same for the offline DP's endpoints.  Each
job has one path per tier.  A box is one walk (:meth:`_KernelOps.box`):
the compiled probe, else a scalar walk over plain-int lists that hands
long boxes to one vectorized pass.  The offline DP runs compiled as a
whole (:func:`native_dp_solve`) or, on the numpy tier, over a
:class:`_LadderPlan`.
:func:`repro.paging.stack.stack_distances` reads its distances off a
:class:`SequenceKernel` too, so the sweep here is the only
reuse-distance sweep in :mod:`repro.paging`.

Two kernel flavors:

* :class:`SequenceKernel` — whole sequence in memory, built once, shared
  through the LRU-bounded module cache (:func:`get_kernel`, keyed by
  array identity or an explicit content digest);
* :class:`StreamKernel` — incremental: chunks are appended as a stream
  delivers them and the swept prefix is compacted away as execution
  passes it, so bounded-memory streaming keeps bounded memory.  On the
  native tier its window lives in one block it owns and grows, which
  the box probe and the compiled DET-PAR and RAND-PAR loops read in
  place.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ._native import address, native_flavor, native_ops
from .engine import BoxRun, run_box

__all__ = [
    "SequenceKernel",
    "StreamKernel",
    "run_box_fast",
    "box_walk",
    "ladder_ends",
    "get_kernel",
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

#: Header words of the native tier's streaming window block (layout on
#: ``repro_stream_append`` in :mod:`repro.paging._native`), and the least
#: log2 of its first page table's slots (an eighth of the first chunk's
#: rows, at least); the table doubles as distinct pages arrive.
_WIN_HEADER = 7
_WIN_TABLE_BITS = 6

#: The offline DP's ladder plan evaluates endpoints for this many
#: consecutive start positions per batch, amortizing numpy dispatch
#: overhead ~_PLAN_BLOCK-fold over the per-probe path.
_PLAN_BLOCK = 32

#: The vectorized reuse-distance build (O(n log² n) work, a dozen numpy
#: calls per doubling level) holds 32 bytes of comparison leaves per
#: request at once, so it runs up to this length; the O(n log n) python
#: Fenwick sweep takes over beyond it.
_VEC_BUILD_MAX = 16384
#: Positions per block whose pairs the build counts with one comparison
#: matrix, before its sort-and-search levels take over.
_MERGE_LEAF = 32
_EARLIER = np.arange(_MERGE_LEAF) < np.arange(_MERGE_LEAF)[:, np.newaxis]  # [i, v]: v < i


def _earlier_greater(vals: np.ndarray) -> np.ndarray:
    """Per position ``i``, ``#{v < i: vals[v] > vals[i]}`` (``vals >= -1``).

    Within blocks of ``_MERGE_LEAF`` positions, one comparison matrix
    counts every pair.  Then bottom-up merge counting: at the level of
    span ``w``, positions pair up in groups of ``2w``, and each position
    in a group's second half counts the greater values in its first
    half, one sort and one ``searchsorted`` for every group at once (each
    group's sorted first half is offset by the group's index times a
    bound on the values, so the halves concatenate into one sorted
    array).  Every earlier position meets a later one in exactly one
    block or level.  The padding after the last position is later than
    every position, so it counts nothing.
    """
    c = len(vals)
    size = 1 << max(0, (c - 1).bit_length())
    keys = np.zeros(size, dtype=np.int64)
    keys[:c] = vals
    keys += 1
    bound = int(keys.max()) + 1
    w = min(size, _MERGE_LEAF)
    leaves = keys.reshape(size // w, w)
    pairs = (leaves[:, np.newaxis, :] > leaves[:, :, np.newaxis]) & _EARLIER[:w, :w]
    out = np.count_nonzero(pairs, axis=2).ravel()
    while w < size:
        g = size // (2 * w)
        pairs = keys.reshape(g, 2, w)
        off = np.arange(0, g * bound, bound, dtype=np.int64)[:, np.newaxis]
        first = np.sort(pairs[:, 0, :], axis=1)
        first += off
        # in group k: k*w first-half keys of earlier groups, then those <= v
        upto = np.searchsorted(first.ravel(), pairs[:, 1, :] + off, side="right")
        out.reshape(g, 2, w)[:, 1, :] += np.arange(w, (g + 1) * w, w)[:, np.newaxis] - upto
        w *= 2
    return out[:c]


def _reuse_vectorized(prev: np.ndarray, start: int = 0) -> np.ndarray:
    """Vectorized reuse distances of the rows ``>= start`` of a column
    with previous occurrences ``prev`` (no per-request Python).

    Position ``x`` stops being its page's most recent occurrence once its
    next occurrence ``v`` has passed, and then ``prev[v] = x``; so for
    ``j = prev[i]`` the pages deleted in ``(j, i)`` are the ``v < i`` with
    ``prev[v] > j``, and::

        reuse[i] = (i - 1 - j) - #{v < i: prev[v] > prev[i]}

    a per-position count of earlier greater values (:func:`_earlier_greater`).

    ``start`` restricts the computation to positions ``>= start``
    (positions below it come back ``_COLD``): the streaming kernel knows
    reuse distances of already-swept rows can never change, so it only
    pays for the appended suffix.  The rows before ``start`` enter as one
    histogram of their ``prev`` values per call.
    """
    n = len(prev)
    reuse = np.full(n, _COLD, dtype=np.int64)
    vals = prev[start:]
    if not len(vals):
        return reuse
    dead = _earlier_greater(vals)
    if start:
        # rows before start hold prev + 1 in [0, start): count those > j + 1
        at_most = np.cumsum(np.bincount(prev[:start] + 1, minlength=start + 1))
        dead += start - at_most[np.clip(vals + 1, 0, start)]
    reuse[start:] = np.where(vals >= 0, np.arange(start - 1, n - 1) - vals - dead, _COLD)
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
    compiled library is unavailable (no usable C compiler), this
    resolves to ``"fast"`` — the numpy fallback, never an error.
    ``REPRO_KERNEL=fast`` pins the numpy tier where a compiler exists.
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
    """The one box walk over ``prev_occ``/``reuse_dist``.

    Subclasses provide ``_prev``/``_reuse`` (int64 arrays, at least
    ``_n`` valid entries) in *local* coordinates, their plain-int
    mirrors ``_prev_list``/``_reuse_list`` (built lazily), ``base`` (the
    global index of local position 0) and ``_ops`` (the construction-time
    native primitives, ``None`` on the numpy tier).  On the native tier
    they also provide the compiled probe's view of their columns:
    ``_pp``/``_rp`` (column addresses), ``_origin`` (global position of
    column row 0) and ``_stop`` (one past the last column row); there
    the columns hold *global* previous-occurrence positions.  Only the
    window base is checked here: callers either go through
    :func:`run_box_fast` (which validates like the reference) or pass
    pre-validated arguments (the box server).
    """

    _prev: np.ndarray
    _reuse: np.ndarray
    _n: int
    _prev_list: Optional[List[int]]
    _reuse_list: Optional[List[int]]
    _ops: object
    _pp: int
    _rp: int
    _origin: int
    _stop: int
    base: int

    def box(self, start: int, height: int, budget: int, miss_cost: int) -> BoxRun:
        """Full :class:`BoxRun` for one box from global position ``start``.

        On the native tier the walk runs compiled, with no length
        cutoff — the compiled loop is O(served) at C speed.  Otherwise
        it is the reference loop verbatim over the precomputed hit
        predicate, on plain-int lists, so it is exact by construction:
        box algorithms serve a handful of requests per box, where ~10
        numpy dispatches per box would dominate.  After ``_SCALAR_MAX``
        served requests with budget to spare it defers to the
        vectorized pass (the walk so far is then sunk cost, but boxes
        that large are exactly where vectorization wins).
        """
        local = start - self.base
        if local < 0:
            raise ValueError(f"box start {start} precedes retained window base {self.base}")
        ops = self._ops
        if ops is not None:
            served, hits, t = ops.box_probe(
                self._pp, self._rp, start - self._origin, self._stop, start, height, budget, miss_cost
            )
            return BoxRun(
                start=start,
                end=start + served,
                hits=hits,
                faults=served - hits,
                time_used=t,
                budget=budget,
                height=height,
            )
        pl = self._prev_list
        if pl is None:
            pl = self._prev_list = self._prev.tolist()
            rl = self._reuse_list = self._reuse.tolist()
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
                # still both budget and window left: go vectorized
                return self._vector_box(start, local, height, budget, miss_cost)
        return BoxRun(
            start=start,
            end=start + (i - local),
            hits=hits,
            faults=i - local - hits,
            time_used=t,
            budget=budget,
            height=height,
        )

    def _vector_box(self, start: int, local: int, height: int, budget: int, miss_cost: int) -> BoxRun:
        """The vectorized pass for a box that serves past ``_SCALAR_MAX``."""
        stop = min(local + budget, self._n)
        hit = (self._prev[local:stop] >= local) & (self._reuse[local:stop] < height)
        cum = np.cumsum(miss_cost - (miss_cost - 1) * hit)
        served = int(np.searchsorted(cum, budget, side="right"))
        hits = int(np.count_nonzero(hit[:served]))
        return BoxRun(
            start=start,
            end=start + served,
            hits=hits,
            faults=served - hits,
            time_used=int(cum[served - 1]),
            budget=budget,
            height=height,
        )


class SequenceKernel(_KernelOps):
    """Per-sequence reuse-distance precompute for the fast box engine.

    Construction computes ``prev_occ``/``reuse_dist`` once — compiled
    on the native tier; on the numpy tier a vectorized merge count for
    typical lengths and an O(n log n) Fenwick sweep beyond
    ``_VEC_BUILD_MAX``; every box afterwards is one :meth:`box` walk
    over them.  Instances
    are immutable in spirit — share them freely across boxes, heights,
    algorithms, and DP solves on the same sequence (see :func:`get_kernel`).
    """

    __slots__ = (
        "seq", "_prev", "_reuse", "_n", "_weak", "_plan_cache",
        "_prev_list", "_reuse_list", "_ops", "_pp", "_rp", "_stop",
    )

    #: Sequence coordinates are the window's coordinates.
    base = 0
    _origin = 0

    def __init__(self, seq: np.ndarray) -> None:
        arr = np.ascontiguousarray(seq, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"sequence must be 1-D, got shape {arr.shape}")
        self.seq = seq if isinstance(seq, np.ndarray) else arr
        self._plan_cache: Dict[Tuple, "_LadderPlan"] = {}
        self._prev_list: Optional[List[int]] = None
        self._reuse_list: Optional[List[int]] = None
        n = len(arr)
        self._n = n
        ops = _active_native()
        self._ops = ops
        if n and ops is not None:
            # the compiled sweep is the streaming window's: sweep the
            # whole sequence as one chunk and keep its two columns
            stream = StreamKernel()
            stream.append(arr)
            stream.seal()
            self._prev = stream._column(0)
            self._reuse = stream._column(1)
            self._bind()
            return
        # prev_occ fully vectorized: stable-sort positions by page, then
        # each position's predecessor within its page group is its
        # previous occurrence.
        prev = np.full(n, -1, dtype=np.int64)
        if n:
            order = np.argsort(arr, kind="stable")
            same = arr[order[1:]] == arr[order[:-1]]
            prev[order[1:]] = np.where(same, order[:-1], -1)
        if n and n <= _VEC_BUILD_MAX:
            self._prev = prev
            self._reuse = _reuse_vectorized(prev)
        else:
            # Fenwick sweep for reuse_dist, in deletion form: position j
            # is marked once its page reoccurs, so the distinct count
            # between an occurrence pair is the gap length minus the
            # marks inside it (BIT work only on warm requests).
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
        self._bind()

    def _bind(self) -> None:
        """Cache the compiled probe's view of the (immutable) columns."""
        self._stop = self._n
        if self._ops is not None:
            self._pp = address(self._prev)
            self._rp = address(self._reuse)

    def window(self) -> Tuple[int, int, int, int]:
        """The compiled loops' view of the columns, as four ints.

        The prev and reuse addresses, the global position of column row
        0, and one past the last row.  The caller keeps the kernel alive
        while it uses them.
        """
        return address(self._prev), address(self._reuse), 0, self._n

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
        self._n = len(prev)
        self._prev = np.ascontiguousarray(prev, dtype=np.int64)
        self._reuse = np.ascontiguousarray(reuse, dtype=np.int64)
        self._bind()
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

    # bound here as well as inherited: the benchmark's tracer wraps
    # ``box`` where it finds it, in each class's own ``__dict__``
    box = _KernelOps.box

    def ladder_plan(
        self,
        heights: Tuple[int, ...],
        budgets: Tuple[int, ...],
        miss_cost: int,
    ) -> "_LadderPlan":
        """Memoized :class:`_LadderPlan` for an ascending height ladder.

        The numpy tier's offline DP probes one lattice thousands of times
        per solve; everything that depends only on (sequence, ladder,
        miss_cost) — warmth thresholds, cost prefixes, budget columns —
        is hoisted here so each probe is pure sliced-array work.  (On the
        native tier the DP never asks: :func:`native_dp_solve` runs the
        whole relaxation compiled.)  Pre-validated fast path: ``heights``
        must be ascending with matching positive ``budgets`` and
        ``miss_cost > 1``.
        """
        key = (heights, budgets, miss_cost)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._plan_cache[key] = _LadderPlan(self, heights, budgets, miss_cost)
        return plan


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
        it as read-only.
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


def native_dp_solve(
    seq: np.ndarray,
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
    improvement) — when ``seq``'s cached kernel was built on the native
    tier; ``None`` otherwise, and the caller falls back to its own sweep
    over :func:`ladder_ends`.  Hoisting the relaxation loop itself (not
    just the endpoint probes) is what buys the DP arm its headroom: at
    typical experiment sizes the python ``zip`` loop costs as much as
    the probes.
    """
    kernel = _tier_kernel(seq)
    ops = None if kernel is None else kernel._ops
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
    chunk can never change an already-swept row, and :meth:`compact`
    drops the already-served prefix (the stream engine never starts a
    box before its execution position), so resident state stays
    proportional to the active window.

    On the numpy tier :meth:`append` concatenates the chunk onto the
    retained window and runs the vectorized build :class:`SequenceKernel`
    uses, restricted to the new suffix, and :meth:`compact` copies the
    retained rows out.  On the native tier the window lives in buffers
    the kernel owns and grows — page, prev and reuse columns, a Fenwick
    tree and a page table, laid out on ``repro_stream_append`` — and
    :meth:`append` is one compiled call doing O(chunk) work, amortized:
    it moves the retained rows to the front only when the chunk does not
    fit behind them, which the compactions before it pay for, and
    :meth:`compact` only moves the window's start.  There the columns
    hold global previous-occurrence positions, so :meth:`box` probes the
    buffers in place, and :meth:`window` hands them to the compiled
    DET-PAR and RAND-PAR loops.

    Local coordinates: position 0 is the oldest retained request;
    ``base`` is its global stream index.  Boxes must start at or after
    ``base``.
    """

    __slots__ = (
        "_window", "_prev", "_reuse", "_n", "base",
        "_prev_list", "_reuse_list", "_ops",
        "_buf", "_addr", "_pp", "_rp", "_origin", "_stop", "_sealed",
    )

    def __init__(self) -> None:
        self._window = self._prev = self._reuse = np.empty(0, dtype=np.int64)
        self._n = 0
        self.base = 0
        self._ops = _active_native()
        # plain-int mirrors of _prev/_reuse for the numpy tier's scalar
        # short-box walk; built lazily on the first box, then maintained
        # incrementally (append extends, compact re-slices) — appended
        # rows never change, so the extension is exact
        self._prev_list: Optional[List[int]] = None
        self._reuse_list: Optional[List[int]] = None
        if self._ops is not None:
            self._buf = np.zeros(_WIN_HEADER, dtype=np.int64)  # capacity 0
            self._addr = self._pp = self._rp = self._origin = self._stop = 0
            self._sealed = False

    def __len__(self) -> int:
        return self._n

    @property
    def end(self) -> int:
        """Global index one past the last swept request."""
        return self.base + self._n

    def _column(self, c: int) -> np.ndarray:
        """Native tier: the retained rows of column ``c`` (0 prev, 1 reuse,
        2 page) of the window block."""
        buf = self._buf
        off, cap = int(buf[1]), int(buf[3])
        lo = _WIN_HEADER + c * cap + off
        return buf[lo : lo + self._n]

    @property
    def prev_occ(self) -> np.ndarray:
        """Previous-occurrence offset per retained row, in local
        coordinates; negative when no retained row is its previous
        occurrence."""
        if self._ops is None:
            return self._prev
        return self._column(0) - self.base

    @property
    def reuse_dist(self) -> np.ndarray:
        """Distinct pages since the previous occurrence, per retained row."""
        if self._ops is None:
            return self._reuse
        return self._column(1).copy()

    def window(self) -> Tuple[int, int, int, int]:
        """The compiled loops' view of the native-tier block, as four ints.

        The prev and reuse addresses, the global position of column row
        0, and one past the last swept request.  Valid until the next
        append or seal.
        """
        return self._pp, self._rp, self._origin, self.base + self._n

    def append(self, chunk: np.ndarray) -> None:
        """Sweep one more chunk of the stream into the kernel."""
        arr = np.ascontiguousarray(chunk, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("chunks must be 1-D request arrays")
        if len(arr) == 0:
            return
        if self._ops is not None:
            self._append_native(arr)
            return
        old = self._n
        window = np.concatenate([self._window, arr]) if old else arr.copy()
        n = len(window)
        # prev over the whole window (one vectorized sort); rows
        # whose true previous occurrence was compacted away come back -1,
        # which the box predicate treats exactly like the old clamped
        # negative offsets.
        prev = np.full(n, -1, dtype=np.int64)
        order = np.argsort(window, kind="stable")
        same = window[order[1:]] == window[order[:-1]]
        prev[order[1:]] = np.where(same, order[:-1], -1)
        reuse = _reuse_vectorized(prev, start=old)
        # already-swept rows keep their stored values (they cannot change)
        reuse[:old] = self._reuse
        self._window = window
        self._prev = prev
        self._reuse = reuse
        self._n = n
        if self._prev_list is not None:
            self._prev_list.extend(prev[old:].tolist())
            self._reuse_list.extend(reuse[old:].tolist())

    def seal(self) -> None:
        """Declare that the stream has ended: no chunk follows.

        On the native tier this drops the page column, tree and table,
        which only appends read, and keeps the prev and reuse columns
        that boxes probe; a no-op on the numpy tier.
        """
        if self._ops is None or self._sealed:
            return
        n = self._n
        buf = self._buf
        off, cap = int(buf[1]), int(buf[3])
        for c in (0, 1):  # each column moves down, clear of the other's rows
            src, dst = _WIN_HEADER + c * cap + off, _WIN_HEADER + c * n
            if src != dst:
                buf[dst : dst + n] = buf[src : src + n]
        buf[:_WIN_HEADER] = self.base, 0, n, n, 0, 0, 0
        buf.resize(_WIN_HEADER + 2 * n, refcheck=False)  # shrinks in place
        self._sealed = True
        self._adopt(buf)

    def _append_native(self, arr: np.ndarray) -> None:
        if self._sealed:
            raise ValueError("chunk appended to a sealed stream")
        buf = self._buf
        n = self._n
        need = n + len(arr)
        off, cap = int(buf[1]), int(buf[3])
        if off + need > cap and (need > cap or off < n):
            # no room behind the window, and moving it to the front would
            # copy more rows than it frees: grow geometrically (a first
            # chunk fits exactly, as a short column is often one chunk)
            cap = max(cap + cap // 2, need)
            self._grow(cap, int(buf[4]) or max(_WIN_TABLE_BITS, (len(arr) // 8).bit_length()))
        while self._ops.stream_append(self._addr, arr):
            self._grow(cap, int(self._buf[4]) + 1)  # table passed half full
        self._n = need
        self._origin = int(self._buf[0])
        self._stop = int(self._buf[1]) + need

    def _grow(self, cap: int, bits: int) -> None:
        """Re-lay the block for ``cap`` rows and ``2**bits`` table slots,
        with the retained rows at the front of each column; the next
        append rebuilds the tree and table.

        The block grows in place (``realloc``), so the old and the new
        block are never both held.  Nothing else references it: the
        views :meth:`_column` hands out are consumed on the spot.
        """
        n = self._n
        buf = self._buf
        off, old_cap = int(buf[1]), int(buf[3])
        buf.resize(_WIN_HEADER + 4 * cap + 1 + (1 << bits), refcheck=False)
        # last column first: with cap >= old_cap no destination overlaps
        # a source not yet moved (within a column numpy handles overlap)
        for c in (2, 1, 0) if n else ():
            src, dst = _WIN_HEADER + c * old_cap + off, _WIN_HEADER + c * cap
            buf[dst : dst + n] = buf[src : src + n]
        buf[:_WIN_HEADER] = self.base, 0, n, cap, bits, 0, 1
        self._adopt(buf)

    def _adopt(self, buf: np.ndarray) -> None:
        """Take ``buf`` as the window block and cache its column addresses."""
        self._buf = buf
        self._addr = address(buf)
        self._pp = self._addr + 8 * _WIN_HEADER
        self._rp = self._pp + 8 * int(buf[3])
        self._origin = self.base
        self._stop = self._n

    # bound here as well as inherited, like ``SequenceKernel.box``
    box = _KernelOps.box

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
        self._n -= d
        self.base += d
        if self._ops is not None:
            # O(1): the next append that needs the room reclaims it
            self._buf[1] += d
            self._buf[2] -= d
            return
        # copies, not views: a view would pin the pre-compact arrays
        self._window = self._window[d:].copy()
        self._prev = self._prev[d:] - d
        self._reuse = self._reuse[d:].copy()
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
    """:func:`repro.paging.engine.run_box` over a kernel.

    Same contract, same validation, bit-identical :class:`BoxRun`.
    ``start`` is a global position: a sequence position for a
    :class:`SequenceKernel`, a stream position at or after
    :attr:`StreamKernel.base` for a :class:`StreamKernel`.
    """
    if start < 0:
        raise ValueError(f"box start must be >= 0, got {start}")
    if height < 1:
        raise ValueError(f"box height must be >= 1, got {height}")
    if miss_cost <= 1:
        raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
    return kernel.box(int(start), int(height), int(budget), int(miss_cost))


#: A kernel is its own box walk: ``kernel(start, height, budget,
#: miss_cost)`` is :func:`run_box_fast` over it, with no extra frame.
_KernelOps.__call__ = run_box_fast


def _tier_kernel(seq: np.ndarray, key: Optional[Hashable] = None) -> Optional[SequenceKernel]:
    """:func:`get_kernel`, or ``None`` under ``REPRO_KERNEL=reference``."""
    return None if _requested_tier() == "reference" else get_kernel(seq, key=key)


def box_walk(seq: np.ndarray, key: Optional[Hashable] = None) -> Callable[[int, int, int, int], BoxRun]:
    """The tier's box walk over ``seq``: ``walk(start, height, budget, miss_cost)``.

    The cached :class:`SequenceKernel` (:func:`get_kernel`, with the same
    ``key``), which is callable as :func:`run_box_fast` over itself; under
    ``REPRO_KERNEL=reference``, the dict-LRU
    :func:`~repro.paging.engine.run_box` bound to ``seq``.  Both validate
    their arguments and return bit-identical :class:`BoxRun` values, so a
    caller runs every box through the one walk it gets here.
    """
    kern = _tier_kernel(seq, key)
    return partial(run_box, seq) if kern is None else kern


def ladder_ends(
    seq: np.ndarray, heights: Tuple[int, ...], budgets: Tuple[int, ...], miss_cost: int
) -> Callable[[int], List[int]]:
    """The tier's box endpoints for the offline DP: ``ends(start)`` lists
    where a cold box of each ladder height, with its budget, stops.

    :meth:`SequenceKernel.ladder_plan`'s blocked passes (same
    preconditions), or under ``REPRO_KERNEL=reference`` one dict-LRU
    :func:`~repro.paging.engine.run_box` per height.
    """
    kern = _tier_kernel(seq)
    if kern is not None:
        return kern.ladder_plan(heights, budgets, miss_cost).ends
    ladder = tuple(zip(heights, budgets))
    return lambda start: [run_box(seq, start, h, b, miss_cost).end for h, b in ladder]


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
