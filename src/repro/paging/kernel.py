"""Reuse-distance box kernel: compiled :func:`run_box` over one precompute.

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
``budget`` — is then one compiled walk over the precomputed hit
predicate.  The offline green-paging DP alone probes the box engine
O(n · levels) times per solve, so the amortization is dramatic.

Two tiers produce bit-identical rows, selected by ``$REPRO_KERNEL``:

* ``native`` (alias ``compiled``, the default when unset) routes the
  reuse-distance sweep, the streaming window's append, the box service
  walk, the offline DP relaxation and the GLOBAL-LRU, DET-PAR, RAND-PAR
  and MIN loops through the cc-compiled primitives of
  :mod:`repro.paging._native`;
* ``reference`` (alias ``ref``) selects the python loops: the dict-LRU
  :func:`~repro.paging.engine.run_box` for boxes and DP endpoints, and
  the python loops of the parallel simulators and of MIN.  A host whose
  C compiler cannot build the library resolves to it too, so the python
  loops are both the no-compiler path and the oracle the compiled tier
  is held to.

This module picks the box walk for every caller: :func:`box_walk`
returns a kernel (a kernel is callable as :func:`run_box_fast` over
itself) or, on the reference tier, ``run_box`` bound to the sequence.
Each job has one path per tier, and no caller builds a kernel on the
reference tier: the kernels below exist only on the compiled tier.  A
box is one compiled walk (:meth:`_KernelOps.box`), and the offline DP
runs compiled as a whole (:func:`native_dp_solve`).

Two kernel flavors:

* :class:`SequenceKernel` — whole sequence in memory, built once, shared
  through the LRU-bounded module cache (:func:`get_kernel`, keyed by
  array identity or an explicit content digest).  It is the one-column
  case of the compiled multi-column sweep (``NativeOps.sweep_columns``),
  whose per-row step the streaming window's append shares, so the
  compiled tier has one reuse-distance sweep; a streamed run sweeps a
  trace store's single-chunk columns through the same entry;
* :class:`StreamKernel` — incremental: chunks are appended as a stream
  delivers them and the swept prefix is compacted away as execution
  passes it, so bounded-memory streaming keeps bounded memory.  Its
  window lives in one block it owns and grows, which the box probe and
  the compiled DET-PAR and RAND-PAR loops read in place.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from functools import partial
from typing import Callable, Hashable, Optional, Tuple

import numpy as np

from ._native import address, native_flavor, native_ops
from .engine import BoxRun, run_box

__all__ = [
    "SequenceKernel",
    "StreamKernel",
    "run_box_fast",
    "box_walk",
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

#: Header words of the streaming window block (layout on
#: ``repro_stream_append`` in :mod:`repro.paging._native`), and the least
#: log2 of its first page table's slots (an eighth of the first chunk's
#: rows, at least); the table doubles as distinct pages arrive.
_WIN_HEADER = 7
_WIN_TABLE_BITS = 6


def _requested_tier() -> str:
    """``$REPRO_KERNEL`` normalized to ``native``/``reference``.

    The one place the unset default lives: :func:`kernel_backend` and
    :func:`_active_native` both read it, so the tier that is reported is
    the tier that runs.
    """
    value = os.environ.get(KERNEL_ENV, "").strip().lower() or "native"
    if value in ("native", "compiled"):
        return "native"
    if value in ("reference", "ref"):
        return "reference"
    raise ValueError(f"unknown {KERNEL_ENV} backend {value!r}; expected 'native' or 'reference'")


def kernel_backend() -> str:
    """The active box-engine backend: ``"native"`` (default) or ``"reference"``.

    Controlled by ``$REPRO_KERNEL``.  Both backends produce bit-identical
    :class:`~repro.paging.engine.BoxRun` values; the python loops of
    ``reference`` are the cross-check oracle and the escape hatch, and
    ``native`` routes the inner loops through :mod:`repro.paging._native`.
    When ``native`` is requested (or ``$REPRO_KERNEL`` is unset) but the
    compiled library is unavailable (no usable C compiler), this
    resolves to ``"reference"``: the python loops run, never an error.
    """
    tier = _requested_tier()
    if tier == "native" and native_ops() is None:
        return "reference"
    return tier


def _active_native():
    """The compiled primitives when the tier resolves to native, else None.

    Every caller that has a compiled and a python path branches on this
    once per run, server or kernel.  A kernel cached on the native tier
    stays correct if ``$REPRO_KERNEL`` flips to ``reference`` afterwards;
    the callers simply stop asking for it.
    """
    return native_ops() if _requested_tier() == "native" else None


def _compiled():
    """:func:`_active_native`, or a ``RuntimeError`` naming the tier: the
    kernels exist only on the compiled tier."""
    ops = _active_native()
    if ops is None:
        raise RuntimeError(
            f"reuse-distance kernels need the compiled tier, and {KERNEL_ENV} "
            f"resolves to {kernel_backend()!r}"
        )
    return ops


class _KernelOps:
    """The one box walk over ``prev_occ``/``reuse_dist``, compiled.

    Subclasses provide ``base`` (the global index of the first retained
    row), ``_ops`` (the compiled primitives) and the compiled probe's view
    of their columns: ``_pp``/``_rp`` (column addresses), ``_origin``
    (global position of column row 0) and ``_stop`` (one past the last
    column row); the columns hold *global* previous-occurrence positions.
    Only the window base is checked here: callers either go through
    :func:`run_box_fast` (which validates like the reference) or pass
    pre-validated arguments (the box server).
    """

    _n: int
    _ops: object
    _pp: int
    _rp: int
    _origin: int
    _stop: int
    base: int

    def box(self, start: int, height: int, budget: int, miss_cost: int) -> BoxRun:
        """Full :class:`BoxRun` for one box from global position ``start``.

        The walk runs compiled, with no length cutoff: the compiled loop
        is O(served) at C speed.
        """
        if start < self.base:
            raise ValueError(f"box start {start} precedes retained window base {self.base}")
        served, hits, t = self._ops.box_probe(
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


class SequenceKernel(_KernelOps):
    """Per-sequence reuse-distance precompute for the compiled box walk.

    Construction computes ``prev_occ``/``reuse_dist`` once, as the
    one-column case of ``NativeOps.sweep_columns``; every box afterwards
    is one :meth:`box` walk over them.  Instances are immutable in
    spirit — share them freely across boxes, heights, algorithms, and DP
    solves on the same sequence (see :func:`get_kernel`).  Compiled tier
    only: construction raises ``RuntimeError`` on the reference tier.
    """

    __slots__ = ("seq", "_prev", "_reuse", "_n", "_ops", "_pp", "_rp", "_stop")

    #: Sequence coordinates are the window's coordinates.
    base = 0
    _origin = 0

    def __init__(self, seq: np.ndarray) -> None:
        arr = np.ascontiguousarray(seq, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"sequence must be 1-D, got shape {arr.shape}")
        self.seq = seq if isinstance(seq, np.ndarray) else arr
        self._ops = ops = _compiled()
        self._n = n = len(arr)
        self._prev, self._reuse = ops.sweep_columns(arr, (0,), (n,))
        self._bind()

    def _bind(self) -> None:
        """Cache the compiled probe's view of the (immutable) columns."""
        self._stop = self._n
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
        kernel in O(1) instead of re-running the precompute; and by a
        streamed box server, over a column's rows in its arena.  The
        arrays are trusted to match what ``__init__`` would produce for
        ``seq``.
        """
        self = cls.__new__(cls)
        self.seq = seq
        self._ops = _compiled()
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
    improvement) — on the native tier, over ``seq``'s cached kernel;
    ``None`` on the reference tier, where the caller runs its own sweep
    over dict-LRU endpoints.  Hoisting the relaxation loop itself (not
    just the endpoint probes) is what buys the DP arm its headroom: at
    typical experiment sizes the python ``zip`` loop costs as much as
    the probes.
    """
    kernel = _tier_kernel(seq)
    if kernel is None:
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
    kernel._ops.dp_solve(
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

    The window lives in buffers the kernel owns and grows — page, prev
    and reuse columns, a Fenwick tree and a page table, laid out on
    ``repro_stream_append`` — and :meth:`append` is one compiled call
    doing O(chunk) work, amortized: it moves the retained rows to the
    front only when the chunk does not fit behind them, which the
    compactions before it pay for, and :meth:`compact` only moves the
    window's start, in O(1).  The columns hold global
    previous-occurrence positions, so :meth:`box` probes the buffers in
    place, and :meth:`window` hands them to the compiled DET-PAR and
    RAND-PAR loops.  Compiled tier only: construction raises
    ``RuntimeError`` on the reference tier.

    Local coordinates: position 0 is the oldest retained request;
    ``base`` is its global stream index.  Boxes must start at or after
    ``base``.
    """

    __slots__ = ("_n", "base", "_ops", "_buf", "_addr", "_pp", "_rp", "_origin", "_stop", "_sealed")

    def __init__(self) -> None:
        self._ops = _compiled()
        self._n = 0
        self.base = 0
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
        """The retained rows of column ``c`` (0 prev, 1 reuse, 2 page) of
        the window block."""
        buf = self._buf
        off, cap = int(buf[1]), int(buf[3])
        lo = _WIN_HEADER + c * cap + off
        return buf[lo : lo + self._n]

    @property
    def prev_occ(self) -> np.ndarray:
        """Previous-occurrence offset per retained row, in local
        coordinates; negative when no retained row is its previous
        occurrence."""
        return self._column(0) - self.base

    @property
    def reuse_dist(self) -> np.ndarray:
        """Distinct pages since the previous occurrence, per retained row."""
        return self._column(1).copy()

    def window(self) -> Tuple[int, int, int, int]:
        """The compiled loops' view of the block, as four ints.

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

    def seal(self) -> None:
        """Declare that the stream has ended: no chunk follows.

        This drops the page column, tree and table, which only appends
        read, and keeps the prev and reuse columns that boxes probe.
        """
        if self._sealed:
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
        """Forget everything before global position ``upto``, in O(1):
        the next append that needs the room reclaims it.

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
        self._buf[1] += d
        self._buf[2] -= d


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
    """:func:`get_kernel` on the native tier, else ``None``."""
    return None if _active_native() is None else get_kernel(seq, key=key)


def box_walk(seq: np.ndarray, key: Optional[Hashable] = None) -> Callable[[int, int, int, int], BoxRun]:
    """The tier's box walk over ``seq``: ``walk(start, height, budget, miss_cost)``.

    On the native tier, the cached :class:`SequenceKernel`
    (:func:`get_kernel`, with the same ``key``), which is callable as
    :func:`run_box_fast` over itself; on the reference tier, the dict-LRU
    :func:`~repro.paging.engine.run_box` bound to ``seq``.  Both validate
    their arguments and return bit-identical :class:`BoxRun` values, so a
    caller runs every box through the one walk it gets here.
    """
    kern = _tier_kernel(seq, key)
    return partial(run_box, seq) if kern is None else kern


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
