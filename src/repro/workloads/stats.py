"""Workload characterization: the structure the scheduler must reason about.

The paper's introduction frames parallel paging's difficulty in terms of
per-processor *marginal benefit* of cache — non-monotonic in size,
fluctuating over time.  This module computes exactly those diagnostics
from a request sequence, powering the examples, the workload-design notes
in EXPERIMENTS.md, and sanity tests on the generators:

* reuse-distance (stack-distance) histograms and summary quantiles;
* working-set size over sliding windows (Denning's W(t, τ));
* pollution level (fraction of use-once pages — the §4 polluters);
* the marginal-benefit curve Δfaults(c→c+1) from the miss-ratio curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..paging.stack import Fenwick, miss_ratio_curve, stack_distances

__all__ = [
    "SequenceStats",
    "characterize",
    "characterize_chunks",
    "working_set_sizes",
    "pollution_level",
    "marginal_benefit",
    "ReuseDistanceTracker",
    "StreamingCharacterizer",
]


def working_set_sizes(requests: Sequence[int], window: int) -> np.ndarray:
    """Denning working-set sizes: distinct pages in each length-``window``
    sliding window (stride = window, i.e. tumbling, which is what the
    phase-structure diagnostics need).

    Fully vectorized: one stable lexsort over ``(window, page)`` pairs,
    then a boundary scan counts the first occurrence of each page within
    its window — no Python-level loop over windows.
    """
    reqs = np.asarray(requests, dtype=np.int64)
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(reqs)
    if n == 0:
        return np.asarray([], dtype=np.int64)
    win_idx = np.arange(n, dtype=np.int64) // window
    order = np.lexsort((reqs, win_idx))
    w_sorted = win_idx[order]
    r_sorted = reqs[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (w_sorted[1:] != w_sorted[:-1]) | (r_sorted[1:] != r_sorted[:-1])
    n_windows = int(win_idx[-1]) + 1
    return np.bincount(w_sorted[first], minlength=n_windows).astype(np.int64)


def pollution_level(requests: Sequence[int]) -> float:
    """Fraction of requests to pages used exactly once (§4's polluters)."""
    reqs = np.asarray(requests, dtype=np.int64)
    if len(reqs) == 0:
        return 0.0
    _, counts = np.unique(reqs, return_counts=True)
    return float((counts == 1).sum()) / len(reqs)


def marginal_benefit(requests: Sequence[int], max_capacity: int) -> np.ndarray:
    """``Δfaults[c] = faults(c) - faults(c+1)`` for c = 1..max_capacity-1.

    The marginal value of one more cache page under LRU.  Non-monotonic in
    general (e.g. cyclic workloads have a cliff at the cycle length) —
    the phenomenon the paper's introduction calls out.
    """
    curve = miss_ratio_curve(requests, max_capacity=max_capacity)
    faults = curve.faults[1 : max_capacity + 1].astype(np.int64)
    return faults[:-1] - faults[1:]


@dataclass(frozen=True)
class SequenceStats:
    """One-stop summary of a request sequence."""

    n_requests: int
    distinct_pages: int
    pollution: float
    reuse_median: float
    reuse_p90: float
    max_working_set: int
    mean_working_set: float

    def as_dict(self) -> Dict[str, object]:
        """Rounded dict form for table rendering."""
        return {
            "n_requests": self.n_requests,
            "distinct_pages": self.distinct_pages,
            "pollution": round(self.pollution, 3),
            "reuse_median": round(self.reuse_median, 1),
            "reuse_p90": round(self.reuse_p90, 1),
            "max_working_set": self.max_working_set,
            "mean_working_set": round(self.mean_working_set, 1),
        }


def characterize(requests: Sequence[int], window: int = 256) -> SequenceStats:
    """Compute a :class:`SequenceStats` summary (one pass per diagnostic)."""
    reqs = np.asarray(requests, dtype=np.int64)
    n = len(reqs)
    if n == 0:
        return SequenceStats(0, 0, 0.0, 0.0, 0.0, 0, 0.0)
    dists = stack_distances(reqs)
    warm = dists[dists > 0]
    ws = working_set_sizes(reqs, min(window, n))
    return SequenceStats(
        n_requests=n,
        distinct_pages=int(len(np.unique(reqs))),
        pollution=pollution_level(reqs),
        reuse_median=float(np.median(warm)) if len(warm) else 0.0,
        reuse_p90=float(np.percentile(warm, 90)) if len(warm) else 0.0,
        max_working_set=int(ws.max()),
        mean_working_set=float(ws.mean()),
    )


# --------------------------------------------------------------------- #
# streaming (chunked) characterization — shared with repro.traces readers
# --------------------------------------------------------------------- #
class ReuseDistanceTracker:
    """Streaming LRU stack distances in ``O(distinct pages)`` memory.

    :func:`~repro.paging.stack.stack_distances` sweeps arrays over *all*
    request positions — ``O(n)`` memory, fine in RAM, fatal for a trace
    that doesn't fit.  This tracker maintains the same counts over a
    Fenwick of *active* slots only (one per currently-tracked page),
    compacting the slot domain whenever appends outrun it.  Distances land
    in a histogram (distances are bounded by the distinct-page count), so
    exact quantiles come out of bounded state.
    """

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}  # page -> active slot
        self._cap = 1024
        self._tree = Fenwick(self._cap)
        self._next = 0  # next free slot
        self._active = 0
        self.cold = 0
        self._hist: Dict[int, int] = {}  # distance -> count

    def _compact(self) -> None:
        """Remap active slots to 0..d-1 and rebuild the Fenwick tree."""
        pages = list(self._last.keys())
        slots = np.asarray([self._last[p] for p in pages], dtype=np.int64)
        order = np.argsort(slots, kind="stable")
        self._cap = max(1024, 2 * len(pages))
        self._tree = Fenwick(self._cap)
        for rank, idx in enumerate(order.tolist()):
            self._last[pages[idx]] = rank
            self._tree.add(rank, 1)
        self._next = len(pages)
        self._active = len(pages)

    def push(self, page: int) -> None:
        """Observe one request."""
        last = self._last
        slot = last.get(page)
        if slot is None:
            self.cold += 1
        else:
            dist = self._active - self._tree.prefix_sum(slot) + 1
            self._hist[dist] = self._hist.get(dist, 0) + 1
            self._tree.add(slot, -1)
            self._active -= 1
            # drop the stale mapping so a compaction triggered below
            # cannot resurrect the slot we just vacated
            del last[page]
        if self._next >= self._cap:
            self._compact()
        self._tree.add(self._next, 1)
        last[page] = self._next
        self._next += 1
        self._active += 1

    def push_chunk(self, chunk: np.ndarray) -> None:
        """Observe a chunk of requests in order."""
        push = self.push
        for page in np.asarray(chunk, dtype=np.int64).tolist():
            push(page)

    def histogram(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, counts)`` of warm requests, distances ascending."""
        if not self._hist:
            return np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64)
        dists = np.asarray(sorted(self._hist), dtype=np.int64)
        counts = np.asarray([self._hist[int(d)] for d in dists], dtype=np.int64)
        return dists, counts

    def quantile(self, q: float) -> float:
        """Exact quantile of the warm-distance distribution.

        Replicates ``np.percentile(..., method="linear")`` — including its
        branch-dependent lerp rounding — so streaming results are
        bit-identical to the in-memory path.
        """
        dists, counts = self.histogram()
        total = int(counts.sum()) if len(counts) else 0
        if total == 0:
            return 0.0
        cum = np.cumsum(counts)

        def value_at(idx: int) -> float:
            return float(dists[int(np.searchsorted(cum, idx, side="right"))])

        virtual = q * (total - 1)
        lo = math.floor(virtual)
        hi = math.ceil(virtual)
        a = value_at(lo)
        b = value_at(hi)
        t = virtual - lo
        if t < 0.5:
            return a + (b - a) * t
        return b - (b - a) * (1 - t)


class StreamingCharacterizer:
    """Single-pass, bounded-memory :func:`characterize`.

    Feed request chunks in order via :meth:`update`; :meth:`finalize`
    returns a :class:`SequenceStats` equal (bit-for-bit) to
    ``characterize(np.concatenate(chunks), window)``.  Peak memory is
    ``O(distinct pages + window)`` — independent of trace length — which
    is what lets :mod:`repro.traces` characterize stores larger than RAM.
    """

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.n = 0
        self._page_counts: Dict[int, int] = {}
        self._tracker = ReuseDistanceTracker()
        self._cur_window: set = set()
        self._cur_fill = 0
        self._ws: List[int] = []

    def update(self, chunk: np.ndarray) -> None:
        """Consume the next chunk of the sequence."""
        arr = np.ascontiguousarray(chunk, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("chunks must be 1-D request arrays")
        if len(arr) == 0:
            return
        self.n += len(arr)
        pages, counts = np.unique(arr, return_counts=True)
        pc = self._page_counts
        for page, count in zip(pages.tolist(), counts.tolist()):
            pc[page] = pc.get(page, 0) + count
        self._tracker.push_chunk(arr)
        # tumbling windows across chunk boundaries
        pos = 0
        w = self.window
        while pos < len(arr):
            take = min(w - self._cur_fill, len(arr) - pos)
            seg = arr[pos : pos + take]
            self._cur_window.update(np.unique(seg).tolist())
            self._cur_fill += take
            pos += take
            if self._cur_fill == w:
                self._ws.append(len(self._cur_window))
                self._cur_window = set()
                self._cur_fill = 0

    def finalize(self) -> SequenceStats:
        """Summarize everything seen so far."""
        if self.n == 0:
            return SequenceStats(0, 0, 0.0, 0.0, 0.0, 0, 0.0)
        ws_list = list(self._ws)
        if self._cur_fill:
            ws_list.append(len(self._cur_window))
        ws = np.asarray(ws_list, dtype=np.int64)
        n_once = sum(1 for c in self._page_counts.values() if c == 1)
        warm_total = self.n - self._tracker.cold
        return SequenceStats(
            n_requests=self.n,
            distinct_pages=len(self._page_counts),
            pollution=float(n_once) / self.n,
            reuse_median=self._tracker.quantile(0.5) if warm_total else 0.0,
            reuse_p90=self._tracker.quantile(0.9) if warm_total else 0.0,
            max_working_set=int(ws.max()),
            mean_working_set=float(ws.mean()),
        )


def characterize_chunks(chunks: Iterable[np.ndarray], window: int = 256) -> SequenceStats:
    """Streaming :func:`characterize` over an iterable of request chunks.

    Equal to ``characterize(np.concatenate(list(chunks)), window)`` without
    ever materializing the concatenation; pair it with
    ``TraceStore.iter_chunks`` to characterize traces larger than RAM.
    """
    state = StreamingCharacterizer(window=window)
    for chunk in chunks:
        state.update(chunk)
    return state.finalize()
