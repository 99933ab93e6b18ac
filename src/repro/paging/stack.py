"""Mattson stack distances and miss-ratio curves for LRU.

LRU has the *inclusion property*: the contents of an LRU cache of size c
are always a subset of the contents of an LRU cache of size c+1 processing
the same sequence.  Mattson et al. [IBM Sys. J. 1970] observed that a single
pass therefore suffices to compute LRU fault counts for *every* cache size
at once: the *stack distance* of a request is the number of distinct pages
referenced since the previous request to the same page (inclusive of the
page itself), and a request hits in a cache of size c iff its stack
distance is <= c.

The stack distance of a warm request is its reuse distance plus one, so
on the native kernel tier :func:`stack_distances` reads it off the box
kernel's :class:`~repro.paging.kernel.SequenceKernel`: one compiled
reuse-distance sweep serves the box engine and these curves alike.  On
the reference tier (and on a host without a C compiler) it runs the
same deletion-form Fenwick sweep in python.  :class:`Fenwick` stays
public for the streaming
:class:`~repro.workloads.stats.ReuseDistanceTracker`.

These curves power workload characterization in the examples, the
marginal-benefit discussion of the paper's introduction (non-monotonic
benefit of extra cache), and cheap sanity oracles in tests (LRU fault
counts for all capacities at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .kernel import SequenceKernel, _active_native

__all__ = ["Fenwick", "stack_distances", "MissRatioCurve", "miss_ratio_curve", "lru_faults_all_sizes"]


class Fenwick:
    """Fenwick tree over ``n`` positions supporting point add / prefix sum.

    1-indexed internally; the public API is 0-indexed.
    """

    __slots__ = ("n", "_tree")

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._tree = np.zeros(self.n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` at 0-indexed position ``i``."""
        tree = self._tree
        j = i + 1
        n = self.n
        while j <= n:
            tree[j] += delta
            j += j & (-j)

    def prefix_sum(self, i: int) -> int:
        """Sum of positions ``0..i`` inclusive (0-indexed); -1 gives 0."""
        tree = self._tree
        j = i + 1
        total = 0
        while j > 0:
            total += int(tree[j])
            j -= j & (-j)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of positions ``lo..hi`` inclusive; empty ranges give 0."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - (self.prefix_sum(lo - 1) if lo > 0 else 0)


def stack_distances(requests: Sequence[int]) -> np.ndarray:
    """LRU stack distance of every request; 0 denotes a cold (first) access.

    A request with distance d >= 1 hits in any LRU cache of capacity >= d.
    Cold accesses miss at every capacity, encoded as 0 here (callers treat
    0 as "infinite distance"; 0 is unambiguous because true distances are
    always >= 1).

    O(n log n) time, O(n) space.  On the native tier the kernel is built
    afresh, not taken from the kernel cache, so profiling a sequence pins
    no memory.
    """
    seq = np.asarray(requests, dtype=np.int64)
    if _active_native() is not None:
        kern = SequenceKernel(seq)
        return np.where(kern.prev_occ >= 0, kern.reuse_dist, -1) + 1
    return np.asarray(_fenwick_distances(seq.tolist()), dtype=np.int64)


def _fenwick_distances(seq: List[int]) -> List[int]:
    """:func:`stack_distances` by a python Fenwick sweep in deletion form:
    position ``j`` is marked once its page recurs, so the distinct pages
    between an occurrence pair are the gap's length minus the marks
    inside it, plus the page itself (tree work only on warm requests)."""
    n = len(seq)
    tree = [0] * (n + 1)
    last: Dict[int, int] = {}
    out = [0] * n
    for i, page in enumerate(seq):
        j = last.get(page, -1)
        last[page] = i
        if j < 0:
            continue
        acc = i - j  # gap length plus one, minus marks in (j, i):
        x = i  # marked in 1-indexed prefix [1, i] = positions < i
        while x > 0:
            acc -= tree[x]
            x -= x & -x
        x = j + 1  # add back the marks at positions <= j
        while x > 0:
            acc += tree[x]
            x -= x & -x
        out[i] = acc
        x = j + 1  # j is no longer its page's latest occurrence
        while x <= n:
            tree[x] += 1
            x += x & -x
    return out


@dataclass(frozen=True)
class MissRatioCurve:
    """LRU miss counts for every cache capacity, from one profiling pass.

    Attributes
    ----------
    faults:
        ``faults[c]`` = number of LRU faults with capacity ``c`` for
        ``c in 1..max_capacity`` (index 0 is unused and set to ``n``).
    n:
        Sequence length.
    cold:
        Number of cold (compulsory) misses = number of distinct pages.
    """

    faults: np.ndarray
    n: int
    cold: int

    def miss_ratio(self, capacity: int) -> float:
        """Fraction of requests that miss with the given LRU capacity."""
        c = min(int(capacity), len(self.faults) - 1)
        if c < 1:
            raise ValueError("capacity must be >= 1")
        return float(self.faults[c]) / self.n if self.n else 0.0

    def fault_count(self, capacity: int) -> int:
        """LRU fault count at the given capacity (clamped above max)."""
        c = min(int(capacity), len(self.faults) - 1)
        if c < 1:
            raise ValueError("capacity must be >= 1")
        return int(self.faults[c])


def miss_ratio_curve(requests: Sequence[int], max_capacity: int | None = None) -> MissRatioCurve:
    """Compute the full LRU miss-ratio curve in one pass.

    ``faults[c] = cold + #{i : distance_i > c}`` by the inclusion property.
    """
    reqs = np.asarray(requests, dtype=np.int64)
    n = len(reqs)
    dists = stack_distances(reqs)
    cold = int(np.count_nonzero(dists == 0))
    warm = dists[dists > 0]
    max_cap = int(max_capacity) if max_capacity is not None else (int(warm.max()) if len(warm) else 1)
    max_cap = max(max_cap, 1)
    # histogram of warm distances clipped to max_cap+1 (anything beyond
    # max_cap misses at every tracked capacity)
    clipped = np.minimum(warm, max_cap + 1)
    hist = np.bincount(clipped, minlength=max_cap + 2)
    # hits_at_or_below[c] = # warm requests with distance <= c
    hits_cum = np.cumsum(hist)
    faults = np.empty(max_cap + 1, dtype=np.int64)
    faults[0] = n
    for c in range(1, max_cap + 1):
        faults[c] = cold + (len(warm) - int(hits_cum[c]))
    return MissRatioCurve(faults=faults, n=n, cold=cold)


def lru_faults_all_sizes(requests: Sequence[int], capacities: Sequence[int]) -> Dict[int, int]:
    """LRU fault count for each requested capacity, via one profiling pass."""
    curve = miss_ratio_curve(requests, max_capacity=max(capacities) if len(capacities) else 1)
    return {int(c): curve.fault_count(int(c)) for c in capacities}
