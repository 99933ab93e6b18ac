"""Belady's MIN: the offline-optimal replacement policy for a fixed cache.

On a fault with a full cache, MIN evicts the resident page whose next use is
furthest in the future (never-used-again pages first).  Belady [1966] proved
this minimizes faults for a single sequence and a fixed cache size; we rely
on it throughout :mod:`repro.parallel.opt` to build *certified lower bounds*
on the optimal parallel makespan (a processor running alone with the full
cache and MIN replacement can never be slower than it is under any parallel
OPT with the same cache).

Implementation notes
--------------------
The whole sequence is required up front (the policy is offline).
:func:`next_use_indices` gives, for every position ``i``, the index of
the next request to the same page (``n`` meaning "never again") from one
stable argsort: equal pages sit side by side in position order.

:func:`belady_faults` (and through it :func:`min_service_time`, every
certified lower bound of :mod:`repro.parallel.opt`, the fairness report
and the best static partition) runs as one compiled call on the native
kernel tier (``repro_min_run`` in :mod:`repro.paging._native`): a
backward pass over an open-addressing page table finds the next uses,
and a forward pass keeps the resident pages in a max-heap keyed by next
use, in O(n log n).  On the numpy tier (``REPRO_KERNEL=fast`` or
``reference``, or no compiler) it runs :class:`BeladySimulation`, which
is also the step-through API and the oracle the compiled count is held
to.  That python loop keeps a lazy max-heap of ``(-next_use, page)``
entries; stale entries (from pages whose next use was updated or that
were already evicted) are discarded on pop, giving O(n log n) total.
Next uses are distinct positions except "never", and which never-again
page goes first does not change the count, so both tiers return the
same fault count exactly.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .kernel import _active_native

__all__ = ["next_use_indices", "belady_faults", "BeladySimulation", "min_service_time"]


def next_use_indices(requests: Sequence[int]) -> np.ndarray:
    """For each position i, index of the next request to the same page.

    Positions whose page never recurs get ``len(requests)`` (an "infinity"
    that compares correctly against every real index).

    A stable argsort lists each page's positions in order, so every
    position's successor in that order is its next use.
    """
    seq = np.asarray(requests, dtype=np.int64)
    n = len(seq)
    nxt = np.full(n, n, dtype=np.int64)
    order = np.argsort(seq, kind="stable")
    same = seq[order[1:]] == seq[order[:-1]]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


def _check_capacity(capacity: int) -> None:
    if capacity < 1:
        raise ValueError(f"Belady capacity must be >= 1, got {capacity}")


class BeladySimulation:
    """Step-through simulation of MIN on a fixed request sequence.

    Unlike the online policies this is not a :class:`ReplacementPolicy`:
    it owns its sequence (offline knowledge is the whole point) and is
    advanced with :meth:`step` or :meth:`run`.

    Attributes
    ----------
    faults, hits:
        Counters, valid after (partial) runs.
    resident:
        Mapping page -> next-use index of the *current* pending occurrence,
        maintained exactly (used by tests to validate the eviction rule).
    """

    def __init__(self, requests: Sequence[int], capacity: int) -> None:
        _check_capacity(capacity)
        self.requests = np.asarray(requests, dtype=np.int64)
        self.capacity = int(capacity)
        self.next_use = next_use_indices(self.requests)
        self.pos = 0
        self.faults = 0
        self.hits = 0
        self.resident: Dict[int, int] = {}
        # Max-heap via negated keys; entries are (-next_use, page) and may
        # be stale — an entry is current iff resident[page] == next_use.
        self._heap: List[Tuple[int, int]] = []

    def done(self) -> bool:
        """True once every request has been served."""
        return self.pos >= len(self.requests)

    def _evict_furthest(self) -> int:
        """Pop stale heap entries until a live one surfaces; evict it."""
        resident = self.resident
        heap = self._heap
        while True:
            neg_nu, victim = heapq.heappop(heap)
            if resident.get(victim) == -neg_nu:
                del resident[victim]
                return victim

    def step(self) -> bool:
        """Serve one request; return True on hit.  Raises at end of sequence."""
        if self.done():
            raise IndexError("Belady simulation already finished")
        i = self.pos
        page = int(self.requests[i])
        nxt = int(self.next_use[i])
        hit = page in self.resident
        if hit:
            self.hits += 1
        else:
            self.faults += 1
            if len(self.resident) >= self.capacity:
                self._evict_furthest()
        self.resident[page] = nxt
        heapq.heappush(self._heap, (-nxt, page))
        self.pos = i + 1
        return hit

    def run(self, limit: int | None = None) -> None:
        """Serve up to ``limit`` further requests (all remaining if None)."""
        end = len(self.requests) if limit is None else min(len(self.requests), self.pos + limit)
        requests = self.requests
        next_use = self.next_use
        resident = self.resident
        heap = self._heap
        capacity = self.capacity
        push = heapq.heappush
        pop = heapq.heappop
        hits = self.hits
        faults = self.faults
        i = self.pos
        while i < end:
            page = int(requests[i])
            nxt = int(next_use[i])
            if page in resident:
                hits += 1
            else:
                faults += 1
                if len(resident) >= capacity:
                    while True:
                        neg_nu, victim = pop(heap)
                        if resident.get(victim) == -neg_nu:
                            del resident[victim]
                            break
            resident[page] = nxt
            push(heap, (-nxt, page))
            i += 1
        self.pos = i
        self.hits = hits
        self.faults = faults


def belady_faults(requests: Sequence[int], capacity: int) -> int:
    """Minimum number of faults to serve ``requests`` with ``capacity`` pages.

    One compiled call on the native kernel tier, else a
    :class:`BeladySimulation` run; both give the same count.
    """
    _check_capacity(capacity)
    ops = _active_native()
    if ops is not None:
        return ops.min_faults(requests, capacity)
    sim = BeladySimulation(requests, capacity)
    sim.run()
    return sim.faults


def min_service_time(requests: Sequence[int], capacity: int, miss_cost: int) -> int:
    """Minimum time to serve ``requests`` alone with a fixed ``capacity`` cache.

    Hits cost 1 time unit, faults cost ``miss_cost`` units, and MIN
    minimizes faults, so this is ``hits + miss_cost * min_faults`` — the
    per-processor term of the makespan lower bound in
    :func:`repro.parallel.opt.makespan_lower_bound`.
    """
    n = len(requests)
    f = belady_faults(requests, capacity)
    return (n - f) + miss_cost * f
