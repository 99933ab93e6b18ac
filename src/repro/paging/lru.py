"""O(1) LRU cache on :class:`collections.OrderedDict`.

The static-partition baselines and GLOBAL-LRU's python loops call
``touch`` once per simulated request, so ``touch`` must be strictly O(1)
with no per-request allocation.  It is not GLOBAL-LRU's hot path on the
default, native kernel tier: there a compiled copy of this cache in
:mod:`repro.paging._native` serves the requests, counting hits, faults
and evictions exactly as ``touch`` does.

The recency order lives in an ``OrderedDict`` keyed by page, least recently
used first: a hit is one C-level ``move_to_end``, an eviction one
``popitem(last=False)``.  An intrusive Python linked list (the previous
implementation) spent several attribute stores per hit to do the same;
iterating the dict still gives the residency snapshots and the recency
order that the stack-distance cross-checks in tests read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from .policies import register_policy

__all__ = ["LRUCache"]


@register_policy("lru")
class LRUCache:
    """Least-recently-used cache of at most ``capacity`` pages.

    ``touch`` returns ``True`` for a hit and ``False`` for a fault; faults
    admit the page, evicting the least-recently-used resident when the
    cache is full.

    Parameters
    ----------
    capacity:
        Maximum number of resident pages; must be >= 1.  (A zero-capacity
        cache would make every request a fault with nothing to evict; the
        paging model never produces one because box heights are >= 1.)
    """

    __slots__ = ("capacity", "_map", "hits", "faults", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._map: "OrderedDict[int, None]" = OrderedDict()  # LRU first
        self.hits = 0
        self.faults = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # policy protocol
    # ------------------------------------------------------------------ #
    def touch(self, page: int) -> bool:
        """Serve one request; return True on hit, False on fault."""
        resident = self._map
        if page in resident:
            resident.move_to_end(page)
            self.hits += 1
            return True
        self.faults += 1
        if len(resident) >= self.capacity:
            resident.popitem(last=False)
            self.evictions += 1
        resident[page] = None
        return False

    def peek_victim(self) -> Optional[int]:
        """Page that would be evicted next (LRU end), or None if empty."""
        return next(iter(self._map), None)

    def __contains__(self, page: int) -> bool:
        return page in self._map

    def __len__(self) -> int:
        return len(self._map)

    def clear(self) -> None:
        """Empty the cache (compartmentalized cold start); keeps counters."""
        self._map.clear()

    def reset_counters(self) -> None:
        """Zero the hit/fault/eviction counters without touching contents."""
        self.hits = self.faults = self.evictions = 0

    def pages_mru_order(self) -> List[int]:
        """Resident pages, most-recently-used first (for tests/inspection)."""
        return list(reversed(self._map))

    def __iter__(self) -> Iterator[int]:
        return iter(self.pages_mru_order())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRUCache(capacity={self.capacity}, size={len(self)}, hits={self.hits}, faults={self.faults})"
