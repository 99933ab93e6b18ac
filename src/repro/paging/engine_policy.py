"""Box execution under arbitrary replacement policies.

The paper's WLOG fixes LRU inside boxes (within O(1), nothing better is
possible online), and the hot path :func:`repro.paging.engine.run_box`
hard-codes it.  This module provides the *general* form for substrate
experiments and tests:

* :func:`run_box_policy` — run a box with any
  :class:`~repro.paging.policies.ReplacementPolicy` (FIFO, marking,
  randomized MARK, …);
* :func:`run_box_min` — run a box with Belady's MIN *inside the box*
  (offline-optimal replacement given the box's cold start and budget),
  which upper-bounds how much any replacement policy could gain within
  the compartmentalized model.

The differential tests use these to quantify the LRU-vs-MIN in-box gap
(a constant; that constant is part of the O(1) the WLOG absorbs).
"""

from __future__ import annotations

import heapq
from typing import Dict, List

import numpy as np

from .belady import next_use_indices
from .engine import BoxRun
from .policies import ReplacementPolicy

__all__ = ["run_box_policy", "run_box_min"]


def run_box_policy(
    seq: np.ndarray,
    start: int,
    policy: ReplacementPolicy,
    budget: int,
    miss_cost: int,
) -> BoxRun:
    """Execute requests in a box managed by ``policy`` (fresh/cleared).

    Semantics identical to :func:`repro.paging.engine.run_box` except the
    replacement decisions come from ``policy``.  The policy is cleared
    first (compartmentalized cold start).
    """
    if miss_cost <= 1:
        raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
    policy.clear()
    n = len(seq)
    pos = start
    t = 0
    hits = 0
    faults = 0
    mc = int(miss_cost)
    while pos < n:
        page = int(seq[pos])
        if page in policy:
            if t + 1 > budget:
                break
            policy.touch(page)
            t += 1
            hits += 1
        else:
            if t + mc > budget:
                break
            policy.touch(page)
            t += mc
            faults += 1
        pos += 1
    return BoxRun(
        start=start,
        end=pos,
        hits=hits,
        faults=faults,
        time_used=t,
        budget=int(budget),
        height=policy.capacity,
    )


def run_box_min(
    seq: np.ndarray,
    start: int,
    height: int,
    budget: int,
    miss_cost: int,
) -> BoxRun:
    """Execute a box with Belady's MIN replacement (cold start).

    "Next use" is computed over the *entire remaining sequence* (the
    offline algorithm sees the future beyond the box), which only makes
    MIN stronger — exactly what an upper-bound comparator should be.

    O(m log m) in the number of requests served.
    """
    if height < 1:
        raise ValueError(f"box height must be >= 1, got {height}")
    if miss_cost <= 1:
        raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
    n = len(seq)
    mc = int(miss_cost)
    # next uses over the whole suffix, in global positions ("never" is n)
    nxt = next_use_indices(seq[start:]) + start
    resident: Dict[int, int] = {}
    heap: List = []
    pos = start
    t = 0
    hits = 0
    faults = 0
    while pos < n:
        page = int(seq[pos])
        nu = int(nxt[pos - start])
        if page in resident:
            if t + 1 > budget:
                break
            t += 1
            hits += 1
        else:
            if t + mc > budget:
                break
            t += mc
            faults += 1
            if len(resident) >= height:
                while True:
                    neg, victim = heapq.heappop(heap)
                    if resident.get(victim) == -neg:
                        del resident[victim]
                        break
        resident[page] = nu
        heapq.heappush(heap, (-nu, page))
        pos += 1
    return BoxRun(
        start=start,
        end=pos,
        hits=hits,
        faults=faults,
        time_used=t,
        budget=int(budget),
        height=int(height),
    )
