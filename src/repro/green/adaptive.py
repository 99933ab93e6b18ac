"""Adaptive green paging: probe-ladder with exponential backoff (§4's "greedy").

RAND-GREEN and DET-GREEN are *oblivious* — their box streams ignore the
request sequence.  Section 4's Definition 1, however, covers *greedily
competitive* algorithms in general, which may observe their own hits and
misses (but not the future).  This module implements the natural adaptive
member of that class, used as an extra comparator in tests and examples.

Policy (a ladder of probe episodes):

* **cruise** — while the current box produces hits (the working set fits),
  stay; if its fault-time fraction drops very low, descend one level (the
  working set shrank).
* **ascend** — a thrashing box (almost all time on faults) triggers an
  ascent episode: climb one level per box until either some level starts
  hitting (lock there; the episode *succeeded*) or the top level still
  thrashes (the sequence is unhelpable right now — e.g. a scan).
* **backoff** — after a failed ascent, drop back to the minimum height and
  wait an exponentially growing number of boxes before probing again.
  The geometric ladder makes each episode cost O(s·k²) and the doubling
  backoff keeps total probe waste within a constant factor of the
  minimum-box baseline over long runs.

This is greedily green in Definition 1's sense up to the probe waste; the
oblivious algorithms remain the paper's objects of study — this class
exists to quantify what adaptivity buys on stable working sets (it locks
onto the right height and stops paying the log p tax) and what it cannot
buy on adversarial phase changes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.box import BoxProfile, HeightLattice
from ..core.rand_green import GreenRunResult
from ..paging.engine import BoxRun, ProfileRun, _record_profile_metrics
from ..paging.kernel import box_walk

__all__ = ["AdaptiveGreen"]


class AdaptiveGreen:
    """Progress-adaptive online green paging (probe ladder + backoff).

    Parameters
    ----------
    lattice:
        Permitted heights ``[k/p, k]``.
    miss_cost:
        Fault service time ``s > 1``.
    thrash_fraction:
        A box whose fault time exceeds this fraction of its service time
        counts as thrashing (default 0.9).
    descend_fraction:
        A box whose fault-time fraction is below this is oversized ->
        descend one level (default 0.25).
    """

    def __init__(
        self,
        lattice: HeightLattice,
        miss_cost: int,
        thrash_fraction: float = 0.9,
        descend_fraction: float = 0.25,
    ) -> None:
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        if not (0.0 <= descend_fraction < thrash_fraction <= 1.0):
            raise ValueError("need 0 <= descend_fraction < thrash_fraction <= 1")
        self.lattice = lattice
        self.miss_cost = int(miss_cost)
        self.thrash = float(thrash_fraction)
        self.descend = float(descend_fraction)

    def run(self, seq: np.ndarray, max_boxes: Optional[int] = None) -> GreenRunResult:
        """Service ``seq`` to completion, adapting box heights to progress."""
        s = self.miss_cost
        heights = self.lattice.heights
        top = self.lattice.levels - 1
        level = 0
        ascending = False
        backoff = 1  # boxes to wait after a failed ascent
        wait = 0  # boxes remaining before the next probe is allowed
        pos = 0
        n = len(seq)
        runs: List[BoxRun] = []
        impact = 0
        wall = 0
        walk = box_walk(seq)
        while pos < n:
            if max_boxes is not None and len(runs) >= max_boxes:
                break
            h = heights[level]
            box = walk(pos, h, s * h, s)
            runs.append(box)
            impact += s * h * h
            wall += s * h
            pos = box.end
            if pos >= n:
                break
            fault_frac = (s * box.faults) / max(1, box.time_used)
            thrashing = box.served == 0 or fault_frac >= self.thrash
            if ascending:
                if not thrashing:
                    ascending = False  # locked onto a useful height
                    backoff = 1
                elif level < top:
                    level += 1
                else:
                    # top level still thrashes: give up, back off at minimum
                    ascending = False
                    level = 0
                    wait = backoff
                    backoff *= 2
            elif thrashing:
                if wait > 0:
                    wait -= 1
                elif level < top:
                    ascending = True
                    level += 1
            elif fault_frac <= self.descend and level > 0:
                level -= 1
                backoff = 1
        _record_profile_metrics(runs, impact, wall)
        pr = ProfileRun(
            runs=tuple(runs),
            completed=pos >= n,
            position=pos,
            impact=impact,
            wall_time=wall,
        )
        return GreenRunResult(
            profile=BoxProfile(r.height for r in runs),
            impact=impact,
            wall_time=wall,
            run=pr,
        )
