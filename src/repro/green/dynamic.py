"""Green paging with time-varying thresholds (§2's closing remark, §4).

The basic green-paging problem fixes the permitted cache range ``[k/p, k]``.
Section 4 needs the generalization where the thresholds evolve: when a
green source is used inside a parallel scheduler, the minimum sensible
allocation grows as sequences complete ("when v sequences remain
uncompleted, an extra factor 2 of resource augmentation allows each
sequence to receive k/v memory at all times"), and the paper handles this
by **rebooting** the green algorithm whenever the minimum threshold
doubles — "so that it is always effectively running with fixed thresholds".

This module implements that machinery as a first-class object:

* :class:`ThresholdSchedule` — a piecewise-constant map from wall-clock
  time to a :class:`~repro.core.box.HeightLattice`;
* :func:`survivor_schedule` — the §4 pattern: the minimum threshold
  doubles at each given halving time;
* :class:`DynamicGreen` — runs any green source factory across a
  schedule, rebooting the source whenever a box would *start* in a new
  segment (in-flight boxes finish; heights are always legal for the
  lattice active at their start, matching the paper's convention).

The black-box parallel construction (:class:`repro.core.black_box.BlackBoxPar`)
contains a specialized inline version of the same reboot logic driven by
live completions; this standalone form exists so the mechanism can be
tested and studied in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.box import BoxProfile, HeightLattice
from ..core.det_green import DetGreen
from ..core.rand_green import GreenRunResult
from ..paging.engine import BoxRun, ProfileRun, _record_profile_metrics
from ..paging.kernel import box_walk

__all__ = ["ThresholdSchedule", "survivor_schedule", "DynamicGreen"]

#: A green source factory: lattice -> infinite iterator of box heights.
SourceFactory = Callable[[HeightLattice], Iterator[int]]


@dataclass(frozen=True)
class ThresholdSchedule:
    """Piecewise-constant threshold schedule: ``segments[i]`` is
    ``(start_time, lattice)``; the first must start at 0 and starts must be
    strictly increasing."""

    segments: Tuple[Tuple[int, HeightLattice], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if self.segments[0][0] != 0:
            raise ValueError("first segment must start at time 0")
        starts = [t for t, _ in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")

    def lattice_at(self, t: int) -> HeightLattice:
        """The lattice governing a box that starts at time ``t``."""
        current = self.segments[0][1]
        for start, lattice in self.segments:
            if start <= t:
                current = lattice
            else:
                break
        return current

    def segment_index_at(self, t: int) -> int:
        """Index of the segment governing time ``t``."""
        idx = 0
        for i, (start, _) in enumerate(self.segments):
            if start <= t:
                idx = i
            else:
                break
        return idx

    @classmethod
    def constant(cls, lattice: HeightLattice) -> "ThresholdSchedule":
        return cls(segments=((0, lattice),))


def survivor_schedule(k: int, p: int, halving_times: Sequence[int]) -> ThresholdSchedule:
    """The §4 reboot pattern: survivors halve at each given time, so the
    minimum threshold ``k/v`` doubles (the lattice shrinks by one level).

    ``halving_times`` must be strictly increasing and positive; after
    ``len(halving_times)`` halvings the lattice bottoms out at ``[k, k]``.
    """
    segments: List[Tuple[int, HeightLattice]] = [(0, HeightLattice(k, p))]
    v = p
    for t in halving_times:
        if t <= segments[-1][0]:
            raise ValueError("halving times must be strictly increasing and positive")
        v = max(1, v // 2)
        segments.append((int(t), HeightLattice(k, v)))
        if v == 1:
            break
    return ThresholdSchedule(segments=tuple(segments))


def _det_green_factory(lattice: HeightLattice) -> Iterator[int]:
    # miss_cost is irrelevant for DET-GREEN's emitted heights; use a dummy
    return DetGreen(lattice, miss_cost=2).boxes()


class DynamicGreen:
    """Green paging under a time-varying threshold schedule.

    Parameters
    ----------
    schedule:
        The active thresholds over time.
    miss_cost:
        Fault service time ``s > 1``.
    source_factory:
        Builds a fresh height stream per segment (rebooted at boundaries);
        defaults to DET-GREEN.
    """

    def __init__(
        self,
        schedule: ThresholdSchedule,
        miss_cost: int,
        source_factory: Optional[SourceFactory] = None,
    ) -> None:
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.schedule = schedule
        self.miss_cost = int(miss_cost)
        self.source_factory = source_factory or _det_green_factory

    def run(self, seq: np.ndarray, max_boxes: Optional[int] = None) -> GreenRunResult:
        """Service ``seq``; reboot the source when a box starts in a new
        segment.  ``meta``-like details land in the returned run's boxes:
        each box's height is legal for the lattice at its start time."""
        s = self.miss_cost
        pos = 0
        t = 0
        n = len(seq)
        runs: List[BoxRun] = []
        impact = 0
        wall = 0
        seg_idx = self.schedule.segment_index_at(0)
        source = self.source_factory(self.schedule.segments[seg_idx][1])
        walk = box_walk(seq)
        while pos < n:
            if max_boxes is not None and len(runs) >= max_boxes:
                break
            now_idx = self.schedule.segment_index_at(t)
            if now_idx != seg_idx:
                seg_idx = now_idx
                source = self.source_factory(self.schedule.segments[seg_idx][1])
            h = int(next(source))
            box = walk(pos, h, s * h, s)
            runs.append(box)
            impact += s * h * h
            wall += s * h
            t += s * h
            pos = box.end
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
