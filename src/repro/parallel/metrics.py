"""Metrics over parallel-paging runs: ratios, utilization, summaries.

All experiments funnel through :func:`summarize`, so every table in the
benchmark harness reports the same quantities computed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .events import ParallelRunResult, capacity_profile
from .opt import MakespanLowerBound

__all__ = ["RunSummary", "summarize", "cache_utilization"]


def cache_utilization(result: ParallelRunResult) -> float:
    """Mean fraction of the cache reserved over the run's duration.

    0 for runs that record no box trace (e.g. GLOBAL-LRU, which always
    uses the full cache implicitly).
    """
    return _utilization(*capacity_profile(result.trace), result.cache_size)


def _utilization(times: np.ndarray, heights: np.ndarray, cache_size: int) -> float:
    """:func:`cache_utilization` of a capacity profile."""
    if len(times) < 2:
        return 0.0
    durations = np.diff(times).astype(np.float64)
    # heights[i] holds over [times[i], times[i+1])
    area = float(np.dot(heights[:-1].astype(np.float64), durations))
    span = float(times[-1] - times[0])
    if span <= 0:
        return 0.0
    return area / (span * cache_size)


@dataclass(frozen=True)
class RunSummary:
    """One row of every experiment table.

    Attributes
    ----------
    algorithm, p:
        Identity of the run.
    makespan, mean_completion:
        The two objectives.
    makespan_ratio, mean_completion_ratio:
        Objectives divided by their certified lower bounds (upper bounds
        on the true competitive ratios); None when no bound was supplied.
    peak_height, xi_measured:
        Peak concurrent reserved height and its ratio to ``cache_size``
        (requires a box trace).
    utilization:
        Time-averaged reserved fraction of the cache.
    """

    algorithm: str
    p: int
    makespan: int
    mean_completion: float
    makespan_ratio: Optional[float]
    mean_completion_ratio: Optional[float]
    peak_height: int
    xi_measured: float
    utilization: float

    def as_dict(self) -> Dict[str, object]:
        """Rounded dict form for table rendering / CSV export."""
        return {
            "algorithm": self.algorithm,
            "p": self.p,
            "makespan": self.makespan,
            "mean_completion": round(self.mean_completion, 2),
            "makespan_ratio": None if self.makespan_ratio is None else round(self.makespan_ratio, 3),
            "mean_completion_ratio": (
                None if self.mean_completion_ratio is None else round(self.mean_completion_ratio, 3)
            ),
            "peak_height": self.peak_height,
            "xi_measured": round(self.xi_measured, 3),
            "utilization": round(self.utilization, 3),
        }


def summarize(
    result: ParallelRunResult,
    makespan_lb: Optional[MakespanLowerBound] = None,
    mean_lb: Optional[float] = None,
) -> RunSummary:
    """Reduce a run (plus optional lower bounds) to a table row."""
    # one pass over the trace serves both the peak and the utilization
    times, heights = capacity_profile(result.trace)
    peak = int(heights.max()) if len(heights) else 0
    makespan = result.makespan
    mean_ct = result.mean_completion_time
    return RunSummary(
        algorithm=result.algorithm,
        p=result.p,
        makespan=makespan,
        mean_completion=mean_ct,
        makespan_ratio=(makespan / makespan_lb.value) if makespan_lb and makespan_lb.value else None,
        mean_completion_ratio=(mean_ct / mean_lb) if mean_lb else None,
        peak_height=peak,
        xi_measured=peak / result.cache_size if result.cache_size else 0.0,
        utilization=_utilization(times, heights, result.cache_size),
    )
