"""Certified lower bounds on the optimal parallel makespan.

Parallel-paging OPT is NP-hard even offline [López-Ortiz & Salinger,
ITCS '12], so no experiment can compare against OPT exactly.  Instead we
compare against a **certified lower bound** ``T_LB <= T_OPT``: measured
ratios ``T_ALG / T_LB`` then *upper-bound* the true competitive ratios,
which is the sound direction for validating the paper's ``O(log p)``
upper-bound theorems (E3/E5/E6).

Three bounds, combined by max:

1. **Length**: every request takes >= 1 step, served in order, so
   ``T_OPT >= max_i |R^i|``.
2. **Isolation**: a processor running *alone* with the *whole* cache and
   Belady's MIN replacement is at least as fast as under any parallel OPT
   with the same cache, so ``T_OPT >= max_i minTime_i(k)``.
3. **Aggregate impact**: the cache supplies at most ``k`` page-slots per
   step, so ``k · T_OPT >= Σ_i I_i`` where ``I_i`` is the least memory
   impact that serves ``R^i``.  We compute ``I_i`` as the offline optimal
   *box-profile* impact on the full lattice (min height 1), then divide by
   ``box_normalization`` — the constant-factor cost of the WLOG reduction
   from arbitrary allocations to compartmentalized power-of-two boxes —
   to keep the bound certified.  (Ratios' *shape* across p is unaffected
   by this constant; we default to 4 = one factor 2 of height rounding,
   squared.)

`mean_completion_lower_bound` gives the analogous per-processor bound for
Corollary 3's objective.  Both take their isolation terms from one helper,
one :func:`~repro.paging.belady.min_service_time` per processor: Belady's
MIN runs as one compiled call per processor on the native kernel tier, and
as the python :class:`~repro.paging.belady.BeladySimulation` without it,
with the same fault counts, so the bounds are identical on every tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.box import HeightLattice
from ..green.offline import optimal_box_profile
from ..paging.belady import min_service_time
from ..workloads.trace import ParallelWorkload

__all__ = ["MakespanLowerBound", "makespan_lower_bound", "mean_completion_lower_bound"]


@dataclass(frozen=True)
class MakespanLowerBound:
    """A certified lower bound with its per-component breakdown.

    Attributes
    ----------
    value:
        ``max(length, isolation, impact)`` — the bound itself.
    length_bound, isolation_bound, impact_bound:
        The three components (impact already normalized).
    per_proc_isolation:
        Belady-alone-with-full-cache time per processor (also the per-proc
        completion-time lower bound used for the mean objective).
    """

    value: int
    length_bound: int
    isolation_bound: int
    impact_bound: int
    per_proc_isolation: np.ndarray

    def breakdown(self) -> Dict[str, int]:
        """Component values keyed by name (for reports and assertions)."""
        return {
            "length": self.length_bound,
            "isolation": self.isolation_bound,
            "impact": self.impact_bound,
            "value": self.value,
        }


def _isolation_times(workload: ParallelWorkload, k: int, s: int) -> np.ndarray:
    """Each processor's time alone with the whole cache under MIN (0 if empty)."""
    return np.array(
        [min_service_time(seq, k, s) if len(seq) else 0 for seq in workload.sequences],
        dtype=np.int64,
    )


def _impact_lattice(k: int) -> HeightLattice:
    """Full lattice with min height 1 (heights 1, 2, …, k)."""
    return HeightLattice(k=k, p=k)


def makespan_lower_bound(
    workload: ParallelWorkload,
    k: int,
    miss_cost: int,
    box_normalization: float = 4.0,
    include_impact: bool = True,
) -> MakespanLowerBound:
    """Compute the certified makespan lower bound for a workload.

    Parameters
    ----------
    k:
        OPT's cache size (use the *un-augmented* size when evaluating an
        algorithm that was granted ``ξ·k``).
    box_normalization:
        Constant dividing the aggregate-impact component (see module doc).
    include_impact:
        The impact component runs one offline DP per processor; disable for
        quick sanity runs on large workloads.
    """
    s = int(miss_cost)
    p = workload.p
    iso = _isolation_times(workload, k, s)
    length = max((len(seq) for seq in workload.sequences), default=0)
    isolation = int(iso.max()) if p else 0

    impact_bound = 0
    if include_impact and p:
        lattice = _impact_lattice(k)
        total_impact = 0
        for seq in workload.sequences:
            if len(seq) == 0:
                continue
            total_impact += optimal_box_profile(seq, lattice, s).impact
        impact_bound = int(np.floor(total_impact / (k * box_normalization)))

    value = max(length, isolation, impact_bound)
    return MakespanLowerBound(
        value=value,
        length_bound=length,
        isolation_bound=isolation,
        impact_bound=impact_bound,
        per_proc_isolation=iso,
    )


def mean_completion_lower_bound(
    workload: ParallelWorkload,
    k: int,
    miss_cost: int,
) -> float:
    """Certified lower bound on OPT's *mean* completion time.

    Two components, combined by max:

    * isolation: ``mean_i minTime_i(k)`` — each processor's completion is
      at least its alone-with-full-cache Belady time;
    * service-rate staircase: order processors by their minimum possible
      service demand ``d_i = hits_i + s·faults_i(k)``; since at most one
      request per processor is served per step but the whole machine
      serves what it serves, the j-th completion (in any schedule) is at
      least the j-th smallest ``d_i``... which is exactly the isolation
      bound per processor again — so the staircase adds nothing beyond
      isolation here and we keep the simple mean.  (Documented to explain
      why no tighter closed form is used.)
    """
    if workload.p == 0:
        return 0.0
    return float(np.mean(_isolation_times(workload, k, int(miss_cost))))
