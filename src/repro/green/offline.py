"""Offline optimal green paging over compartmentalized box profiles.

The paper's WLOG reduction (§2) lets the green-paging OPT be assumed to use
a compartmentalized box profile on the normalized height lattice.  Under
that normal form, computing OPT is a shortest-path problem on a DAG over
sequence positions:

* node ``q`` = "the first ``q`` requests have been served";
* for each lattice height ``h``, an edge ``q -> end(q, h)`` of cost
  ``s·h²``, where ``end(q, h)`` is how far a cold LRU box of height ``h``
  and budget ``s·h`` gets from position ``q`` (computed by the box engine);
* OPT impact = shortest distance from 0 to ``n``.

Maximal service per box is WLOG for green paging in isolation: the paper's
§4 discussion ("servicing a prefix with higher impact can never lower the
impact of the remaining suffix") is exactly the exchange argument that lets
each box serve as much as it can.  Edges go strictly forward (a box with
budget ``s·h >= s`` always serves at least one request), so one increasing
sweep over positions settles all distances — no priority queue needed.

Cost: O(Σ_{reachable q, level} service(q, h)); in practice the dominant
term is the tall-box simulations.  Experiments keep ``n`` in the tens of
thousands, well within budget for pure Python per the HPC guide's
"algorithmic optimization first" doctrine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.box import BoxProfile, HeightLattice
from ..obs import metrics as obs_metrics
from ..paging.engine import run_box
from ..paging.kernel import maybe_kernel, native_dp_solve

__all__ = ["OfflineGreenResult", "optimal_box_profile", "prefix_optimal_impacts"]

_INF = np.iinfo(np.int64).max


@dataclass(frozen=True)
class OfflineGreenResult:
    """Optimal offline green-paging solution for one sequence.

    Attributes
    ----------
    profile:
        An optimal compartmentalized box profile (heights, in order).
    impact:
        Its total memory impact ``Σ s·h²`` (the OPT value).
    distances:
        ``distances[q]`` = min impact to serve the first ``q`` requests
        *exactly* at a box boundary (``_INF`` where unreachable).  Used to
        derive per-prefix OPT costs for greedily-green certification.
    """

    profile: BoxProfile
    impact: int
    distances: np.ndarray


def optimal_box_profile(
    seq: np.ndarray,
    lattice: HeightLattice,
    miss_cost: int,
) -> OfflineGreenResult:
    """Compute the optimal compartmentalized box profile for ``seq``.

    Returns the profile, its impact, and the full distance table.
    """
    raw = seq
    seq = np.ascontiguousarray(seq, dtype=np.int64)
    n = len(seq)
    s = int(miss_cost)
    heights = lattice.heights
    # Validation is hoisted out of the relaxation sweep: the fast path
    # below probes box endpoints O(n · levels) times with no per-probe
    # branching, so bad parameters must be rejected here, with the same
    # errors the reference run_box raises per probe.
    if s <= 1:
        raise ValueError(f"miss_cost must be > 1, got {s}")
    for h in heights:
        if h < 1:
            raise ValueError(f"box height must be >= 1, got {h}")
    # One reuse-distance precompute amortized over every probe — keyed on
    # the caller's array when no copy was needed, so repeated solves on
    # the same sequence (replications, sweeps) share one kernel.
    kern = maybe_kernel(seq if seq is raw or not isinstance(raw, np.ndarray) else raw)
    costs = [s * h * h for h in heights]
    if kern is not None:
        # Batched relaxation: blocked windowed passes yield the endpoints
        # of every lattice height for a run of consecutive starts at once
        # (the hit sets of a geometric height ladder are nested — see
        # SequenceKernel.box_ends).  The tables live as plain-int lists
        # during the sweep: the loop body is scalar compares, where numpy
        # scalar indexing would triple the cost.
        hladder = tuple(int(h) for h in heights)
        budgets = tuple(s * h for h in hladder)
        solved = native_dp_solve(kern, hladder, budgets, tuple(costs), s, _INF)
        if solved is not None:
            # native kernel tier: the whole relaxation runs compiled,
            # with the exact tie-breaking of the python sweep below
            # (ascending start, ascending ladder level, strict '<'), so
            # parents — not just distances — stay bit-identical.
            dist, parent_pos, parent_h = solved
        else:
            ends = kern.ladder_plan(hladder, budgets, s).ends
            dist_l = [_INF] * (n + 1)
            parent_pos_l = [-1] * (n + 1)
            parent_h_l = [0] * (n + 1)
            dist_l[0] = 0
            for q in range(n):
                d = dist_l[q]
                if d == _INF:
                    continue
                for h, c, end in zip(hladder, costs, ends(q)):
                    nd = d + c
                    if nd < dist_l[end]:
                        dist_l[end] = nd
                        parent_pos_l[end] = q
                        parent_h_l[end] = h
            dist = np.array(dist_l, dtype=np.int64)
            parent_pos = np.array(parent_pos_l, dtype=np.int64)
            parent_h = np.array(parent_h_l, dtype=np.int64)
    else:
        dist = np.full(n + 1, _INF, dtype=np.int64)
        # parent pointers for profile reconstruction: best (prev_pos, height)
        parent_pos = np.full(n + 1, -1, dtype=np.int64)
        parent_h = np.zeros(n + 1, dtype=np.int64)
        dist[0] = 0
        for q in range(n):
            d = dist[q]
            if d == _INF:
                continue
            for h, c in zip(heights, costs):
                end = run_box(seq, q, h, s * h, s).end
                nd = d + c
                if nd < dist[end]:
                    dist[end] = nd
                    parent_pos[end] = q
                    parent_h[end] = h
                # A taller box reaching the same endpoint is dominated, but
                # we still need every height because endpoints differ; no
                # pruning beyond the relaxation itself is sound in general.
    if dist[n] == _INF:
        raise RuntimeError("offline DP failed to reach the end of the sequence (bug)")
    # reconstruct
    rev: List[int] = []
    q = n
    while q != 0:
        rev.append(int(parent_h[q]))
        q = int(parent_pos[q])
    rev.reverse()
    # one counter per DP solve — never per run_box probe: the relaxation
    # loop above calls run_box O(n * levels) times and must stay cheap
    reg = obs_metrics.active()
    if reg.enabled:
        reg.counter("sim.green.opt.profiles").inc()
        reg.counter("sim.green.opt.requests").inc(n)
    return OfflineGreenResult(profile=BoxProfile(rev), impact=int(dist[n]), distances=dist)


def prefix_optimal_impacts(result: OfflineGreenResult) -> np.ndarray:
    """Per-prefix OPT impacts ``c_OPT(π_q)`` for q = 0..n (Definition 1).

    The DP distances are defined at box boundaries; the cheapest way to
    serve *at least* ``q`` requests may overshoot, so
    ``c_OPT(q) = min_{q' >= q} distances[q']`` — a suffix minimum.
    """
    dist = result.distances.astype(np.float64)
    dist[dist == float(_INF)] = np.inf
    out = np.minimum.accumulate(dist[::-1])[::-1]
    return out
