"""Cross-algorithm property tests: invariants every simulator must satisfy.

These run every registered box algorithm over hypothesis-generated
workloads and check the structural properties the analyses rely on:
complete service, contiguous per-processor progress, capacity discipline,
lattice heights, and lower-bound consistency.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import is_power_of_two
from repro.parallel import (
    ALGORITHM_REGISTRY,
    RunSpec,
    make_algorithm,
    makespan_lower_bound,
    peak_concurrent_height,
    verify_trace,
)
from repro.workloads import ParallelWorkload

BOX_ALGORITHMS = ["rand-par", "det-par", "black-box-green"]
ALL_ALGORITHMS = list(ALGORITHM_REGISTRY)

K, S = 32, 8


@st.composite
def small_workloads(draw):
    p = draw(st.integers(min_value=1, max_value=5))
    seqs = []
    for _ in range(p):
        n = draw(st.integers(min_value=0, max_value=60))
        pages = draw(st.integers(min_value=1, max_value=8))
        seqs.append(
            np.asarray(
                draw(st.lists(st.integers(0, pages - 1), min_size=n, max_size=n)), dtype=np.int64
            )
        )
    return ParallelWorkload.from_local(seqs)


class TestUniversalInvariants:
    @given(small_workloads())
    @settings(max_examples=25, deadline=None)
    def test_all_algorithms_complete_all_requests(self, wl):
        for name in ALL_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=0)).run(wl)
            assert res.p == wl.p, name
            for i, seq in enumerate(wl.sequences):
                if len(seq) == 0:
                    assert res.completion_times[i] == 0, name
                else:
                    assert res.completion_times[i] >= len(seq), name

    @given(small_workloads())
    @settings(max_examples=20, deadline=None)
    def test_box_algorithms_trace_is_consistent(self, wl):
        for name in BOX_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=1)).run(wl)
            res.validate()  # contiguous service, sane intervals
            served = {i: 0 for i in range(wl.p)}
            for r in res.trace:
                served[r.proc] = max(served[r.proc], r.served_end)
            for i, seq in enumerate(wl.sequences):
                assert served.get(i, 0) >= len(seq), (name, i)

    @given(small_workloads())
    @settings(max_examples=15, deadline=None)
    def test_semantic_replay_passes(self, wl):
        """The strongest oracle: every recorded box replays identically."""
        for name in BOX_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=6)).run(wl)
            v = verify_trace(res, wl)
            assert v.ok, (name, v.errors[:3])

    @given(small_workloads())
    @settings(max_examples=20, deadline=None)
    def test_capacity_never_exceeded(self, wl):
        for name in BOX_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=2)).run(wl)
            assert peak_concurrent_height(res.trace) <= K, name

    @given(small_workloads())
    @settings(max_examples=20, deadline=None)
    def test_heights_are_powers_of_two(self, wl):
        for name in BOX_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=3)).run(wl)
            for r in res.trace:
                assert is_power_of_two(r.height), (name, r.height)

    @given(small_workloads())
    @settings(max_examples=15, deadline=None)
    def test_lower_bound_sound_for_everyone(self, wl):
        lb = makespan_lower_bound(wl, K, S)
        for name in ALL_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=4)).run(wl)
            assert res.makespan >= lb.value, (name, res.makespan, lb.breakdown())

    @given(small_workloads())
    @settings(max_examples=15, deadline=None)
    def test_makespan_is_max_completion(self, wl):
        for name in ALL_ALGORITHMS:
            res = make_algorithm(RunSpec(name, K, S, seed=5)).run(wl)
            assert res.makespan == int(res.completion_times.max(initial=0))
            assert res.mean_completion_time <= res.makespan or wl.p == 0

    @given(small_workloads())
    @settings(max_examples=10, deadline=None)
    def test_deterministic_algorithms_reproducible(self, wl):
        for name in ("det-par", "equal-partition", "best-static-partition", "global-lru", "black-box-green"):
            a = make_algorithm(RunSpec(name, K, S, seed=0)).run(wl)
            b = make_algorithm(RunSpec(name, K, S, seed=99)).run(wl)  # seed must not matter
            assert (a.completion_times == b.completion_times).all(), name


class TestMoreCacheNeverHurtsMuch:
    @given(small_workloads())
    @settings(max_examples=10, deadline=None)
    def test_doubling_cache_helps_static_baselines(self, wl):
        """For partition baselines more cache is never worse (LRU inclusion
        per share; Belady monotone).  Box algorithms can shift box
        boundaries so only the baselines give a clean monotonicity law."""
        for name in ("equal-partition", "best-static-partition", "global-lru"):
            small = make_algorithm(RunSpec(name, K, S, seed=0)).run(wl).makespan
            large = make_algorithm(RunSpec(name, 2 * K, S, seed=0)).run(wl).makespan
            if name == "global-lru":
                # shared LRU has no inclusion across p interleavings; allow slack
                assert large <= small * 1.5 + S
            else:
                assert large <= small, name
