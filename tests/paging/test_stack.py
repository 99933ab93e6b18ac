"""Tests for Mattson stack distances and miss-ratio curves."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paging import Fenwick, LRUCache, lru_faults_all_sizes, miss_ratio_curve, stack_distances
from repro.paging.kernel import KERNEL_ENV, native_flavor

#: Every reuse-distance sweep ``stack_distances`` can take: the compiled
#: one (where the cc tier builds), and the python Fenwick sweep of the
#: reference tier.
SWEEPS = (("compiled",) if native_flavor() is not None else ()) + ("reference",)


@contextmanager
def sweep(name):
    """Route ``stack_distances`` through one sweep (a context manager, not
    monkeypatch, so hypothesis examples can switch per call)."""
    saved_env = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = "native" if name == "compiled" else "reference"
    try:
        yield
    finally:
        if saved_env is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved_env


class TestFenwick:
    def test_prefix_sums(self):
        f = Fenwick(10)
        f.add(0, 5)
        f.add(4, 2)
        f.add(9, 1)
        assert f.prefix_sum(0) == 5
        assert f.prefix_sum(3) == 5
        assert f.prefix_sum(4) == 7
        assert f.prefix_sum(9) == 8

    def test_range_sum(self):
        f = Fenwick(8)
        for i in range(8):
            f.add(i, 1)
        assert f.range_sum(2, 5) == 4
        assert f.range_sum(5, 2) == 0
        assert f.range_sum(0, 7) == 8

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(-5, 5)), max_size=60))
    @settings(max_examples=100)
    def test_matches_naive_array(self, updates):
        f = Fenwick(20)
        ref = np.zeros(20, dtype=np.int64)
        for i, d in updates:
            f.add(i, d)
            ref[i] += d
        for lo in range(0, 20, 3):
            for hi in range(lo, 20, 4):
                assert f.range_sum(lo, hi) == int(ref[lo : hi + 1].sum())


class TestStackDistances:
    def test_cold_accesses_are_zero(self):
        assert stack_distances([1, 2, 3]).tolist() == [0, 0, 0]

    def test_immediate_reuse(self):
        assert stack_distances([1, 1]).tolist() == [0, 1]

    def test_classic_example(self):
        # distances: a:0 b:0 c:0 a:3 (c,b,a distinct) b:3 c:3
        assert stack_distances([1, 2, 3, 1, 2, 3]).tolist() == [0, 0, 0, 3, 3, 3]

    def test_repeated_page_between(self):
        # 1, 2, 2, 1 -> last request to 1 sees {2,1} distinct = 2
        assert stack_distances([1, 2, 2, 1]).tolist() == [0, 0, 1, 2]

    def _naive(self, seq):
        out = []
        last = {}
        for i, page in enumerate(seq):
            if page not in last:
                out.append(0)
            else:
                out.append(len(set(seq[last[page] : i])))
            last[page] = i
        return out

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=150))
    @settings(max_examples=150)
    def test_matches_naive(self, seq):
        want = self._naive(seq)
        for name in SWEEPS:
            with sweep(name):
                assert stack_distances(seq).tolist() == want, name


class TestMissRatioCurve:
    def test_rejects_capacity_zero(self):
        curve = miss_ratio_curve([1, 2, 1])
        with pytest.raises(ValueError):
            curve.miss_ratio(0)

    def test_empty_sequence(self):
        curve = miss_ratio_curve([])
        assert curve.n == 0 and curve.cold == 0
        assert curve.miss_ratio(1) == 0.0

    def test_cycle_curve(self):
        seq = [0, 1, 2, 3] * 10
        curve = miss_ratio_curve(seq, max_capacity=6)
        assert curve.fault_count(4) == 4  # fits: cold misses only
        assert curve.fault_count(3) == len(seq)  # LRU thrashes
        assert curve.fault_count(6) == 4

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=120), st.integers(1, 10))
    @settings(max_examples=150)
    def test_matches_direct_lru_simulation(self, seq, capacity):
        lru = LRUCache(capacity)
        for page in seq:
            lru.touch(page)
        for name in SWEEPS:
            with sweep(name):
                curve = miss_ratio_curve(seq, max_capacity=capacity)
            assert curve.fault_count(capacity) == lru.faults, name

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100))
    @settings(max_examples=75)
    def test_curve_monotone_nonincreasing(self, seq):
        curve = miss_ratio_curve(seq, max_capacity=10)
        faults = curve.faults[1:]
        assert all(faults[i] >= faults[i + 1] for i in range(len(faults) - 1))

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_cold_misses_floor(self, seq):
        curve = miss_ratio_curve(seq, max_capacity=12)
        assert curve.cold == len(set(seq))
        assert curve.fault_count(12) >= curve.cold

    def test_all_sizes_helper(self):
        seq = [0, 1, 0, 2, 0, 1]
        for name in SWEEPS:
            with sweep(name):
                counts = lru_faults_all_sizes(seq, [1, 2, 3])
            for c, expected in counts.items():
                lru = LRUCache(c)
                for page in seq:
                    lru.touch(page)
                assert expected == lru.faults, name
