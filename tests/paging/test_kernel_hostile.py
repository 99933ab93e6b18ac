"""The compiled box walk and offline DP under hostile arguments.

Every caller reaches the compiled walk (``box_walk`` in the C source)
with arguments it does not check beyond ``run_box``'s own validation:
``miss_cost`` only has to exceed 1, and a budget is whatever the caller
computes.  So a :class:`SequenceKernel` and a compacted
:class:`StreamKernel` are held to the dict-LRU :func:`run_box` on empty
and one-row columns, starts at and past the end, heights far above the
window, budgets that are negative, zero or near ``2**63 - 1``, and miss
costs up to ``2**63 - 1``: sums that would wrap int64 must not.  The
offline DP is held to its bound on either side: below it both tiers
agree exactly, and at it both raise ``ValueError`` before any sum is
formed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.box import HeightLattice
from repro.green.offline import optimal_box_profile
from repro.paging.engine import run_box
from repro.paging.kernel import SequenceKernel, StreamKernel, native_flavor, run_box_fast

from .test_belady_native import tier

requires_native = pytest.mark.skipif(
    native_flavor() is None, reason="compiled tier unavailable (no C compiler)"
)

I64_MIN = int(np.iinfo(np.int64).min)
I64_MAX = int(np.iinfo(np.int64).max)


columns = st.one_of(
    st.just([]),
    st.lists(st.integers(I64_MIN, I64_MAX), min_size=1, max_size=1),
    st.lists(st.integers(0, 5), max_size=40),
    st.lists(st.sampled_from([I64_MIN, -1, 0, 1, I64_MAX]), max_size=20),
)
heights = st.one_of(st.integers(1, 8), st.integers(1, 2**62), st.just(2**62))
budgets = st.one_of(
    st.integers(I64_MIN, -1),
    st.just(0),
    st.integers(1, 300),
    st.integers(I64_MAX - 2**20, I64_MAX),
)
miss_costs = st.one_of(
    st.integers(2, 9),
    st.integers(2, I64_MAX),
    st.sampled_from([2**61, 2**62, I64_MAX - 1, I64_MAX]),
)


@requires_native
@settings(max_examples=400, deadline=None)
@given(
    seq=columns,
    past=st.integers(0, 45),
    height=heights,
    budget=budgets,
    miss_cost=miss_costs,
)
@example(seq=[1, 2, 3, 1, 2, 3, 4, 5], past=0, height=1, budget=I64_MAX, miss_cost=2**62)
@example(seq=[7] * 6, past=0, height=2**62, budget=I64_MAX, miss_cost=I64_MAX)
def test_sequence_kernel_walk_matches_reference(seq, past, height, budget, miss_cost):
    arr = np.asarray(seq, dtype=np.int64)
    start = min(past, len(arr) + 3)  # at, and a little past, the end
    want = run_box(arr, start, height, budget, miss_cost)
    with tier("native"):
        assert run_box_fast(SequenceKernel(arr), start, height, budget, miss_cost) == want


@requires_native
@settings(max_examples=300, deadline=None)
@given(
    seq=columns,
    chunk=st.integers(1, 9),
    cut=st.floats(0.0, 1.0),
    past=st.integers(0, 45),
    height=heights,
    budget=budgets,
    miss_cost=miss_costs,
)
def test_compacted_stream_kernel_walk_matches_reference(seq, chunk, cut, past, height, budget, miss_cost):
    arr = np.asarray(seq, dtype=np.int64)
    with tier("native"):
        sk = StreamKernel()
        for lo in range(0, len(arr), chunk):
            sk.append(arr[lo : lo + chunk])
        sk.compact(int(cut * len(arr)))
        start = sk.base + min(past, len(arr) - sk.base + 3)
        got = run_box_fast(sk, start, height, budget, miss_cost)
    assert got == run_box(arr, start, height, budget, miss_cost)


# --------------------------------------------------------------------- #
# the offline DP at its int64 bound
# --------------------------------------------------------------------- #
SIX = np.asarray([1, 2, 1, 2, 3, 1], dtype=np.int64)
#: The largest miss cost whose 6-request impacts at height 1 stay below 2**63 - 1.
BELOW = I64_MAX // 6


@pytest.mark.parametrize("name", ["native", "reference"])
def test_offline_dp_is_exact_just_below_its_bound(name):
    with tier(name):
        res = optimal_box_profile(SIX, HeightLattice(1, 1), BELOW)
    assert res.impact == 6 * BELOW == I64_MAX - 1
    assert list(res.profile) == [1] * 6
    assert res.distances.tolist() == [q * BELOW for q in range(7)]


@pytest.mark.parametrize("name", ["native", "reference"])
@pytest.mark.parametrize("miss_cost", [BELOW + 1, 2**62 + 7, I64_MAX])
def test_offline_dp_raises_at_its_bound(name, miss_cost):
    with tier(name):
        with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
            optimal_box_profile(SIX, HeightLattice(1, 1), miss_cost)


def test_offline_dp_bound_counts_the_tallest_height():
    # 3 requests * s * 4**2 passes the bound where height 1 alone would not
    s = I64_MAX // 40
    optimal_box_profile(SIX[:3], HeightLattice(1, 1), s)
    with pytest.raises(ValueError, match="height 4"):
        optimal_box_profile(SIX[:3], HeightLattice(4, 1), s)
