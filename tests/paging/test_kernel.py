"""The fast box kernel must be bit-identical to the reference engine.

``run_box`` is the semantic ground truth: a dict-LRU simulation of one
cold box.  ``repro.paging.kernel`` replays the same decisions from a
reuse-distance precompute, so every observable — endpoints, hit/fault
splits, time used, DP impacts, sim.* metrics — must match *exactly*,
not approximately.  These tests pin that equivalence property-style
(hypothesis drives sequences, starts, heights, budgets) and pin the
operational surface around it: the internal scalar/vectorized paths and
the chunked reuse build, the ladder plan the offline DP probes, the
streaming kernel, the kernel cache, and the ``REPRO_KERNEL`` escape
hatch.  Every test here pins the numpy tier (``REPRO_KERNEL=fast``),
the no-compiler fallback; ``test_native.py`` holds the compiled default
to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.paging.kernel as kernel_mod
from repro.core.box import HeightLattice
from repro.core.distributions import make_distribution
from repro.green.offline import optimal_box_profile
from repro.paging.engine import run_box
from repro.paging.kernel import (
    KERNEL_ENV,
    SequenceKernel,
    StreamKernel,
    box_walk,
    clear_kernel_cache,
    get_kernel,
    kernel_backend,
    native_flavor,
    run_box_fast,
)


@pytest.fixture(autouse=True)
def _numpy_tier(monkeypatch):
    # kernels capture their tier at construction, so the cache is
    # cleared on both sides of the pin
    monkeypatch.setenv(KERNEL_ENV, "fast")
    clear_kernel_cache()
    yield
    clear_kernel_cache()


# --------------------------------------------------------------------- #
# property: run_box_fast ≡ run_box
# --------------------------------------------------------------------- #

sequences = st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=160)


@given(
    seq=sequences,
    start_frac=st.floats(min_value=0.0, max_value=1.0),
    height=st.integers(min_value=1, max_value=20),
    budget=st.integers(min_value=0, max_value=400),
    miss_cost=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=300)
def test_run_box_fast_matches_reference(seq, start_frac, height, budget, miss_cost):
    arr = np.asarray(seq, dtype=np.int64)
    start = int(start_frac * len(arr))  # includes start == n
    kern = SequenceKernel(arr)
    assert run_box_fast(kern, start, height, budget, miss_cost) == run_box(
        arr, start, height, budget, miss_cost
    )


def test_budget_exhaustion_mid_hit_and_mid_miss():
    # [0, 1, 0, 1, ...] with height 2: everything after the first two
    # requests hits.  Budgets chosen to land the cutoff on a hit, on a
    # miss, and exactly on a boundary.
    arr = np.asarray([0, 1] * 20, dtype=np.int64)
    kern = SequenceKernel(arr)
    for budget in range(0, 30):
        for height in (1, 2, 3):
            got = run_box_fast(kern, 0, height, budget, 5)
            want = run_box(arr, 0, height, budget, 5)
            assert got == want, (budget, height)


def test_scalar_walk_defers_to_vectorized_on_long_boxes():
    # A cyclic sequence inside the height: after the first lap, every
    # request hits, so a big budget serves far past _SCALAR_MAX and the
    # scalar walk must hand off mid-box without losing its prefix.
    n = 4 * kernel_mod._SCALAR_MAX
    arr = np.asarray([i % 4 for i in range(n)], dtype=np.int64)
    kern = SequenceKernel(arr)
    budget = n + 4 * 3  # every request affordable: 4 faults + (n-4) hits
    got = run_box_fast(kern, 0, 8, budget, 4)
    want = run_box(arr, 0, 8, budget, 4)
    assert got == want
    assert got.served > kernel_mod._SCALAR_MAX


def test_reuse_build_vectorized_matches_fenwick(monkeypatch):
    # The chunked numpy build and the O(n log n) Fenwick sweep are two
    # implementations of the same precompute; cross-check them across
    # chunk-boundary lengths.
    rng = np.random.default_rng(11)
    for n in (0, 1, 127, 128, 129, 400, 1200):
        arr = rng.integers(0, 17, size=n)
        fast = SequenceKernel(arr)
        monkeypatch.setattr(kernel_mod, "_VEC_BUILD_MAX", 0)
        fenwick = SequenceKernel(arr)
        monkeypatch.undo()
        assert np.array_equal(fast.prev_occ, fenwick.prev_occ)
        assert np.array_equal(fast.reuse_dist, fenwick.reuse_dist)


# --------------------------------------------------------------------- #
# ladder plan (offline DP's probe path)
# --------------------------------------------------------------------- #


def test_ladder_ends_match_reference_including_block_recompute():
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 24, size=500)
    lattice = HeightLattice(16, 4)
    heights = tuple(int(h) for h in lattice.heights)
    s = 3
    budgets = tuple(s * h for h in heights)
    kern = SequenceKernel(arr)
    starts = list(range(0, len(arr) + 1))
    rng.shuffle(starts)  # non-ascending starts force block recomputes
    plan = kern.ladder_plan(heights, budgets, s)
    for q in starts:
        got = plan.ends(q)
        want = [run_box(arr, q, h, s * h, s).end for h in heights]
        assert got == want, q


def test_ladder_plan_is_memoized():
    arr = np.arange(64, dtype=np.int64) % 8
    kern = SequenceKernel(arr)
    plan = kern.ladder_plan((2, 4), (6, 12), 3)
    assert kern.ladder_plan((2, 4), (6, 12), 3) is plan


# --------------------------------------------------------------------- #
# streaming kernel
# --------------------------------------------------------------------- #


def test_stream_kernel_matches_sequence_kernel_across_chunks():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 10, size=300)
    stream = StreamKernel()
    for lo in range(0, len(arr), 37):
        stream.append(arr[lo : lo + 37])
    for start in (0, 1, 50, 299, 300):
        for h, b in ((1, 9), (4, 40), (8, 1000)):
            assert stream.box(start, h, b, 5) == run_box(arr, start, h, b, 5)


def test_stream_kernel_compact_preserves_suffix_boxes():
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 6, size=200)
    stream = StreamKernel()
    stream.append(arr)
    stream.compact(80)
    assert stream.base == 80
    for start in (80, 120, 199):
        assert stream.box(start, 3, 50, 4) == run_box(arr, start, 3, 50, 4)
    with pytest.raises(ValueError, match="precedes retained window"):
        stream.box(79, 3, 50, 4)


# --------------------------------------------------------------------- #
# validation (hoisted out of the hot loops, same errors both paths)
# --------------------------------------------------------------------- #


def test_run_box_fast_validates_like_reference():
    arr = np.asarray([0, 1, 2], dtype=np.int64)
    kern = SequenceKernel(arr)
    with pytest.raises(ValueError, match="box height must be >= 1"):
        run_box_fast(kern, 0, 0, 10, 4)
    with pytest.raises(ValueError, match="miss_cost must be > 1"):
        run_box_fast(kern, 0, 2, 10, 1)
    # identical messages to the reference engine
    for kwargs in ({"height": 0}, {"miss_cost": 1}, {"start": -1}):
        call = {"start": 0, "height": 2, "budget": 10, "miss_cost": 4, **kwargs}
        with pytest.raises(ValueError) as fast_err:
            run_box_fast(kern, **call)
        with pytest.raises(ValueError) as ref_err:
            run_box(arr, **call)
        assert str(fast_err.value) == str(ref_err.value)
    # a direct call skips run_box_fast's checks but not the window base
    with pytest.raises(ValueError, match="precedes retained window"):
        kern.box(-1, 2, 10, 4)


@pytest.mark.parametrize("backend", ["fast", "reference"])
def test_offline_dp_validates_miss_cost_under_both_backends(backend, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, backend)
    clear_kernel_cache()
    seq = np.asarray([0, 1, 0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="miss_cost must be > 1"):
        optimal_box_profile(seq, HeightLattice(4, 2), 1)


# --------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------- #


def test_get_kernel_caches_by_identity_and_by_key():
    clear_kernel_cache()
    arr = np.asarray([0, 1, 0], dtype=np.int64)
    assert get_kernel(arr) is get_kernel(arr)
    other = arr.copy()
    assert get_kernel(other) is not get_kernel(arr)  # different objects
    assert get_kernel(arr, key=("digest", 0)) is get_kernel(other, key=("digest", 0))
    clear_kernel_cache()


def test_kernel_cache_is_lru_bounded():
    clear_kernel_cache()
    keep = [np.asarray([i], dtype=np.int64) for i in range(kernel_mod._CACHE_MAX_ENTRIES + 8)]
    for arr in keep:
        get_kernel(arr)
    assert len(kernel_mod._CACHE) <= kernel_mod._CACHE_MAX_ENTRIES
    # the most recent arrays survive, the oldest were evicted
    assert get_kernel(keep[-1]) is get_kernel(keep[-1])
    clear_kernel_cache()
    assert len(kernel_mod._CACHE) == 0


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #


def test_backend_env_switching(monkeypatch):
    arr = np.asarray([0, 1], dtype=np.int64)
    compiled = "native" if native_flavor() is not None else "fast"
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    # unset: the compiled tier whenever it builds, else the numpy fallback
    assert kernel_backend() == compiled
    assert isinstance(box_walk(arr), SequenceKernel)
    for alias in ("native", "compiled", " Native "):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == compiled
    for alias in ("fast", "kernel"):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == "fast"
    for alias in ("reference", "ref", " Reference "):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == "reference"
        assert box_walk(arr).func is run_box
    monkeypatch.setenv(KERNEL_ENV, "turbo")
    with pytest.raises(ValueError, match="unknown REPRO_KERNEL backend"):
        kernel_backend()
    clear_kernel_cache()


# --------------------------------------------------------------------- #
# end-to-end determinism across backends
# --------------------------------------------------------------------- #


@pytest.mark.slow
def test_e1_rows_and_sim_metrics_identical_across_backends(monkeypatch):
    """The kernel swap is invisible to every experiment observable.

    Result rows (what the CSVs serialize) and the full stripped metrics
    snapshot — every ``sim.*`` counter included — must be byte-identical
    between ``REPRO_KERNEL=fast`` and ``REPRO_KERNEL=reference``.
    """
    from repro.experiments import run_named_experiment
    from repro.obs import observability
    from repro.obs.metrics import strip_wall

    out = {}
    for backend in ("fast", "reference"):
        monkeypatch.setenv(KERNEL_ENV, backend)
        clear_kernel_cache()
        with observability(metrics=True) as scope:
            rows, _ = run_named_experiment("e1", scale="quick", seed=0)
            out[backend] = (rows, strip_wall(scope.metrics_snapshot()))
    assert out["fast"][0] == out["reference"][0], "result rows diverged"
    assert out["fast"][1] == out["reference"][1], "sim.* metrics diverged"


# --------------------------------------------------------------------- #
# scalar sampling fast path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["inverse_square", "inverse_linear", "uniform"])
def test_scalar_sample_is_bit_identical_to_rng_choice(kind):
    for k, p in ((8, 2), (64, 8), (128, 32)):
        dist = make_distribution(HeightLattice(k, p), kind)
        heights = np.asarray(dist.lattice.heights, dtype=np.int64)
        probs = np.asarray(dist.pmf, dtype=np.float64)
        rng_a = np.random.default_rng(1234)
        rng_b = np.random.default_rng(1234)
        draws_fast = [dist.sample(rng_a) for _ in range(500)]
        draws_ref = [int(rng_b.choice(heights, p=probs)) for _ in range(500)]
        assert draws_fast == draws_ref
