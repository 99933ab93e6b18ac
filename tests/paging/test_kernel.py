"""The compiled box kernel must be bit-identical to the reference engine.

``run_box`` is the semantic ground truth: a dict-LRU simulation of one
cold box.  ``repro.paging.kernel`` replays the same decisions from a
reuse-distance precompute, so every observable — endpoints, hit/fault
splits, time used, DP impacts, sim.* metrics — must match *exactly*,
not approximately.  These tests pin that equivalence property-style
(hypothesis drives sequences, starts, heights, budgets) and pin the
operational surface around it: the streaming kernel, the kernel cache,
and the ``REPRO_KERNEL`` switch.  The kernels exist only on the compiled
tier, so the tests that build one skip where no C compiler is found;
``test_native.py`` holds the rest of the compiled tier to the reference.
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

requires_native = pytest.mark.skipif(
    native_flavor() is None, reason="compiled tier unavailable (no C compiler)"
)


@pytest.fixture(autouse=True)
def _default_tier(monkeypatch):
    # the tier the suite was started with must not leak in: each test
    # starts from the default and pins what it needs
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    clear_kernel_cache()
    yield
    clear_kernel_cache()


# --------------------------------------------------------------------- #
# property: run_box_fast ≡ run_box
# --------------------------------------------------------------------- #

sequences = st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=160)


@requires_native
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


@requires_native
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


# --------------------------------------------------------------------- #
# streaming kernel
# --------------------------------------------------------------------- #


@requires_native
def test_stream_kernel_matches_sequence_kernel_across_chunks():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 10, size=300)
    stream = StreamKernel()
    for lo in range(0, len(arr), 37):
        stream.append(arr[lo : lo + 37])
    for start in (0, 1, 50, 299, 300):
        for h, b in ((1, 9), (4, 40), (8, 1000)):
            assert stream.box(start, h, b, 5) == run_box(arr, start, h, b, 5)


@requires_native
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


@requires_native
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


@pytest.mark.parametrize("backend", ["native", "reference"])
def test_offline_dp_validates_miss_cost_under_both_backends(backend, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, backend)
    clear_kernel_cache()
    seq = np.asarray([0, 1, 0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="miss_cost must be > 1"):
        optimal_box_profile(seq, HeightLattice(4, 2), 1)


# --------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------- #


@requires_native
def test_get_kernel_caches_by_identity_and_by_key():
    clear_kernel_cache()
    arr = np.asarray([0, 1, 0], dtype=np.int64)
    assert get_kernel(arr) is get_kernel(arr)
    other = arr.copy()
    assert get_kernel(other) is not get_kernel(arr)  # different objects
    assert get_kernel(arr, key=("digest", 0)) is get_kernel(other, key=("digest", 0))
    clear_kernel_cache()


@requires_native
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
    compiled = native_flavor() is not None
    # unset: the compiled tier whenever it builds, else the python loops
    assert kernel_backend() == ("native" if compiled else "reference")
    if compiled:
        assert isinstance(box_walk(arr), SequenceKernel)
    else:
        assert box_walk(arr).func is run_box
    for alias in ("native", "compiled", " Native "):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == ("native" if compiled else "reference")
    for alias in ("reference", "ref", " Reference "):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == "reference"
        assert box_walk(arr).func is run_box
    # `fast` and `kernel` name no tier: rejected like any unknown value
    for alias in ("turbo", "fast", "kernel"):
        monkeypatch.setenv(KERNEL_ENV, alias)
        with pytest.raises(ValueError, match="unknown REPRO_KERNEL backend"):
            kernel_backend()
    clear_kernel_cache()


def test_kernels_refuse_the_reference_tier(monkeypatch):
    # no caller builds a kernel on the reference tier; one that tried
    # would run compiled code inside the oracle
    monkeypatch.setenv(KERNEL_ENV, "reference")
    with pytest.raises(RuntimeError, match="compiled tier"):
        SequenceKernel(np.arange(4))
    with pytest.raises(RuntimeError, match="compiled tier"):
        StreamKernel()
    with pytest.raises(RuntimeError, match="compiled tier"):
        get_kernel(np.arange(4))


# --------------------------------------------------------------------- #
# end-to-end determinism across backends
# --------------------------------------------------------------------- #


@pytest.mark.slow
@requires_native
def test_e1_rows_and_sim_metrics_identical_across_backends(monkeypatch):
    """The kernel swap is invisible to every experiment observable.

    Result rows (what the CSVs serialize) and the full stripped metrics
    snapshot — every ``sim.*`` counter included — must be byte-identical
    between ``REPRO_KERNEL=native`` and ``REPRO_KERNEL=reference``.
    """
    from repro.experiments import run_named_experiment
    from repro.obs import observability
    from repro.obs.metrics import strip_wall

    out = {}
    for backend in ("native", "reference"):
        monkeypatch.setenv(KERNEL_ENV, backend)
        clear_kernel_cache()
        with observability(metrics=True) as scope:
            rows, _ = run_named_experiment("e1", scale="quick", seed=0)
            out[backend] = (rows, strip_wall(scope.metrics_snapshot()))
    assert out["native"][0] == out["reference"][0], "result rows diverged"
    assert out["native"][1] == out["reference"][1], "sim.* metrics diverged"


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
