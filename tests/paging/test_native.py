"""The native kernel tier must be bit-identical to fast and reference.

The native tier (the default: a cc-compiled shared library, else a
fallback to the numpy fast path) re-implements the three inner loops of
the paging kernel: the reuse-distance sweep, the per-box service walk,
and the offline green DP.  Its only contract is *exactness*: every
observable — box endpoints, hit/fault splits, ladder plans, DP distances
and parents — must equal the numpy fast path and the dict-LRU reference
bit for bit.  These tests pin that three-way equivalence property-style
(random boxes, ladders via the offline DP on non-power-of-two lattices,
streamed chunk appends with compaction) plus the operational surface:
backend selection, the ``$REPRO_NATIVE`` flavor pin, the no-compiler
fallback, and the checks on the shared build cache.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.box import HeightLattice
from repro.green.offline import optimal_box_profile
import repro.paging._native as native_mod
from repro.paging._native import NATIVE_CACHE_ENV, NATIVE_ENV, clear_native_cache, native_ops
from repro.paging.engine import run_box
from repro.paging.kernel import (
    KERNEL_ENV,
    SequenceKernel,
    StreamKernel,
    clear_kernel_cache,
    kernel_backend,
    maybe_kernel,
    native_flavor,
    run_box_fast,
)

HAVE_NATIVE = native_flavor() is not None

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled tier unavailable (no C compiler, or REPRO_NATIVE=off)"
)


@contextmanager
def backend(value: str, native: str | None = None):
    """Temporarily pin ``$REPRO_KERNEL`` (and optionally ``$REPRO_NATIVE``).

    A context manager instead of monkeypatch so hypothesis-driven tests
    can flip backends per example; kernels capture their backend at
    construction, so the cache is cleared on entry and exit.
    """
    saved = {k: os.environ.get(k) for k in (KERNEL_ENV, NATIVE_ENV)}
    os.environ[KERNEL_ENV] = value
    if native is not None:
        os.environ[NATIVE_ENV] = native
        clear_native_cache()
    clear_kernel_cache()
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        if native is not None:
            clear_native_cache()
        clear_kernel_cache()


# --------------------------------------------------------------------- #
# backend selection and flavor pinning
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_native_resolves_to_native_or_fast(self):
        with backend("native"):
            assert kernel_backend() == ("native" if HAVE_NATIVE else "fast")

    def test_compiled_alias(self):
        with backend("compiled"):
            assert kernel_backend() == ("native" if HAVE_NATIVE else "fast")

    def test_native_off_forces_fallback_to_fast(self):
        with backend("native", native="off"):
            assert native_flavor() is None
            assert kernel_backend() == "fast"

    def test_invalid_backend_rejected(self):
        with backend("turbo"):
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernel_backend()

    def test_invalid_flavor_pin_rejected(self):
        saved = os.environ.get(NATIVE_ENV)
        os.environ[NATIVE_ENV] = "gpu"
        clear_native_cache()
        try:
            with pytest.raises(ValueError, match="REPRO_NATIVE"):
                native_ops()
        finally:
            if saved is None:
                os.environ.pop(NATIVE_ENV, None)
            else:
                os.environ[NATIVE_ENV] = saved
            clear_native_cache()

    def test_numba_flavor_is_gone(self, monkeypatch):
        monkeypatch.setenv(NATIVE_ENV, "numba")
        clear_native_cache()
        try:
            with pytest.raises(ValueError, match="expected 'auto', 'cc', or 'off'"):
                native_ops()
        finally:
            clear_native_cache()

    @requires_native
    def test_flavor_pin_is_honored(self):
        with backend("native", native="cc"):
            assert native_flavor() == "cc"

    @pytest.mark.parametrize(
        "kernel, flavor",
        [(None, None), ("fast", None), ("native", None), ("reference", None), (None, "off")],
    )
    def test_reported_tier_is_the_built_tier(self, monkeypatch, kernel, flavor):
        """``kernel_backend()`` and kernel construction read one default."""
        for name, value in ((KERNEL_ENV, kernel), (NATIVE_ENV, flavor)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        clear_native_cache()
        clear_kernel_cache()
        try:
            arr = np.arange(8, dtype=np.int64) % 3
            built = {SequenceKernel(arr)._ops is not None, StreamKernel()._ops is not None}
            reported = kernel_backend()
            if reported == "reference":
                assert maybe_kernel(arr) is None
                assert built == {False}
            else:
                assert built == {reported == "native"}
            if kernel is None and flavor is None:
                # unset: compiled whenever the library builds here
                assert reported == ("native" if native_ops() is not None else "fast")
            if flavor == "off":
                assert reported == "fast"
        finally:
            clear_native_cache()
            clear_kernel_cache()

    @requires_native
    def test_native_kernel_carries_compiled_ops(self):
        with backend("native"):
            kern = SequenceKernel(np.arange(8, dtype=np.int64))
            assert kern._ops is not None
        with backend("fast"):
            kern = SequenceKernel(np.arange(8, dtype=np.int64))
            assert kern._ops is None

    def test_off_kernel_still_correct(self):
        # fallback is not just "doesn't crash": it is the numpy fast path
        arr = np.asarray([0, 1, 2, 0, 1, 3] * 10, dtype=np.int64)
        with backend("native", native="off"):
            kern = SequenceKernel(arr)
            got = run_box_fast(kern, 0, 3, 40, 5)
        assert got == run_box(arr, 0, 3, 40, 5)


# --------------------------------------------------------------------- #
# the shared build cache loads only what this user built
# --------------------------------------------------------------------- #


def _library_name() -> str:
    digest = hashlib.sha256(native_mod._C_SOURCE.encode()).hexdigest()[:16]
    return f"repro_kernel_{digest}.so"


@pytest.mark.skipif(os.name != "posix", reason="POSIX ownership and modes")
class TestBuildCache:
    @pytest.fixture()
    def probe(self, monkeypatch):
        """Point the cache at a directory, probe cc, record every load."""
        loaded = []
        real = native_mod.ctypes.CDLL

        def spy(path, *args, **kwargs):
            loaded.append(str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(native_mod.ctypes, "CDLL", spy)
        monkeypatch.setenv(NATIVE_ENV, "cc")

        def run(cache_dir):
            monkeypatch.setenv(NATIVE_CACHE_ENV, str(cache_dir))
            clear_native_cache()
            try:
                return native_ops(), loaded
            finally:
                clear_native_cache()

        return run

    @staticmethod
    def _usable(ops):
        arr = np.asarray([0, 1, 0, 2, 1, 0], dtype=np.int64)
        reuse = np.empty(len(arr), dtype=np.int64)
        prev = np.asarray([-1, -1, 0, -1, 1, 2], dtype=np.int64)
        ops.reuse_sweep(prev, 0, len(arr), 99, np.zeros(len(arr) + 1, dtype=np.int64), len(arr), reuse)
        return reuse.tolist() == [99, 99, 1, 99, 2, 2]

    @requires_native
    def test_fresh_cache_dir_is_private(self, probe, tmp_path):
        cache = tmp_path / "new" / "cache"
        ops, loaded = probe(cache)
        assert ops is not None and self._usable(ops)
        assert cache.stat().st_mode & 0o777 == 0o700
        lib = cache / _library_name()
        assert loaded == [str(lib)]
        assert not lib.stat().st_mode & 0o022

    @requires_native
    def test_world_writable_dir_with_planted_library_is_never_loaded(self, probe, tmp_path):
        cache = tmp_path / "shared"
        cache.mkdir()
        cache.chmod(0o777)
        planted = cache / _library_name()
        planted.write_bytes(b"not a library")
        with pytest.warns(RuntimeWarning, match="not private"):
            ops, loaded = probe(cache)
        assert ops is not None and self._usable(ops)
        assert str(planted) not in loaded
        assert all(not path.startswith(str(cache)) for path in loaded)
        assert planted.read_bytes() == b"not a library"

    @requires_native
    def test_symlinked_dir_is_rejected(self, probe, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        link = tmp_path / "link"
        link.symlink_to(real)
        with pytest.warns(RuntimeWarning, match="not private"):
            ops, loaded = probe(link)
        assert ops is not None
        assert not any(path.startswith((str(link), str(real))) for path in loaded)

    def test_no_writable_temp_dir_falls_back_to_numpy(self, probe, tmp_path, monkeypatch):
        cache = tmp_path / "shared"
        cache.mkdir()
        cache.chmod(0o777)

        def unwritable(*args, **kwargs):
            raise PermissionError("read-only temp dir")

        monkeypatch.setattr(native_mod.tempfile, "mkdtemp", unwritable)
        with pytest.warns(RuntimeWarning, match="not private"):
            ops, loaded = probe(cache)
        assert ops is None and loaded == []

    @requires_native
    def test_group_writable_library_is_rejected(self, probe, tmp_path):
        cache = tmp_path / "cache"
        ops, _ = probe(cache)  # a clean build first
        lib = cache / _library_name()
        lib.chmod(0o775)
        with pytest.warns(RuntimeWarning, match="not private"):
            ops, loaded = probe(cache)
        assert ops is not None
        assert loaded[-1] != str(lib)


# --------------------------------------------------------------------- #
# property: native ≡ fast ≡ reference on random boxes
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
@settings(max_examples=200, deadline=None)
def test_native_box_three_way_identical(seq, start_frac, height, budget, miss_cost):
    arr = np.asarray(seq, dtype=np.int64)
    start = int(start_frac * len(arr))  # includes start == n
    with backend("native"):
        native_run = run_box_fast(SequenceKernel(arr), start, height, budget, miss_cost)
    with backend("fast"):
        fast_run = run_box_fast(SequenceKernel(arr), start, height, budget, miss_cost)
    assert native_run == fast_run
    assert native_run == run_box(arr, start, height, budget, miss_cost)


@requires_native
@given(
    seq=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=120),
    chunks=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
    probes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.99),
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=0, max_value=80),
        ),
        min_size=1,
        max_size=6,
    ),
    miss_cost=st.sampled_from([2, 5, 8]),
)
@settings(max_examples=100, deadline=None)
def test_native_stream_kernel_identical_across_chunked_appends(
    seq, chunks, probes, miss_cost
):
    """Streamed appends + boxes + compaction, native vs fast, same answers.

    Both kernels see the same chunk boundaries and the same interleaved
    box/compact schedule; every box must agree, including boxes evaluated
    after ``compact`` re-based the window.
    """
    arr = np.asarray(seq, dtype=np.int64)

    def play(backend_name):
        with backend(backend_name):
            sk = StreamKernel()
            runs = []
            i = 0
            ci = 0
            while i < len(arr):
                step = chunks[ci % len(chunks)]
                ci += 1
                sk.append(arr[i : i + step])
                i += step
                for frac, height, budget in probes:
                    start = sk.base + int(frac * (sk.end - sk.base))
                    runs.append(tuple(sk.box(start, height, budget, miss_cost)))
                # compact behind the median probe position to exercise the
                # re-based window on the next round
                mid = sk.base + (sk.end - sk.base) // 2
                sk.compact(mid)
            return runs

    assert play("native") == play("fast")


# --------------------------------------------------------------------- #
# property: ladders + offline DP on non-power-of-two lattices
# --------------------------------------------------------------------- #


@requires_native
@given(
    seed=st.integers(0, 10**6),
    k=st.integers(min_value=3, max_value=24),
    p_frac=st.floats(min_value=0.0, max_value=1.0),
    s=st.sampled_from([2, 4, 7]),
    n=st.integers(min_value=10, max_value=220),
)
@settings(max_examples=60, deadline=None)
def test_native_offline_dp_three_way_identical(seed, k, p_frac, s, n):
    """The whole DP pipeline — ladder plans included — is bit-identical.

    ``optimal_box_profile`` exercises every native primitive at once
    (reuse sweep, ladder/block probes, DP relaxation); k and p are *not*
    restricted to powers of two.
    """
    p = 1 + int(p_frac * (k - 1))  # any 1 <= p <= k, non-power-of-two included
    lattice = HeightLattice(k, p)
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, max(2, k), size=n).astype(np.int64)

    def solve(backend_name):
        with backend(backend_name):
            res = optimal_box_profile(seq, lattice, s)
            return res.impact, tuple(res.profile), res.distances.tolist()

    native = solve("native")
    assert native == solve("fast")
    assert native == solve("reference")
