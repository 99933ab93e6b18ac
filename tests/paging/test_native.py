"""The native kernel tier must be bit-identical to the reference.

The native tier (the default: a cc-compiled shared library, else a
fallback to the python loops of the reference tier) re-implements the
three inner loops of the paging kernel: the reuse-distance sweep, the
per-box service walk, and the offline green DP.  Its only contract is
*exactness*: every observable — box endpoints, hit/fault splits, DP
distances and parents — must equal the dict-LRU reference bit for bit.
These tests pin that equivalence property-style (random boxes, the
offline DP on non-power-of-two lattices, streamed chunk appends with
compaction, the compiled append's columns against a per-request oracle)
plus the operational surface: backend selection, the no-compiler
fallback (a failed build), and the checks on the shared build cache.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.box import HeightLattice
from repro.green.offline import optimal_box_profile
import repro.paging._native as native_mod
from repro.paging._native import NATIVE_CACHE_ENV, clear_native_cache, native_ops
from repro.paging.engine import run_box
from repro.paging.kernel import (
    KERNEL_ENV,
    SequenceKernel,
    StreamKernel,
    box_walk,
    clear_kernel_cache,
    kernel_backend,
    native_flavor,
    run_box_fast,
)

HAVE_NATIVE = native_flavor() is not None

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled tier unavailable (no C compiler)"
)


@contextmanager
def backend(value: str):
    """Temporarily pin ``$REPRO_KERNEL``.

    A context manager instead of monkeypatch so hypothesis-driven tests
    can flip backends per example; kernels capture their backend at
    construction, so the cache is cleared on entry and exit.
    """
    saved = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = value
    clear_kernel_cache()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved
        clear_kernel_cache()


def _without_compiler(monkeypatch, tmp_path):
    """Simulate a host with no C compiler: the build command fails and an
    empty cache holds no library to load."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "empty-cache"))
    clear_native_cache()


# --------------------------------------------------------------------- #
# backend selection and the no-compiler fallback
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_native_resolves_to_native_or_reference(self):
        with backend("native"):
            assert kernel_backend() == ("native" if HAVE_NATIVE else "reference")

    def test_compiled_alias(self):
        with backend("compiled"):
            assert kernel_backend() == ("native" if HAVE_NATIVE else "reference")

    def test_invalid_backend_rejected(self):
        with backend("turbo"):
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernel_backend()

    @pytest.mark.parametrize(
        "kernel, compiler",
        [(None, None), ("native", None), ("reference", None), (None, "false")],
    )
    def test_reported_tier_is_the_built_tier(self, monkeypatch, tmp_path, kernel, compiler):
        """``kernel_backend()`` and kernel construction read one default."""
        if kernel is None:
            monkeypatch.delenv(KERNEL_ENV, raising=False)
        else:
            monkeypatch.setenv(KERNEL_ENV, kernel)
        if compiler is not None:
            _without_compiler(monkeypatch, tmp_path)
        clear_native_cache()
        clear_kernel_cache()
        try:
            arr = np.arange(8, dtype=np.int64) % 3
            reported = kernel_backend()
            if reported == "reference":
                # the python loops run, and no kernel can be built
                assert box_walk(arr).func is run_box
                for build in (lambda: SequenceKernel(arr), StreamKernel):
                    with pytest.raises(RuntimeError, match="compiled tier"):
                        build()
            else:
                assert isinstance(box_walk(arr), SequenceKernel)
                assert SequenceKernel(arr)._ops is StreamKernel()._ops is native_ops()
            if kernel is None and compiler is None:
                # unset: compiled whenever the library builds here
                assert reported == ("native" if native_ops() is not None else "reference")
            if compiler is not None:
                assert reported == "reference"
        finally:
            clear_native_cache()
            clear_kernel_cache()

    @requires_native
    def test_native_kernel_carries_compiled_ops(self):
        with backend("native"):
            kern = SequenceKernel(np.arange(8, dtype=np.int64))
            assert kern._ops is not None
        with backend("reference"):
            with pytest.raises(RuntimeError, match="compiled tier"):
                SequenceKernel(np.arange(8, dtype=np.int64))

    def test_native_off_forces_fallback_to_reference(self, monkeypatch, tmp_path):
        # the native tier is off when the library does not build: the
        # failed-compile branch of the build yields no library and no error
        _without_compiler(monkeypatch, tmp_path)
        try:
            with backend("native"):
                assert native_flavor() is None
                assert kernel_backend() == "reference"
                with pytest.raises(RuntimeError, match="resolves to 'reference'"):
                    SequenceKernel(np.arange(8, dtype=np.int64))
        finally:
            clear_native_cache()

    def test_off_kernel_still_correct(self, monkeypatch, tmp_path):
        # fallback is not just "doesn't crash": it is the reference
        # tier's python loops, with the compiled tier's answers
        arr = np.asarray([0, 1, 2, 0, 1, 3] * 10, dtype=np.int64)
        lattice = HeightLattice(8, 2)
        with backend("native"):
            want = optimal_box_profile(arr, lattice, 5)
        _without_compiler(monkeypatch, tmp_path)
        try:
            with backend("native"):
                walk = box_walk(arr)
                assert walk.func is run_box
                assert walk(0, 3, 40, 5) == run_box(arr, 0, 3, 40, 5)
                got = optimal_box_profile(arr, lattice, 5)
            assert (got.impact, list(got.profile)) == (want.impact, list(want.profile))
            assert got.distances.tolist() == want.distances.tolist()
        finally:
            clear_native_cache()


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
        # the columns of [0, 1, 0, 2, 1, 0]; a height-3 box from 0 hits
        # rows 2, 4 and 5 and misses the rest at cost 5
        prev = np.asarray([-1, -1, 0, -1, 1, 2], dtype=np.int64)
        reuse = np.asarray([99, 99, 1, 99, 2, 2], dtype=np.int64)
        return ops.box_probe(prev.ctypes.data, reuse.ctypes.data, 0, 6, 0, 3, 100, 5) == [6, 3, 18]

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

    def test_no_writable_temp_dir_falls_back_to_reference(self, probe, tmp_path, monkeypatch):
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
# property: native (sequence and stream) ≡ reference on random boxes
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
    # the compiled walk over a sequence's columns and over a stream
    # window's block, and the dict-LRU reference
    arr = np.asarray(seq, dtype=np.int64)
    start = int(start_frac * len(arr))  # includes start == n
    with backend("native"):
        native_run = run_box_fast(SequenceKernel(arr), start, height, budget, miss_cost)
        stream = StreamKernel()
        stream.append(arr)
        stream_run = run_box_fast(stream, start, height, budget, miss_cost)
    assert native_run == stream_run
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
    """Streamed appends + boxes + compaction against the reference box.

    Boxes interleave with chunk appends and compactions; every box must
    equal the dict-LRU box over the whole sequence, including boxes
    evaluated after ``compact`` re-based the window.  A box that runs
    past the appended rows is cut there: the reference runs over the
    rows appended so far.
    """
    arr = np.asarray(seq, dtype=np.int64)
    with backend("native"):
        sk = StreamKernel()
        i = 0
        ci = 0
        while i < len(arr):
            step = chunks[ci % len(chunks)]
            ci += 1
            sk.append(arr[i : i + step])
            i += step
            for frac, height, budget in probes:
                start = sk.base + int(frac * (sk.end - sk.base))
                got = sk.box(start, height, budget, miss_cost)
                assert got == run_box(arr[: sk.end], start, height, budget, miss_cost)
            # compact behind the median probe position to exercise the
            # re-based window on the next round
            mid = sk.base + (sk.end - sk.base) // 2
            sk.compact(mid)


COLD = int(np.iinfo(np.int64).max)


def oracle_row(pages, q, base):
    """Row ``q``'s previous occurrence at or after ``base`` (``-1`` when
    none) and the distinct pages strictly between them (``COLD`` when
    none), from the requests themselves."""
    j = next((j for j in range(q - 1, base - 1, -1) if pages[j] == pages[q]), -1)
    return (j, len(set(pages[j + 1 : q]))) if j >= 0 else (-1, COLD)


@requires_native
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=400),
    pages=st.integers(min_value=1, max_value=60),
    chunks=st.lists(
        st.sampled_from([1, 2, 7, 64, 300]) | st.integers(min_value=1, max_value=70),
        min_size=1,
        max_size=10,
    ),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_compiled_append_builds_the_oracle_columns(seed, n, pages, chunks, cuts):
    """``repro_stream_append`` against a per-request oracle, column by column.

    Random chunks with compactions in between, including whole-window
    compactions, page tables that must grow mid-chunk, and moves of the
    retained rows to the front of the block: after every append, each
    retained row's previous occurrence and reuse distance equal
    :func:`oracle_row`'s at the window base its chunk was appended at;
    a negative offset (no retained previous occurrence) counts as -1.
    The sequence is drawn from a seed, not as a list, so that examples
    run long enough to grow and move the block.
    """
    arr = np.random.default_rng(seed).integers(0, pages, size=n).astype(np.int64)
    pages_l = arr.tolist()
    want = []  # (global prev or -1, reuse) per appended row
    with backend("native"):
        sk = StreamKernel()
        i = 0
        for step, cut in zip(itertools.cycle(chunks), itertools.cycle(cuts)):
            if i >= len(arr):
                break
            sk.append(arr[i : i + step])
            want += [oracle_row(pages_l, q, sk.base) for q in range(i, min(i + step, n))]
            i += step
            rows = want[sk.base : sk.end]
            assert np.maximum(sk.prev_occ, -1).tolist() == [j - sk.base if j >= sk.base else -1 for j, _ in rows]
            assert sk.reuse_dist.tolist() == [r for _, r in rows]
            sk.compact(sk.base + int(cut * len(sk)))


# --------------------------------------------------------------------- #
# property: offline DP on non-power-of-two lattices
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
def test_native_offline_dp_matches_reference(seed, k, p_frac, s, n):
    """The whole DP pipeline is bit-identical: the compiled relaxation
    and the reference probes.

    ``optimal_box_profile`` exercises the native reuse sweep and DP
    relaxation at once; k and p are *not* restricted to powers of two.
    """
    p = 1 + int(p_frac * (k - 1))  # any 1 <= p <= k, non-power-of-two included
    lattice = HeightLattice(k, p)
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, max(2, k), size=n).astype(np.int64)

    def solve(backend_name):
        with backend(backend_name):
            res = optimal_box_profile(seq, lattice, s)
            return res.impact, tuple(res.profile), res.distances.tolist()

    assert solve("native") == solve("reference")
