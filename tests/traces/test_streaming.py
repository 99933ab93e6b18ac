"""Streaming equivalence: store-fed simulation and statistics are
bit-identical to the in-memory paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paging import execute_profile, execute_profile_streaming
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache
from repro.traces import write_store
from repro.traces.stream import (
    characterize_store,
    characterize_store_all,
    execute_store_profile,
)
from repro.workloads import ParallelWorkload
from repro.workloads.stats import characterize

RNG = np.random.default_rng(31)


def split_random(seq, rng):
    """Cut a sequence into random-length consecutive chunks."""
    cuts = sorted(rng.choice(len(seq) + 1, size=rng.integers(0, 8), replace=True).tolist())
    parts = np.split(seq, cuts)
    return [p for p in parts]


class TestExecuteProfileStreaming:
    @pytest.mark.parametrize("trial", range(20))
    def test_random_equivalence(self, trial, monkeypatch):
        # on every tier: under REPRO_KERNEL=reference the in-memory run is
        # the dict-LRU, so this holds the (numpy) stream kernel to it
        rng = np.random.default_rng(1000 + trial)
        seq = rng.integers(0, rng.integers(4, 80), size=rng.integers(0, 3000))
        heights = rng.integers(1, 40, size=200).tolist()
        mc = int(rng.integers(2, 12))
        start = int(rng.integers(0, max(len(seq), 1)))
        max_boxes = int(rng.integers(1, 60)) if rng.random() < 0.5 else None
        chunks = split_random(seq, rng)
        for tier in ("native", "fast", "reference"):
            monkeypatch.setenv(KERNEL_ENV, tier)
            clear_kernel_cache()
            ref = execute_profile(seq, heights, mc, start=start, max_boxes=max_boxes)
            got = execute_profile_streaming(
                chunks, heights, mc, start=start, max_boxes=max_boxes
            )
            assert got == ref, tier
        clear_kernel_cache()

    def test_empty_stream(self):
        run = execute_profile_streaming([], [4, 4], miss_cost=3)
        assert run.completed and run.position == 0 and run.runs == ()

    def test_empty_chunks_are_transparent(self):
        seq = np.arange(50) % 7
        empty = np.asarray([], dtype=np.int64)
        chunks = [empty, seq[:10], empty, empty, seq[10:], empty]
        ref = execute_profile(seq, [8] * 100, 4)
        assert execute_profile_streaming(chunks, [8] * 100, 4) == ref

    def test_rejects_2d_chunks(self):
        with pytest.raises(ValueError, match="1-D"):
            execute_profile_streaming([np.zeros((2, 2), dtype=np.int64)], [4], 3)


class TestStoreStreaming:
    @pytest.fixture
    def pair(self, tmp_path):
        wl = ParallelWorkload(
            sequences=[RNG.integers(0, 64, size=5000) + 1000 * i for i in range(2)],
            name="stream-test",
        )
        store = write_store(tmp_path / "s.trc", wl, chunk_rows=321)
        return wl, store

    def test_execute_store_profile_identical(self, pair):
        wl, store = pair
        heights = [4, 16, 64, 256] * 500
        for proc in range(wl.p):
            ref = execute_profile(wl.sequences[proc], heights, 8)
            got = execute_store_profile(store, proc, heights, 8, verify=True)
            assert got == ref
            assert got.completed

    def test_characterize_store_identical(self, pair):
        wl, store = pair
        for window in (1, 37, 1000, 10_000):
            for proc in range(wl.p):
                assert characterize_store(store, proc, window=window) == characterize(
                    wl.sequences[proc], window=window
                )

    def test_characterize_store_all(self, pair):
        wl, store = pair
        stats = characterize_store_all(store, window=200)
        assert set(stats) == {0, 1}
        assert stats[0] == characterize(wl.sequences[0], window=200)
