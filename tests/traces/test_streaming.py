"""Streaming equivalence: store-fed simulation and statistics are
bit-identical to the in-memory paths."""

from __future__ import annotations

import tracemalloc

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
        # on both tiers: the compiled stream kernel against the compiled
        # box walk, and the reference window of raw requests against the
        # dict-LRU over the whole sequence
        rng = np.random.default_rng(1000 + trial)
        seq = rng.integers(0, rng.integers(4, 80), size=rng.integers(0, 3000))
        heights = rng.integers(1, 40, size=200).tolist()
        mc = int(rng.integers(2, 12))
        start = int(rng.integers(0, max(len(seq), 1)))
        max_boxes = int(rng.integers(1, 60)) if rng.random() < 0.5 else None
        chunks = split_random(seq, rng)
        for tier in ("native", "reference"):
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

    def test_starts_outside_the_sequence_match_in_memory(self, monkeypatch):
        # before the first request (the same ValueError), at and past the
        # end, with and without a box limit, on both tiers
        seq = np.arange(100) % 13
        chunks = [seq[:7], seq[7:7], seq[7:60], seq[60:]]

        def run(fn, data, start, max_boxes):
            try:
                return fn(data, [4, 2, 8] * 30, 3, start=start, max_boxes=max_boxes)
            except ValueError as exc:
                return str(exc)

        for tier in ("native", "reference"):
            monkeypatch.setenv(KERNEL_ENV, tier)
            clear_kernel_cache()
            for start in (-3, 99, 100, 150):
                for max_boxes in (None, 0, 2):
                    want = run(execute_profile, seq, start, max_boxes)
                    assert run(execute_profile_streaming, chunks, start, max_boxes) == want, (tier, start)
        clear_kernel_cache()

    def test_reference_tier_peak_is_bounded(self, tmp_path, monkeypatch):
        # the no-compiler path keeps a box window plus a chunk, like the
        # compiled one: a quarter of the column's bytes at most, at the
        # shape of benchmarks/bench_traces.py
        monkeypatch.setenv(KERNEL_ENV, "reference")
        chunk_rows, n_rows, miss_cost = 8192, 24 * 8192, 8
        seq = np.random.default_rng(99).integers(0, 4096, size=n_rows)
        store = write_store(tmp_path / "big.trc", ParallelWorkload(sequences=[seq], name="big"), chunk_rows=chunk_rows)
        heights = [256, 512, 1024] * 1_000
        ref = execute_profile(np.array(store.column(0)), heights, miss_cost)
        tracemalloc.start()
        try:
            run = execute_store_profile(store, 0, heights, miss_cost)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run == ref
        assert peak < n_rows * 8 / 4, f"streaming peak {peak} B against a column of {n_rows * 8} B"


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
