"""Tests for trace-store-fed streaming execution (bounded-memory path)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.parallel.streaming as streaming_mod
from repro.exec.cache import workload_fingerprint
from repro.obs import metrics as obs_metrics
from repro.paging.engine import run_box
from repro.paging.kernel import KERNEL_ENV, native_flavor
from repro.parallel.streaming import (
    BoxFeed,
    BoxServer,
    StreamingWorkload,
    make_box_server,
    open_streaming,
    request_feed,
)
from repro.traces.store import write_store
from repro.workloads import ParallelWorkload, make_parallel_workload


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture()
def stored(tmp_path):
    wl = make_parallel_workload(p=3, n_requests=500, k=32, rng=rng(4))
    store = write_store(tmp_path / "s.store", wl, chunk_rows=64)
    return wl, store


class TestStreamingWorkload:
    def test_structural_surface(self, stored):
        wl, store = stored
        sw = open_streaming(store)
        assert sw.p == wl.p
        assert sw.lengths == wl.lengths
        assert sw.name.startswith("stream:")
        assert sw.total_requests == sum(wl.lengths)
        assert sw.meta["streaming"] is True

    def test_shares_cache_fingerprint_with_memory_form(self, stored):
        wl, store = stored
        sw = open_streaming(store)
        assert workload_fingerprint(sw) == workload_fingerprint(wl)

    def test_chunks_reassemble_column(self, stored):
        wl, store = stored
        sw = open_streaming(store)
        col = np.concatenate(list(sw.chunks(1)))
        np.testing.assert_array_equal(col, wl.sequences[1])

    def test_chunk_traffic_counters(self, stored):
        _, store = stored
        sw = open_streaming(store)
        with obs_metrics.collecting() as reg:
            list(sw.chunks(0))
        snap = reg.snapshot()["counters"]
        assert snap["sim.traces.chunks{proc=0}"] >= 1
        assert snap["sim.traces.requests_streamed{proc=0}"] == sw.lengths[0]

    def test_pickles_as_store_path(self, stored):
        _, store = stored
        sw = open_streaming(store)
        clone = pickle.loads(pickle.dumps(sw))
        assert isinstance(clone, StreamingWorkload)
        assert clone.content_digest == sw.content_digest
        assert clone.lengths == sw.lengths

    def test_materialize_matches(self, stored):
        wl, store = stored
        mat = open_streaming(store).materialize()
        for a, b in zip(mat.sequences, wl.sequences):
            np.testing.assert_array_equal(np.asarray(a), b)


@pytest.fixture()
def native_tier(monkeypatch):
    """A feed's kernel exists only on the compiled tier: pin it, or skip."""
    if native_flavor() is None:
        pytest.skip("compiled tier unavailable (no C compiler)")
    monkeypatch.setenv(KERNEL_ENV, "native")


@pytest.mark.usefixtures("native_tier")
class TestBoxFeed:
    def test_serves_boxes_identical_to_run_box(self, stored):
        wl, store = stored
        sw = open_streaming(store)
        feed = BoxFeed(sw.chunks(0), sw.lengths[0])
        seq = wl.sequences[0]
        pos = 0
        while pos < len(seq):
            ref = run_box(seq, pos, 8, 64, 4)
            got = feed.serve(pos, 8, 64, 4)
            assert (got.start, got.end, got.hits, got.faults) == (
                ref.start, ref.end, ref.hits, ref.faults,
            )
            pos = got.end if got.end > pos else pos + 1

    def test_resident_rows_bounded_by_budget_plus_chunk(self, stored):
        # every append first compacts up to the box start, and appends stop
        # once the window reaches the budget: budget + chunk rows at most
        wl, store = stored
        sw = open_streaming(store)
        feed = BoxFeed(sw.chunks(0), sw.lengths[0])
        budget, chunk_rows = 64, store.chunk_rows
        peak = 0
        pos = 0
        while pos < sw.lengths[0]:
            r = feed.serve(pos, 8, budget, 4)
            peak = max(peak, feed.resident_rows)
            pos = r.end if r.end > pos else pos + 1
        assert peak <= budget + chunk_rows

    def test_fully_swept_short_column_skips_ensure(self, monkeypatch):
        # one chunk holds the whole column; once it is swept, boxes whose
        # budget runs past the end must not re-enter ensure()
        seq = np.arange(50, dtype=np.int64) % 7
        feed = BoxFeed(iter([seq]), len(seq))
        first = feed.serve(0, 4, 60, 4)
        assert feed.kernel.end == len(seq)
        calls = []
        real = BoxFeed.ensure

        def counting(self, upto):
            calls.append(upto)
            real(self, upto)

        monkeypatch.setattr(BoxFeed, "ensure", counting)
        pos = first.end
        while pos < len(seq):
            got = feed.serve(pos, 4, 60, 4)
            assert got == run_box(seq, pos, 4, 60, 4)
            pos = got.end
        assert calls == []

    def test_truncated_stream_raises(self):
        chunks = iter([np.arange(10, dtype=np.int64)])
        feed = BoxFeed(chunks, length=50)
        with pytest.raises(ValueError, match="stream ended"):
            feed.ensure(40)


class TestBoxServer:
    def test_strategy_matrix(self, stored, monkeypatch):
        wl, store = stored
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        # unset: the event loops wherever the compiled tier builds
        assert make_box_server(wl, 4).backend == ("event" if native_flavor() else "reference")
        assert make_box_server(wl, 4).streaming is False
        sw = open_streaming(store)
        assert make_box_server(sw, 4).streaming is True
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert make_box_server(wl, 4).backend == "reference"
        # the reference walks the memory-mapped column: no stream feeds
        assert make_box_server(sw, 4)._feeds is None

    @pytest.mark.parametrize("sim", ["event", "reference"])
    @pytest.mark.parametrize("streamed", [False, True])
    def test_all_cells_serve_identical_boxes(self, stored, monkeypatch, sim, streamed):
        wl, store = stored
        if sim == "reference":
            monkeypatch.setenv("REPRO_KERNEL", "reference")
        else:
            monkeypatch.delenv("REPRO_KERNEL", raising=False)
        target = open_streaming(store) if streamed else wl
        server = make_box_server(target, 4)
        seq = wl.sequences[2]
        pos = 0
        while pos < len(seq):
            ref = run_box(seq, pos, 16, 128, 4)
            got = server.serve(2, pos, 16, 128)
            assert (got.start, got.end, got.hits, got.faults) == (
                ref.start, ref.end, ref.hits, ref.faults,
            ), f"cell sim={sim} streamed={streamed}"
            pos = got.end if got.end > pos else pos + 1

    def test_resident_rows_zero_when_not_streaming(self, stored):
        wl, _ = stored
        assert make_box_server(wl, 4).resident_rows() == 0


class TestRequestFeed:
    @staticmethod
    def _int_lists(lists):
        assert all(type(x) is list for x in lists)
        assert all(type(page) is int for x in lists for page in x)
        return [page for x in lists for page in x]

    def test_memory_feed_walks_column(self, stored):
        wl, _ = stored
        lists = list(request_feed(wl, 0))
        assert len(lists) == 1  # 500 rows fit one feed slice
        assert self._int_lists(lists) == wl.sequences[0].tolist()

    def test_memory_feed_cuts_long_columns(self, stored, monkeypatch):
        wl, _ = stored
        monkeypatch.setattr(streaming_mod, "_FEED_ROWS", 64)
        lists = list(request_feed(wl, 1))
        assert [len(x) for x in lists] == [64] * 7 + [500 - 7 * 64]
        assert self._int_lists(lists) == wl.sequences[1].tolist()

    def test_streamed_feed_walks_column(self, stored):
        wl, store = stored
        sw = open_streaming(store)
        lists = list(request_feed(sw, 2))
        assert [len(x) for x in lists] == [len(c) for c in sw.chunks(2)]
        assert len(lists) > 1
        assert self._int_lists(lists) == wl.sequences[2].tolist()

    def test_empty_column_yields_nothing(self):
        wl = ParallelWorkload(sequences=[np.zeros(0, dtype=np.int64)], name="empty")
        assert list(request_feed(wl, 0)) == []
