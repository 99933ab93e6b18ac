"""Tests for the semantic trace verifier (and via it, every simulator)."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlackBoxPar, DetPar, RandPar
from repro.parallel import EqualPartition, verify_trace
from repro.workloads import ParallelWorkload, cyclic, make_parallel_workload


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSimulatorsPassReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_det_par(self, seed):
        wl = make_parallel_workload(p=5, n_requests=200, k=32, rng=rng(seed))
        res = DetPar(64, 8).run(wl)
        v = verify_trace(res, wl)
        assert v.ok, v.errors[:5]
        assert v.boxes_checked == len(res.trace)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rand_par(self, seed):
        wl = make_parallel_workload(p=5, n_requests=200, k=32, rng=rng(seed))
        res = RandPar(64, 8, rng(seed + 50)).run(wl)
        assert verify_trace(res, wl).ok

    @pytest.mark.parametrize("seed", [0, 1])
    def test_black_box(self, seed):
        wl = make_parallel_workload(p=5, n_requests=200, k=32, rng=rng(seed))
        res = BlackBoxPar(64, 8).run(wl)
        assert verify_trace(res, wl).ok

    def test_equal_partition(self):
        wl = ParallelWorkload.from_local([cyclic(100, 4), cyclic(80, 7)])
        res = EqualPartition(16, 8).run(wl)
        assert verify_trace(res, wl).ok

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_random_workloads_replay(self, seed):
        wl = make_parallel_workload(p=4, n_requests=120, k=16, rng=rng(seed), kind="multiscale")
        for alg in (DetPar(32, 8), RandPar(32, 8, rng(seed))):
            res = alg.run(wl)
            v = verify_trace(res, wl)
            assert v.ok, (alg.name, v.errors[:3])


class TestVerifierBackendsAndStreaming:
    def _wl(self):
        return make_parallel_workload(p=3, n_requests=150, k=16, rng=rng(8))

    def test_reference_backend_verifies_identically(self, monkeypatch):
        wl = self._wl()
        res = DetPar(32, 8).run(wl)
        assert verify_trace(res, wl).ok
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        v = verify_trace(res, wl)
        assert v.ok, v.errors[:3]
        assert v.boxes_checked == len(res.trace)

    def test_streamed_workload_verifies(self, tmp_path):
        from repro.parallel.streaming import open_streaming
        from repro.traces.store import write_store

        wl = self._wl()
        sw = open_streaming(write_store(tmp_path / "v.store", wl, chunk_rows=32))
        res = DetPar(32, 8).run(sw)
        v = verify_trace(res, sw)
        assert v.ok, v.errors[:3]
        # and the streamed run verifies against the in-memory workload too
        assert verify_trace(res, wl).ok


class TestVerifierCatchesCorruption:
    def _good_run(self):
        wl = ParallelWorkload.from_local([cyclic(120, 5) for _ in range(3)])
        return wl, DetPar(32, 8).run(wl)

    def test_detects_wrong_counts(self):
        wl, res = self._good_run()
        idx = next(i for i, r in enumerate(res.trace) if r.served > 0)
        bad = res.trace[idx]._replace(hits=res.trace[idx].hits + 1, faults=max(0, res.trace[idx].faults - 1))
        res.trace[idx] = bad
        v = verify_trace(res, wl)
        assert not v.ok
        assert any("claims" in e for e in v.errors)

    def test_detects_wrong_progress(self):
        wl, res = self._good_run()
        idx = next(i for i, r in enumerate(res.trace) if r.served > 1)
        bad = res.trace[idx]._replace(served_end=res.trace[idx].served_end - 1)
        res.trace[idx] = bad
        v = verify_trace(res, wl)
        assert not v.ok

    def test_detects_wrong_completion_time(self):
        wl, res = self._good_run()
        res.completion_times[0] += 1
        v = verify_trace(res, wl)
        assert not v.ok
        assert any("completion" in e for e in v.errors)

    def test_detects_missing_service(self):
        wl, res = self._good_run()
        proc0 = [i for i, r in enumerate(res.trace) if r.proc == 0]
        last = proc0[-1]
        res.trace.pop(last)
        v = verify_trace(res, wl)
        assert not v.ok
