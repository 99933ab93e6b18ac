"""Tests for run summaries, utilization, and the algorithm registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import (
    ALGORITHM_REGISTRY,
    BoxRecord,
    ParallelRunResult,
    RunSpec,
    cache_utilization,
    make_algorithm,
    makespan_lower_bound,
    register_algorithm,
    summarize,
)
from repro.workloads import ParallelWorkload, cyclic


def result_with(trace, completions=(10,), cache=16, s=5):
    return ParallelRunResult(
        algorithm="x",
        completion_times=np.asarray(completions, dtype=np.int64),
        trace=trace,
        cache_size=cache,
        miss_cost=s,
    )


def rec(height, start, end, proc=0):
    return BoxRecord(
        proc=proc, height=height, start=start, end=end,
        served_start=0, served_end=0, hits=0, faults=0,
    )


class TestUtilization:
    def test_no_trace(self):
        assert cache_utilization(result_with([])) == 0.0

    def test_full_usage(self):
        res = result_with([rec(16, 0, 10)])
        assert cache_utilization(res) == pytest.approx(1.0)

    def test_half_usage(self):
        res = result_with([rec(8, 0, 10)])
        assert cache_utilization(res) == pytest.approx(0.5)

    def test_gap_counts_as_idle(self):
        res = result_with([rec(16, 0, 5), rec(16, 15, 20)])
        assert cache_utilization(res) == pytest.approx(0.5)


class TestSummarize:
    def test_without_bounds(self):
        res = result_with([rec(8, 0, 10)], completions=(10, 20))
        s = summarize(res)
        assert s.makespan == 20
        assert s.mean_completion == 15.0
        assert s.makespan_ratio is None
        assert s.xi_measured == pytest.approx(0.5)

    def test_with_bounds(self):
        wl = ParallelWorkload.from_local([cyclic(50, 4)])
        lb = makespan_lower_bound(wl, 16, 5, include_impact=False)
        res = result_with([rec(8, 0, 10)], completions=(2 * lb.value,))
        s = summarize(res, makespan_lb=lb, mean_lb=float(lb.value))
        assert s.makespan_ratio == pytest.approx(2.0)
        assert s.mean_completion_ratio == pytest.approx(2.0)

    def test_as_dict_roundable(self):
        res = result_with([rec(8, 0, 10)])
        d = summarize(res).as_dict()
        assert d["algorithm"] == "x"
        assert "makespan_ratio" in d


class TestRegistry:
    def test_builtins_registered(self):
        for name in (
            "rand-par",
            "det-par",
            "black-box-green",
            "equal-partition",
            "best-static-partition",
            "global-lru",
        ):
            assert name in ALGORITHM_REGISTRY

    def test_make_algorithm_runs(self):
        wl = ParallelWorkload.from_local([cyclic(40, 3), cyclic(40, 5)])
        for name in ALGORITHM_REGISTRY:
            alg = make_algorithm(RunSpec(name, 32, 8, seed=1))
            res = alg.run(wl)
            assert res.makespan > 0, name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            make_algorithm(RunSpec("nope", 16, 4))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_algorithm("det-par", lambda k, s, seed: None)  # type: ignore[arg-type]
