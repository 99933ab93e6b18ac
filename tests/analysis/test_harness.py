"""Tests for the experiment runner and p-sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_experiment, series_of, sweep_p
from repro.analysis.sweep import default_workload_factory
from repro.parallel import RunSpec
from repro.workloads import ParallelWorkload, cyclic


def small_workload(p=4):
    return ParallelWorkload.from_local([cyclic(120, 4 + i) for i in range(p)])


def spec(name, k=16, xi=2):
    return RunSpec(name, cache_size=xi * k, miss_cost=8, xi=xi)


class TestRunExperiment:
    def test_basic_rows(self):
        rows = run_experiment(
            small_workload(),
            [spec("det-par"), spec("equal-partition")],
            seeds=(0,),
            include_impact_lb=False,
        )
        assert [r.algorithm for r in rows] == ["det-par", "equal-partition"]
        for r in rows:
            assert r.p == 4
            assert r.makespan > 0
            assert r.makespan_ratio is not None and r.makespan_ratio > 0

    def test_xi_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_workload(), [spec("det-par", xi=0)])

    def test_deterministic_algorithm_deduped(self):
        rows = run_experiment(
            small_workload(),
            [spec("det-par")],
            seeds=(0, 1, 2, 3),
            include_impact_lb=False,
        )
        assert rows[0].seeds == 2  # detected identical makespans, stopped

    def test_randomized_algorithm_replicated(self):
        rows = run_experiment(
            small_workload(),
            [spec("rand-par")],
            seeds=(0, 1, 2),
            include_impact_lb=False,
        )
        assert rows[0].seeds >= 2
        assert rows[0].max_makespan_ratio >= rows[0].makespan_ratio

    def test_precomputed_lower_bound_used(self):
        from repro.parallel import makespan_lower_bound

        wl = small_workload()
        lb = makespan_lower_bound(wl, 16, 8, include_impact=False)
        rows = run_experiment(wl, [spec("det-par")], lower_bound=lb)
        assert rows[0].makespan_ratio == pytest.approx(rows[0].makespan / lb.value)

    def test_as_dict(self):
        rows = run_experiment(small_workload(), [spec("equal-partition")], include_impact_lb=False)
        d = rows[0].as_dict()
        assert d["algorithm"] == "equal-partition"
        assert isinstance(d["makespan_ratio"], float)


class TestSweep:
    def test_sweep_shapes(self):
        res = sweep_p(
            ["det-par", "equal-partition"],
            [2, 4],
            miss_cost=8,
            workload_factory=default_workload_factory(kind="cyclic", n_requests_per_proc=60),
            cache_factor=4,
            seeds=(0,),
            include_impact_lb=False,
        )
        assert len(res.rows) == 4
        series = res.series("det-par")
        assert set(series) == {2, 4}

    def test_series_of_sorted(self):
        res = sweep_p(
            ["det-par"],
            [4, 2],
            miss_cost=8,
            workload_factory=default_workload_factory(kind="cyclic", n_requests_per_proc=60),
            seeds=(0,),
            include_impact_lb=False,
        )
        ps, ys = series_of(res, "det-par")
        assert ps.tolist() == [2, 4]
        assert len(ys) == 2

    def test_workload_deterministic_per_p(self):
        kwargs = dict(
            miss_cost=8,
            workload_factory=default_workload_factory(kind="zipf", n_requests_per_proc=80),
            seeds=(0,),
            include_impact_lb=False,
            workload_seed=7,
        )
        a = sweep_p(["det-par"], [4], **kwargs)
        b = sweep_p(["det-par"], [4], **kwargs)
        assert a.rows[0].makespan == b.rows[0].makespan
