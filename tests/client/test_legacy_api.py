"""Dedicated legacy-API module: every pre-existing public call signature
still works after the Session/service redesign.

The :class:`repro.client.Session` facade *fronts* the historical entry
points — it must not fork or break them.  This module pins:

* the stable signatures (`run_experiment`, `sweep_p`,
  `run_named_experiment`, `execution`, `make_algorithm`,
  `register_algorithm`); the positional shims of `run_experiment` and
  `make_algorithm` are gone, so both take ``RunSpec``s only;
* the top-level ``repro`` export set (nothing removed, only added);
* row identity: the facade and the historical API produce the same rows.
"""

import inspect

import pytest

import repro
from repro.analysis.harness import SCHEMA_VERSION, run_experiment
from repro.analysis.sweep import sweep_p
from repro.client import RunRequest, Session, WorkloadSpec
from repro.exec import execution
from repro.experiments import run_named_experiment
from repro.parallel.schedulers import RunSpec, make_algorithm, register_algorithm

WL = WorkloadSpec(p=4, n_requests=120, k=16)

#: The public top-level surface before this PR (the seed contract).
PRE_EXISTING_EXPORTS = {
    "BlackBoxPar", "Box", "BoxProfile", "DetGreen", "DetPar", "HeightLattice",
    "RandGreen", "RandPar", "audit_balance", "audit_well_rounded",
    "inverse_square_distribution", "make_distribution", "optimal_box_profile",
    "prefix_optimal_impacts", "BeladySimulation", "FIFOCache", "LRUCache",
    "belady_faults", "miss_ratio_curve", "run_box", "BestStaticPartition",
    "EqualPartition", "GlobalLRU", "ParallelRunResult", "RunSpec",
    "make_algorithm", "makespan_lower_bound", "mean_completion_lower_bound",
    "register_algorithm", "summarize", "SCHEMA_VERSION", "ExperimentRow",
    "run_experiment", "SweepResult", "sweep_p", "ExecutionEngine",
    "ExecutionPolicy", "FailedCell", "ResultCache", "RunCheckpoint",
    "Telemetry", "WorkUnit", "execution", "MetricsRegistry", "Tracer",
    "observability", "AdversarialInstance", "ParallelWorkload",
    "build_adversarial_instance", "lemma8_opt_makespan",
    "make_parallel_workload", "__version__",
}


def _params(fn):
    return list(inspect.signature(fn).parameters)


class TestStableSignaturesUnchanged:
    def test_run_experiment(self):
        assert _params(run_experiment) == [
            "workload", "algorithms", "seeds",
            "include_impact_lb", "lower_bound", "mean_lower_bound", "engine",
        ]

    def test_sweep_p(self):
        params = _params(sweep_p)
        assert params[:3] == ["algorithms", "p_values", "miss_cost"]
        assert {"cache_factor", "xi", "seeds", "workload_seed"} <= set(params)

    def test_run_named_experiment(self):
        assert _params(run_named_experiment) == ["name", "scale", "seed"]

    def test_execution_scope(self):
        assert _params(execution)[:2] == ["jobs", "cache"]
        assert {"cache_dir", "policy", "checkpoint"} <= set(_params(execution))

    def test_algorithm_registry(self):
        assert _params(make_algorithm) == ["spec"]
        assert _params(register_algorithm) == ["name", "factory", "overwrite"]

    def test_schema_version_unchanged(self):
        # No row field changed in this PR, so no bump (bump-on-change rule).
        assert SCHEMA_VERSION == 4

    def test_top_level_exports_only_grow(self):
        assert PRE_EXISTING_EXPORTS <= set(repro.__all__)
        for name in PRE_EXISTING_EXPORTS:
            assert getattr(repro, name, None) is not None, name


class TestFacadeMatchesLegacyPaths:
    def test_session_run_equals_run_experiment(self):
        request = RunRequest(
            algorithms=("det-par",), cache_size=32, miss_cost=8, seeds=(0,), workload=WL
        )
        with Session() as session:
            reply = session.run(request)
        rows = run_experiment(
            WL.build(),
            [RunSpec(algorithm="det-par", cache_size=32, miss_cost=8, xi=2)],
            seeds=[0],
        )
        assert list(reply.rows) == [r.as_dict() for r in rows]

    def test_session_experiment_equals_named_experiment(self):
        with Session() as session:
            reply = session.experiment("e1")
        rows, _ = run_named_experiment("e1", scale="quick", seed=0)
        assert list(reply.rows) == rows

    def test_engine_submission_still_works_inside_execution_scope(self):
        from repro.exec import WorkUnit, current_engine

        workload = WL.build()
        unit = WorkUnit(
            kind="makespan-lb",
            params={"workload": workload, "k": 16, "miss_cost": 8, "include_impact": False},
            label="legacy-lb",
        )
        with execution(jobs=1) as engine:
            assert current_engine() is engine
            outcomes = engine.run([unit])
        assert len(outcomes) == 1 and outcomes[0].value is not None


class TestLegacyCliSurface:
    def test_run_trace_flags_still_parse(self):
        from repro.cli import build_run_parser

        args = build_run_parser().parse_args(
            ["--trace", "app", "--algorithms", "det-par,rand-par",
             "--cache-size", "64", "--miss-cost", "16"]
        )
        assert args.trace == "app" and args.cache_size == 64

    def test_experiment_parser_still_accepts_historical_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["e1", "--scale", "quick", "--jobs", "2"])
        assert args.experiment == "e1" and args.jobs == 2
