"""The stable RunSpec API.

Covers the public surface: ``RunSpec`` validation, ``make_algorithm``
and ``run_experiment`` taking ``RunSpec``s only (the positional shims
are gone), parallel/serial row parity, registry overwrite semantics, and
the versioned row schema.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SCHEMA_VERSION,
    RunSpec,
    execution,
    make_algorithm,
    register_algorithm,
    run_experiment,
)
from repro.parallel.schedulers import ALGORITHM_REGISTRY
from repro.workloads import ParallelWorkload, cyclic, zipf


@pytest.fixture
def workload():
    rng = np.random.default_rng(1)
    return ParallelWorkload.from_local(
        [cyclic(100, 6), cyclic(100, 9), zipf(100, 30, 1.2, rng)]
    )


SPECS = [
    RunSpec("det-par", cache_size=16, miss_cost=8, xi=2),
    RunSpec("rand-par", cache_size=16, miss_cost=8, xi=2),
]


class TestRunSpec:
    def test_k_property(self):
        assert RunSpec("det-par", cache_size=32, miss_cost=8, xi=2).k == 16
        assert RunSpec("det-par", cache_size=32, miss_cost=8).k == 32  # xi defaults to 1

    def test_with_seed(self):
        spec = RunSpec("rand-par", cache_size=16, miss_cost=8, seed=0)
        assert spec.with_seed(7).seed == 7
        assert spec.seed == 0  # frozen: original untouched

    def test_hashable_for_cache_keys(self):
        assert len({SPECS[0], SPECS[0], SPECS[1]}) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_size": 16, "miss_cost": 8, "xi": 0},
            {"cache_size": 0, "miss_cost": 8},
            {"cache_size": 16, "miss_cost": 0},
            {"cache_size": 15, "miss_cost": 8, "xi": 2},  # not divisible by xi
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunSpec("det-par", **kwargs)


class TestMakeAlgorithm:
    def test_runspec_form(self):
        alg = make_algorithm(RunSpec("det-par", cache_size=16, miss_cost=8))
        assert alg.cache_size == 16 and alg.miss_cost == 8

    def test_mixing_forms_rejected(self):
        # the positional parameters are gone, alongside a RunSpec too
        with pytest.raises(TypeError):
            make_algorithm(RunSpec("det-par", cache_size=16, miss_cost=8), cache_size=16)

    def test_bare_name_rejected(self):
        with pytest.raises(TypeError, match="RunSpec"):
            make_algorithm("det-par")
        with pytest.raises(TypeError):
            make_algorithm("det-par", 16, 8, 0)


class TestRegistryOverwrite:
    def test_duplicate_rejected_then_overwritten(self):
        original = ALGORITHM_REGISTRY["det-par"]
        marker = lambda cache_size, miss_cost, seed: original(cache_size, miss_cost, seed)
        try:
            with pytest.raises(ValueError, match="overwrite=True"):
                register_algorithm("det-par", marker)
            register_algorithm("det-par", marker, overwrite=True)
            assert ALGORITHM_REGISTRY["det-par"] is marker
        finally:
            register_algorithm("det-par", original, overwrite=True)


class TestRunExperiment:
    def test_parallel_rows_identical_to_serial(self, workload, tmp_path):
        serial = run_experiment(workload, SPECS, seeds=(0, 1, 2, 3))
        with execution(jobs=2, cache=True, cache_dir=tmp_path):
            pooled = run_experiment(workload, SPECS, seeds=(0, 1, 2, 3))
            warm = run_experiment(workload, SPECS, seeds=(0, 1, 2, 3))
        assert [r.as_dict() for r in pooled] == [r.as_dict() for r in serial]
        assert [r.as_dict() for r in warm] == [r.as_dict() for r in serial]

    def test_rows_carry_schema_version(self, workload):
        (row,) = run_experiment(workload, [SPECS[0]], seeds=(0, 1))
        assert row.as_dict()["schema_version"] == SCHEMA_VERSION

    def test_specs_must_share_k(self, workload):
        with pytest.raises(ValueError, match="share one k"):
            run_experiment(
                workload,
                [SPECS[0], RunSpec("rand-par", cache_size=32, miss_cost=8, xi=2)],
            )

    def test_specs_must_share_miss_cost(self, workload):
        with pytest.raises(ValueError, match="miss_cost"):
            run_experiment(
                workload,
                [SPECS[0], RunSpec("rand-par", cache_size=16, miss_cost=4, xi=2)],
            )

    def test_mixing_specs_and_legacy_args_rejected(self, workload):
        # k, miss_cost and xi come from the specs; the parameters are gone
        with pytest.raises(TypeError):
            run_experiment(workload, SPECS, k=8, miss_cost=8)

    def test_algorithm_names_rejected(self, workload):
        with pytest.raises(TypeError, match="RunSpec"):
            run_experiment(workload, ["det-par", "rand-par"])
