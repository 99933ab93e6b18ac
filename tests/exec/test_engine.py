"""Execution engine: ordering, parallel/serial parity, cache path, scoping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import (
    ExecutionEngine,
    ResultCache,
    Telemetry,
    WorkUnit,
    current_engine,
    execute_unit,
    execution,
)
from repro.workloads import ParallelWorkload, cyclic


def run_units():
    wl = ParallelWorkload.from_local([cyclic(80, 5), cyclic(80, 7)])
    return [
        WorkUnit(
            "parallel-run",
            {"algorithm": name, "workload": wl, "cache_size": 16, "miss_cost": 8, "seed": seed},
            label=f"{name}/s{seed}",
        )
        for name in ("det-par", "rand-par")
        for seed in (0, 1, 2)
    ]


def green_units(n=4):
    seq = cyclic(120, 6)
    return [
        WorkUnit(
            "rand-green",
            {"seq": seq, "k": 8, "p": 2, "miss_cost": 4, "entropy": 11, "spawn_key": (i,)},
        )
        for i in range(n)
    ]


def test_serial_and_parallel_values_identical_and_ordered():
    units = run_units() + green_units()
    serial = ExecutionEngine(jobs=1).run(units)
    pooled = ExecutionEngine(jobs=2).run(units)
    assert len(serial) == len(units)
    assert serial == pooled  # same values, same order


def test_randomness_reconstructed_identically_in_workers():
    units = green_units()
    serial = ExecutionEngine(jobs=1).run(units)
    pooled = ExecutionEngine(jobs=3).run(units)
    np.testing.assert_array_equal(np.asarray(serial), np.asarray(pooled))


def test_cache_hit_returns_identical_value(tmp_path):
    units = run_units()
    telemetry = Telemetry()
    engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path), telemetry=telemetry)
    cold = engine.run(units)
    cold_summary = telemetry.summary()
    assert cold_summary["cache_hits"] == 0
    assert cold_summary["cache_misses"] == len(units)

    mark = len(telemetry)
    warm = engine.run(units)
    warm_summary = telemetry.summary(since=mark)
    assert warm == cold
    assert warm_summary["cache_hits"] == len(units)
    assert warm_summary["cache_misses"] == 0
    assert warm_summary["hit_rate"] == 1.0


def test_no_cache_engine_writes_nothing(tmp_path):
    telemetry = Telemetry()
    ExecutionEngine(jobs=1, telemetry=telemetry).run(green_units(2))
    assert all(not rec.cached and rec.key == "" for rec in telemetry.records)


def test_sim_steps_survive_cache_hits(tmp_path):
    telemetry = Telemetry()
    engine = ExecutionEngine(cache=ResultCache(tmp_path), telemetry=telemetry)
    units = green_units(2)
    engine.run(units)
    mark = len(telemetry)
    engine.run(units)
    assert telemetry.summary()["sim_steps"] == telemetry.summary(since=mark)["sim_steps"] * 2


def test_execution_scopes_ambient_engine(tmp_path):
    base = current_engine()
    assert base.jobs == 1 and base.cache is None
    with execution(jobs=3, cache=True, cache_dir=tmp_path) as engine:
        assert current_engine() is engine
        assert engine.jobs == 3
        assert engine.cache is not None and engine.cache.root == tmp_path
        with execution(jobs=1) as inner:
            assert current_engine() is inner
        assert current_engine() is engine
    assert current_engine() is base


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        ExecutionEngine(jobs=0)


def test_unknown_unit_kind_rejected():
    with pytest.raises(KeyError, match="unknown work-unit kind"):
        execute_unit(WorkUnit("no-such-kind", {}))


def test_empty_batch():
    assert ExecutionEngine(jobs=4).run([]) == []


def test_pool_unavailable_falls_back_to_serial(monkeypatch):
    units = green_units(3)
    clean = ExecutionEngine(jobs=1).run(units)

    def broken_pool(self, max_workers):
        raise OSError("no sem_open on this platform")

    monkeypatch.setattr(ExecutionEngine, "_make_pool", broken_pool)
    engine = ExecutionEngine(jobs=4)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        values = engine.run(units)
    assert values == clean  # serial fallback, identical results


def test_pool_workers_freeze_the_heap_they_inherit(monkeypatch):
    """A worker's garbage collections leave the objects forked from the parent alone."""
    import gc

    from repro.exec import UNIT_EXECUTORS, CellOutcome

    def frozen(params):
        return CellOutcome(value=gc.get_freeze_count(), sim_steps=0, duration_s=0.0)

    monkeypatch.setitem(UNIT_EXECUTORS, "frozen", frozen)
    units = [WorkUnit("frozen", {"i": i}) for i in range(2)]
    assert all(count > 0 for count in ExecutionEngine(jobs=2).run(units))


def test_execution_restores_stack_when_body_raises(tmp_path):
    base = current_engine()
    telemetry = Telemetry()
    out = tmp_path / "telemetry.jsonl"
    with pytest.raises(RuntimeError, match="boom"):
        with execution(jobs=2, telemetry=telemetry, telemetry_jsonl=out) as engine:
            engine.run(green_units(2))
            raise RuntimeError("boom")
    assert current_engine() is base  # stack popped despite the raise
    assert out.exists()  # partial telemetry still flushed
    assert len(out.read_text().splitlines()) == 2


def test_mid_batch_interrupt_preserves_completed_cells(tmp_path):
    """An interrupt mid-batch must not lose the cells that already finished."""
    from repro.exec import inject_faults

    seq = cyclic(120, 6)
    units = [
        WorkUnit(
            "rand-green",
            {"seq": seq, "k": 8, "p": 2, "miss_cost": 4, "entropy": 11, "spawn_key": (i,)},
            label=f"mid/u{i}",
        )
        for i in range(4)
    ]
    cache = ResultCache(tmp_path / "c")
    with inject_faults("interrupt:mid/u2:1"):
        with pytest.raises(KeyboardInterrupt):
            ExecutionEngine(jobs=1, cache=cache).run(units)
    # serial order: units 0 and 1 completed before the injected Ctrl-C
    assert cache.stats().entries == 2
    telemetry = Telemetry()
    resumed = ExecutionEngine(jobs=1, cache=cache, telemetry=telemetry).run(units)
    assert telemetry.summary()["cache_hits"] == 2
    assert resumed == ExecutionEngine(jobs=1).run(units)
