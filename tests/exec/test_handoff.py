"""Zero-copy worker handoff: handles instead of arrays on the pool path.

The contract: pool workers receive *handles* — a ``.trc`` path for
spilled workloads, :class:`ShmArray` names for shared request arrays —
never the arrays themselves, so the pickled payload stays bounded (and
per-worker RSS flat) as traces grow.  Rebuilt parameters must produce
byte-identical outcomes, and the manager must release every segment and
spill file on close.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.exec import ExecutionEngine, WorkUnit, execute_unit
from repro.exec.handoff import (
    DEFAULT_SHM_ROWS,
    HandoffManager,
    PreparedTask,
    ShmArray,
    execute_prepared,
)
from repro.obs import metrics as M
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache, get_kernel, native_flavor
from repro.traces.store import StoredWorkload
from repro.workloads import ParallelWorkload, cyclic


def green_unit(n=200, k=8, p=2, seq=None):
    if seq is None:
        seq = cyclic(n, 6)
    return WorkUnit(
        "det-green", {"seq": seq, "k": k, "p": p, "miss_cost": 4}, label="g"
    )


def run_unit(wl):
    return WorkUnit(
        "parallel-run",
        {"algorithm": "det-par", "workload": wl, "cache_size": 16, "miss_cost": 8, "seed": 0},
    )


@pytest.fixture()
def native_tier(monkeypatch):
    """Kernel seeds ship only on the compiled tier: pin it, or skip."""
    if native_flavor() is None:
        pytest.skip("compiled tier unavailable (no C compiler)")
    monkeypatch.setenv(KERNEL_ENV, "native")


class TestPrepare:
    def test_small_units_pass_through_unchanged(self):
        unit = green_unit(n=100)
        with HandoffManager() as m:
            assert m.prepare(unit) is unit

    def test_large_seq_becomes_shm_handle(self):
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        unit = green_unit(seq=seq)
        with HandoffManager() as m:
            task = m.prepare(unit)
            assert isinstance(task, PreparedTask)
            assert isinstance(task.params["seq"], ShmArray)
            assert task.kind == unit.kind and task.label == unit.label

    def test_large_workload_spills_to_store(self, tmp_path):
        wl = ParallelWorkload.from_local([cyclic(40_000, 50), cyclic(40_000, 60)])
        with HandoffManager(spill_dir=tmp_path) as m:
            task = m.prepare(run_unit(wl))
            assert isinstance(task, PreparedTask)
            stored = task.params["workload"]
            assert isinstance(stored, StoredWorkload)
            # a StoredWorkload pickles as its path: tiny and worker-reopenable
            assert len(pickle.dumps(task)) < 2048

    def test_pickled_payload_bounded_as_trace_grows(self):
        sizes = []
        for rows in (1 << 14, 1 << 16, 1 << 18):
            with HandoffManager() as m:
                task = m.prepare(green_unit(seq=cyclic(rows, 12)))
                sizes.append(len(pickle.dumps(task)))
        # 16x more rows, same wire bytes: the payload is a name + a length
        assert max(sizes) < 2048
        assert max(sizes) - min(sizes) < 64

    def test_shared_array_deduped_across_units(self):
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        with M.collecting() as reg:
            with HandoffManager() as m:
                a = m.prepare(green_unit(seq=seq))
                b = m.prepare(green_unit(seq=seq))
                assert a.params["seq"] == b.params["seq"]
        assert reg.snapshot()["counters"]["exec.handoff.shm_segments"] == 1


class TestExecutePrepared:
    def test_outcome_identical_to_direct_execution(self):
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        unit = green_unit(seq=seq)
        direct = execute_unit(unit)
        with HandoffManager() as m:
            task = m.prepare(unit)
            got = execute_prepared(task)
        assert got.value == direct.value
        assert got.sim_steps == direct.sim_steps

    def test_worker_materializes_same_array_object_per_segment(self):
        # repeated units over one segment must hand executors the *same*
        # ndarray, so the id-keyed kernel cache stays warm across units
        from repro.exec import handoff

        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        with HandoffManager() as m:
            task = m.prepare(green_unit(seq=seq))
            handle = task.params["seq"]
            first = handoff._materialize(handle)
            second = handoff._materialize(handle)
            assert first is second
            assert np.array_equal(first, seq)

    def test_seed_ships_when_same_seq_feeds_two_units(self, native_tier):
        clear_kernel_cache()
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        units = [green_unit(seq=seq), green_unit(seq=seq)]
        with M.collecting() as reg:
            with HandoffManager() as m:
                tasks = m.prepare_batch(units, [0, 1])
                assert all(isinstance(t, PreparedTask) for t in tasks)
                assert tasks[0].seed is not None
                direct = execute_unit(units[0])
                assert execute_prepared(tasks[0]).value == direct.value
        counters = reg.snapshot()["counters"]
        assert counters["exec.handoff.seeded"] >= 1

    def test_seed_ships_when_parent_kernel_cached(self, native_tier):
        clear_kernel_cache()
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        get_kernel(seq)  # parent already paid the sweep
        with HandoffManager() as m:
            tasks = m.prepare_batch([green_unit(seq=seq)], [0])
            assert tasks[0].seed is not None
        clear_kernel_cache()

    def test_singleton_without_cached_kernel_ships_no_seed(self):
        clear_kernel_cache()
        with HandoffManager() as m:
            tasks = m.prepare_batch([green_unit(seq=cyclic(DEFAULT_SHM_ROWS, 9))], [0])
            assert isinstance(tasks[0], PreparedTask)
            assert tasks[0].seed is None

    def test_prepared_seed_arrays_match_parent_kernel(self, native_tier):
        from repro.exec import handoff

        clear_kernel_cache()
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        kern = get_kernel(seq)
        with HandoffManager() as m:
            task = m.prepare_batch([green_unit(seq=seq)], [0])[0]
            prev, reuse = task.seed
            assert np.array_equal(handoff._materialize(prev), kern.prev_occ)
            assert np.array_equal(handoff._materialize(reuse), kern.reuse_dist)
        clear_kernel_cache()


class TestLifecycle:
    def test_close_unlinks_segments(self):
        from multiprocessing import shared_memory

        with HandoffManager() as m:
            task = m.prepare(green_unit(seq=cyclic(DEFAULT_SHM_ROWS, 9)))
            name = task.params["seq"].name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_removes_owned_spill_dir_and_is_idempotent(self):
        wl = ParallelWorkload.from_local([cyclic(40_000, 50), cyclic(40_000, 60)])
        m = HandoffManager()
        task = m.prepare(run_unit(wl))
        path = task.params["workload"].store_path
        assert os.path.exists(path)
        m.close()
        assert not os.path.exists(path)
        m.close()  # idempotent

    def test_external_spill_dir_is_preserved(self, tmp_path):
        wl = ParallelWorkload.from_local([cyclic(40_000, 50), cyclic(40_000, 60)])
        with HandoffManager(spill_dir=tmp_path) as m:
            task = m.prepare(run_unit(wl))
            path = task.params["workload"].store_path
        assert os.path.exists(path)  # caller-owned directory: not ours to delete


class TestPoolIntegration:
    def test_pooled_results_identical_with_handoff(self):
        # big enough to cross both thresholds with the default env
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        wl = ParallelWorkload.from_local([cyclic(40_000, 50), cyclic(40_000, 60)])
        units = [green_unit(seq=seq), green_unit(seq=seq), run_unit(wl)]
        serial = ExecutionEngine(jobs=1).run(units)
        pooled = ExecutionEngine(jobs=2).run(units)
        assert serial == pooled

    def test_pool_path_actually_uses_handles(self):
        seq = cyclic(DEFAULT_SHM_ROWS, 9)
        units = [green_unit(seq=seq), green_unit(seq=seq)]
        with M.collecting() as reg:
            ExecutionEngine(jobs=2).run(units)
        counters = reg.snapshot()["counters"]
        assert counters.get("exec.handoff.shm_segments", 0) >= 1
