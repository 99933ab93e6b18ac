"""Chaos tests: injected crashes, kills, hangs, and interrupts vs the engine.

The load-bearing claims: every failure mode recovers to values
*byte-identical* to a clean serial run, and the serial and pool
execution paths fail the same way.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.exec import (
    ExecutionEngine,
    ExecutionPolicy,
    FailedCell,
    FaultSpec,
    InjectedFault,
    ResultCache,
    Telemetry,
    UnitExecutionError,
    WorkUnit,
    corrupt_cache_entry,
    inject_faults,
)
from repro.exec.faults import FAULTS_ENV, FAULTS_STATE_ENV, active_faults
from repro.workloads import cyclic

pytestmark = pytest.mark.chaos


def green_units(n=6, tag="chaos"):
    seq = cyclic(100, 6)
    return [
        WorkUnit(
            "rand-green",
            {"seq": seq, "k": 8, "p": 2, "miss_cost": 4, "entropy": 17, "spawn_key": (i,)},
            label=f"{tag}/u{i}",
        )
        for i in range(n)
    ]


def clean_serial_values(units):
    return ExecutionEngine(jobs=1).run(units)


# --------------------------------------------------------------------- #
# spec parsing and claim accounting
# --------------------------------------------------------------------- #
def test_spec_roundtrip():
    spec = FaultSpec(mode="hang", match="e1/rand", times=3, delay_s=2.5)
    assert FaultSpec.parse(spec.encode()) == spec
    assert FaultSpec.parse("crash:lbl") == FaultSpec(mode="crash", match="lbl")


@pytest.mark.parametrize("text", ["", "crash", "nope:x", "crash:a:b:c:d"])
def test_bad_specs_rejected(text):
    with pytest.raises(ValueError):
        FaultSpec.parse(text)


def test_match_may_not_contain_separators():
    with pytest.raises(ValueError, match="':' or ','"):
        FaultSpec(mode="crash", match="a:b")


def test_inject_faults_scopes_env():
    assert active_faults() == []
    with inject_faults("crash:xyz:2"):
        faults = active_faults()
        assert len(faults) == 1 and faults[0].times == 2
        state = os.environ[FAULTS_STATE_ENV]
        assert os.path.isdir(state)
    assert os.environ.get(FAULTS_ENV) is None
    assert not os.path.isdir(state)  # state dir cleaned up


def test_times_bounds_triggers_across_claims():
    unit = green_units(1, tag="claims")[0]
    with inject_faults("crash:claims/u0:2"):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                from repro.exec.units import execute_unit

                execute_unit(unit)
        # third execution: the two slots are spent, unit runs clean
        from repro.exec.units import execute_unit

        assert execute_unit(unit).value is not None


# --------------------------------------------------------------------- #
# crash / flaky: serial vs pool parity
# --------------------------------------------------------------------- #
def test_flaky_unit_recovers_identically_serial_and_pooled():
    units = green_units(4, tag="flaky")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=2, backoff_s=0.01)

    with inject_faults("flaky:flaky/u1:2"):
        serial = ExecutionEngine(jobs=1, policy=policy).run(units)
    with inject_faults("flaky:flaky/u1:2"):
        pooled = ExecutionEngine(jobs=2, policy=policy).run(units)

    assert pickle.dumps(serial) == pickle.dumps(clean)
    assert pickle.dumps(pooled) == pickle.dumps(clean)


def test_exhausted_retries_fail_fast_in_both_paths():
    units = green_units(3, tag="dead")
    policy = ExecutionPolicy(retries=1, backoff_s=0.01)
    for jobs in (1, 2):
        with inject_faults("crash:dead/u0:0"):  # unlimited: never succeeds
            with pytest.raises(UnitExecutionError, match="failed after 2 attempt"):
                ExecutionEngine(jobs=jobs, policy=policy).run(units)


def test_keep_going_marks_cell_and_finishes_batch():
    units = green_units(4, tag="keep")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=0, keep_going=True)
    for jobs in (1, 2):
        telemetry = Telemetry()
        with inject_faults("crash:keep/u2:0"):
            values = ExecutionEngine(jobs=jobs, policy=policy, telemetry=telemetry).run(units)
        assert isinstance(values[2], FailedCell)
        assert values[2].error_type == "InjectedFault"
        for i in (0, 1, 3):
            assert pickle.dumps(values[i]) == pickle.dumps(clean[i])
        summary = telemetry.summary()
        assert summary["failed"] == 1
        assert [r.label for r in telemetry.failures()] == ["keep/u2"]


# --------------------------------------------------------------------- #
# kill: a worker dies mid-batch (BrokenProcessPool recovery)
# --------------------------------------------------------------------- #
def test_killed_worker_mid_batch_recovers_byte_identical():
    units = green_units(6, tag="kill")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=1, backoff_s=0.01)
    with inject_faults("kill:kill/u3:1"):
        values = ExecutionEngine(jobs=2, policy=policy).run(units)
    # the pool was rebuilt and every unit (including innocents whose
    # futures the broken pool discarded) re-ran to the same answer
    assert pickle.dumps(values) == pickle.dumps(clean)


def test_killed_worker_without_retries_fails_fast():
    units = green_units(4, tag="kill2")
    with inject_faults("kill:kill2/u1:1"):
        with pytest.raises(UnitExecutionError):
            ExecutionEngine(jobs=2, policy=ExecutionPolicy(retries=0)).run(units)


def test_killed_worker_keep_going_marks_only_victims():
    units = green_units(5, tag="kill3")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=1, backoff_s=0.01, keep_going=True)
    with inject_faults("kill:kill3/u0:2"):  # kills the first attempt AND its retry
        values = ExecutionEngine(jobs=2, policy=policy).run(units)
    assert isinstance(values[0], FailedCell)
    assert values[0].error_type == "BrokenProcessPool"
    for i in range(1, 5):
        assert pickle.dumps(values[i]) == pickle.dumps(clean[i])


def test_bystander_in_flight_at_both_kills_is_not_charged():
    """The bystander sleeps through its first two runs, so it is in
    flight both times the victim kills its worker; only the victim uses
    up its attempts."""
    units = green_units(4, tag="kill4")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=1, backoff_s=0.01, keep_going=True)
    telemetry = Telemetry()
    with inject_faults("kill:kill4/u0:2", "hang:kill4/u1:2:0.5"):
        values = ExecutionEngine(jobs=2, policy=policy, telemetry=telemetry).run(units)
    assert isinstance(values[0], FailedCell)
    assert values[0].error_type == "BrokenProcessPool" and values[0].attempts == 2
    for i in range(1, 4):
        assert pickle.dumps(values[i]) == pickle.dumps(clean[i])
    assert [r.label for r in telemetry.failures()] == ["kill4/u0"]


def _sigterm_is_default() -> bool:
    import signal

    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


def test_bystander_not_charged_under_the_cli_signal_guard():
    """`repro run`, `all` and `hunt` run the engine with SIGTERM raising
    KeyboardInterrupt; forked workers must still die by the SIGTERM that
    tears a broken pool down, or a bystander is charged for the break."""
    from repro.cli import _SignalGuard

    units = green_units(4, tag="kill6")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=1, backoff_s=0.01, keep_going=True)
    telemetry = Telemetry()
    with _SignalGuard():
        pool = ExecutionEngine(jobs=2)._make_pool(2)
        try:
            assert pool.submit(_sigterm_is_default).result(timeout=60)
        finally:
            pool.shutdown(wait=True)
        with inject_faults("kill:kill6/u0:2", "hang:kill6/u1:2:0.5"):
            values = ExecutionEngine(jobs=2, policy=policy, telemetry=telemetry).run(units)
    assert isinstance(values[0], FailedCell)
    assert values[0].error_type == "BrokenProcessPool" and values[0].attempts == 2
    for i in range(1, 4):
        assert pickle.dumps(values[i]) == pickle.dumps(clean[i])
    assert [r.label for r in telemetry.failures()] == ["kill6/u0"]


def test_crash_board_gives_each_worker_its_own_slot():
    """More workers than cores claim their slots at once; each posts the
    tokens of the units it runs in its own slot."""
    import time

    import repro.exec.engine as engine_mod

    pool = ExecutionEngine(jobs=4)._make_pool(4)
    try:
        futures = [pool.submit(engine_mod._run_marked, t, time.sleep, 0.05) for t in range(1, 13)]
        for future in futures:
            future.result(timeout=60)
        words = list(pool.crash_board[:])
        assert sorted(words[0::2]) == sorted(pool._processes)
        assert set(words[1::2]) - {0} <= set(range(1, 13))  # 0: ran none yet
    finally:
        pool.shutdown(wait=True)


def _die_holding_the_lock(board) -> None:
    board.get_lock().acquire()
    os._exit(0)


def test_crash_board_is_read_without_its_lock():
    """A worker killed while it claims its slot (the pool's own teardown
    SIGTERMs workers still starting up) leaves the board's lock taken for
    good; reading the board after the break must not wait for it."""
    import multiprocessing
    import threading

    import repro.exec.engine as engine_mod

    pool = ExecutionEngine(jobs=2)._make_pool(2)
    holder = multiprocessing.Process(target=_die_holding_the_lock, args=(pool.crash_board,))
    holder.start()
    holder.join(timeout=60)
    found = []
    reader = threading.Thread(target=lambda: found.append(engine_mod._crashed_tokens(pool)), daemon=True)
    reader.start()
    reader.join(timeout=30)
    assert found == [set()]


def test_unexplained_break_runs_the_units_in_flight_alone(monkeypatch):
    """A break the crash board cannot explain charges none of the units
    in flight: they rerun one at a time, and only the one that breaks
    the pool alone loses its attempt."""
    import repro.exec.engine as engine_mod

    real = engine_mod._crashed_tokens
    monkeypatch.setattr(engine_mod, "_crashed_tokens", lambda pool: real(pool) & set())
    units = green_units(4, tag="kill5")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(retries=0, keep_going=True)
    with inject_faults("kill:kill5/u0:0"):  # every run of u0 dies
        values = ExecutionEngine(jobs=2, policy=policy).run(units)
    assert isinstance(values[0], FailedCell)
    assert values[0].error_type == "BrokenProcessPool" and values[0].attempts == 1
    for i in range(1, 4):
        assert pickle.dumps(values[i]) == pickle.dumps(clean[i])


# --------------------------------------------------------------------- #
# hang: per-unit timeout tears the pool down and moves on
# --------------------------------------------------------------------- #
def test_hung_worker_times_out_and_batch_recovers():
    units = green_units(5, tag="hang")
    clean = clean_serial_values(units)
    policy = ExecutionPolicy(timeout_s=1.0, retries=1, backoff_s=0.01)
    with inject_faults("hang:hang/u2:1:60"):
        values = ExecutionEngine(jobs=2, policy=policy).run(units)
    assert pickle.dumps(values) == pickle.dumps(clean)


def test_hung_worker_exhausts_attempts_to_failed_cell():
    units = green_units(3, tag="hang2")
    policy = ExecutionPolicy(timeout_s=0.5, retries=0, keep_going=True)
    telemetry = Telemetry()
    with inject_faults("hang:hang2/u1:0:60"):  # hangs on every attempt
        values = ExecutionEngine(jobs=2, policy=policy, telemetry=telemetry).run(units)
    assert isinstance(values[1], FailedCell)
    assert values[1].error_type == "UnitTimeoutError"
    assert not isinstance(values[0], FailedCell) and not isinstance(values[2], FailedCell)


def test_serial_timeout_matches_pool_semantics():
    units = green_units(3, tag="hang3")
    policy = ExecutionPolicy(timeout_s=0.5, retries=0, keep_going=True)
    with inject_faults("hang:hang3/u1:0:60"):
        values = ExecutionEngine(jobs=1, policy=policy).run(units)
    assert isinstance(values[1], FailedCell)
    assert values[1].error_type == "UnitTimeoutError"


# --------------------------------------------------------------------- #
# corrupt cache entries: quarantined, recomputed, byte-identical
# --------------------------------------------------------------------- #
def test_corrupt_cache_entry_recomputed_identically(tmp_path):
    units = green_units(3, tag="corrupt")
    cache = ResultCache(tmp_path / "c")
    engine = ExecutionEngine(jobs=1, cache=cache)
    first = engine.run(units)
    corrupt_cache_entry(cache, units[1].key())

    telemetry = Telemetry()
    again = ExecutionEngine(jobs=1, cache=cache, telemetry=telemetry).run(units)
    assert pickle.dumps(again) == pickle.dumps(first)
    summary = telemetry.summary()
    assert summary["cache_hits"] == 2 and summary["cache_misses"] == 1
    assert cache.quarantined == 1


# --------------------------------------------------------------------- #
# failed cells are never cached
# --------------------------------------------------------------------- #
def test_failed_cells_not_cached(tmp_path):
    units = green_units(2, tag="nocache")
    cache = ResultCache(tmp_path / "c")
    policy = ExecutionPolicy(retries=0, keep_going=True)
    with inject_faults("crash:nocache/u0:0"):
        values = ExecutionEngine(jobs=1, cache=cache, policy=policy).run(units)
    assert isinstance(values[0], FailedCell)
    # after the fault clears, the failed cell recomputes to a real value
    recovered = ExecutionEngine(jobs=1, cache=cache).run(units)
    assert not isinstance(recovered[0], FailedCell)
    clean = clean_serial_values(units)
    assert pickle.dumps(recovered) == pickle.dumps(clean)
