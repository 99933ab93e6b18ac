"""Belady's MIN on the compiled tier ≡ the python MIN ≡ brute force.

On the native kernel tier :func:`belady_faults` is one ``repro_min_run``
call (``NativeOps.min_faults``); the reference tier (``REPRO_KERNEL=reference``,
or a host without a C compiler) runs :class:`BeladySimulation`.  The only contract is exactness: every
fault count, and so every lower bound built on it, equals the python
loop's, and brute-force OPT's on short sequences.  The compiled entry is
also fed hostile columns — extreme page ids and ids built to share one
hash home, capacities at and past every limit, non-int64 and read-only
inputs — and run from two threads at once.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.paging._native as native_mod
from repro.paging import BeladySimulation, belady_faults, min_service_time
from repro.paging._native import native_ops
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache
from repro.parallel import BestStaticPartition, fairness_report
from repro.parallel.baselines import static_partition_makespan
from repro.parallel.opt import makespan_lower_bound, mean_completion_lower_bound
from repro.workloads import ParallelWorkload
from repro.workloads.families import build_candidate, family_names, get_family

from .test_belady import _brute_force_min_faults

NATIVE = native_ops()
requires_native = pytest.mark.skipif(NATIVE is None, reason="compiled tier unavailable")

I64_MIN = int(np.iinfo(np.int64).min)
I64_MAX = int(np.iinfo(np.int64).max)


def _sharing_one_home(count: int) -> list:
    """Page ids whose ``WIN_HOME`` hashes agree in their top 24 bits: one
    home for every table of up to 2^24 slots, so each probe runs the chain."""
    golden = 0x9E3779B97F4A7C15
    inverse = pow(golden, -1, 1 << 64)
    ids = (((0xA5A5A5 << 40) + i) * inverse % (1 << 64) for i in range(count))
    return [v - (1 << 64) if v > I64_MAX else v for v in ids]


SHARED_HOME = _sharing_one_home(64)
HOSTILE_IDS = [I64_MIN, I64_MIN + 1, I64_MAX, I64_MAX - 1, -1, 0, 1, 1 << 40, 2 << 40, -(1 << 40)]


@contextmanager
def tier(name):
    """Pin ``$REPRO_KERNEL`` (kernels capture it, so the cache is cleared)."""
    saved = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = name
    clear_kernel_cache()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved
        clear_kernel_cache()


def python_min(seq, capacity) -> int:
    sim = BeladySimulation(seq, capacity)
    sim.run()
    return sim.faults


@st.composite
def columns(draw, max_pages, max_size):
    """A column over a few distinct ids, hostile ones among them."""
    ids = draw(
        st.lists(
            st.one_of(
                st.integers(0, 9),
                st.sampled_from(HOSTILE_IDS),
                st.sampled_from(SHARED_HOME),
                st.integers(I64_MIN, I64_MAX),
            ),
            min_size=1,
            max_size=max_pages,
            unique=True,
        )
    )
    picks = draw(st.lists(st.integers(0, len(ids) - 1), max_size=max_size))
    return [ids[i] for i in picks]


# --------------------------------------------------------------------- #
# which MIN runs
# --------------------------------------------------------------------- #
def _spy_on_min_faults(monkeypatch, spy):
    monkeypatch.setattr(native_mod, "_ops", dataclasses.replace(NATIVE, min_faults=spy))


def _workload():
    return ParallelWorkload(
        [np.array([1, 2, 3, 1, 2, 4, 1] * 5), np.array([], dtype=np.int64), np.arange(30) % 7 + 100]
    )


@requires_native
def test_compiled_call_is_taken_on_the_native_tier(monkeypatch):
    calls = []

    def spy(seq, capacity):
        calls.append(capacity)
        return NATIVE.min_faults(seq, capacity)

    _spy_on_min_faults(monkeypatch, spy)
    monkeypatch.setattr(BeladySimulation, "run", lambda self, limit=None: pytest.fail("python MIN ran"))
    with tier("native"):
        assert belady_faults([7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1], 3) == 9
        assert calls == [3]
        wl = _workload()
        makespan_lower_bound(wl, 4, 5, include_impact=False)
        mean_completion_lower_bound(wl, 4, 5)
        assert calls[1:] == [4] * 4  # two non-empty processors per bound
        BestStaticPartition(4, 5).run(wl)
    assert len(calls) > 5


def test_reference_tier_runs_the_python_min(monkeypatch):
    if NATIVE is not None:
        _spy_on_min_faults(monkeypatch, lambda seq, capacity: pytest.fail("compiled MIN ran"))
    runs = []
    real = BeladySimulation.run
    monkeypatch.setattr(BeladySimulation, "run", lambda self, limit=None: runs.append(1) or real(self, limit))
    with tier("reference"):
        assert belady_faults([1, 2, 3, 1, 4, 1], 2) == 4
        makespan_lower_bound(_workload(), 4, 5, include_impact=False)
    assert len(runs) == 3


@pytest.mark.parametrize("capacity", [0, -1, -(2**63), -(2**80)])
@pytest.mark.parametrize("name", ["native", "reference"])
def test_bad_capacity_raises_before_any_call(monkeypatch, name, capacity):
    if NATIVE is not None:
        _spy_on_min_faults(monkeypatch, lambda seq, capacity: pytest.fail("compiled MIN ran"))
    with tier(name):
        with pytest.raises(ValueError) as err:
            belady_faults([1, 2, 1], capacity)
    assert str(err.value) == f"Belady capacity must be >= 1, got {capacity}"


@requires_native
@pytest.mark.parametrize("capacity", [0, -1])
def test_compiled_entry_rejects_bad_capacity(capacity):
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        NATIVE.min_faults(np.array([1, 2, 1], dtype=np.int64), capacity)


# --------------------------------------------------------------------- #
# exactness
# --------------------------------------------------------------------- #
@requires_native
@given(columns(max_pages=5, max_size=12), st.integers(1, 6))
@settings(max_examples=200)
def test_compiled_equals_python_equals_brute_force(seq, capacity):
    expected = _brute_force_min_faults(tuple(seq), capacity)
    assert NATIVE.min_faults(seq, capacity) == expected
    assert python_min(seq, capacity) == expected


@requires_native
@given(columns(max_pages=48, max_size=600), st.integers(1, 64))
@settings(max_examples=150)
def test_compiled_equals_python_on_longer_columns(seq, capacity):
    assert NATIVE.min_faults(seq, capacity) == python_min(seq, capacity)


@requires_native
@pytest.mark.parametrize("seed", range(6))
def test_compiled_equals_python_on_large_columns(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2_000, 20_000))
    pages = int(rng.integers(2, 3_000))
    seq = rng.integers(0, pages, n) * int(rng.choice([1, -1, 1 << 40, 3]))
    for capacity in (1, 2, pages // 4 + 1, pages, n + 1):
        assert NATIVE.min_faults(seq, capacity) == python_min(seq, capacity), capacity


# --------------------------------------------------------------------- #
# hostile arguments
# --------------------------------------------------------------------- #
COLUMNS = {
    "empty": [],
    "one-row": [5],
    "one-row-min": [I64_MIN],
    "all-same": [I64_MAX] * 50,
    "all-distinct": list(range(-25, 25)),
    "extremes": [I64_MIN, I64_MAX, 0, -1, I64_MIN, 0, I64_MAX, -1, I64_MIN + 1, I64_MAX - 1] * 4,
    "negative": [-3, -1, -2, -3, -1, -4, -2, -3] * 6,
    "spaced-2^40": [(i % 9) << 40 for i in range(0, 120, 7)],
    "one-hash-home": [SHARED_HOME[i % 40] for i in range(0, 400, 3)],
}


def _capacities(seq):
    distinct = max(1, len(set(seq)))
    return sorted({1, 2, distinct - 1 or 1, distinct, len(seq) + 1, 2**63 - 1, 2**64})


@requires_native
@pytest.mark.parametrize("name", sorted(COLUMNS))
def test_hostile_columns(name):
    seq = COLUMNS[name]
    for capacity in _capacities(seq):
        expected = python_min(seq, capacity)
        assert NATIVE.min_faults(seq, capacity) == expected, capacity
        assert belady_faults(seq, capacity) == expected, capacity
    if seq:
        assert NATIVE.min_faults(seq, len(set(seq))) == len(set(seq))


@requires_native
def test_known_counts_at_the_edges():
    assert NATIVE.min_faults([], 1) == 0
    assert NATIVE.min_faults([I64_MIN], 1) == 1
    assert NATIVE.min_faults([I64_MAX] * 50, 1) == 1
    assert NATIVE.min_faults(list(range(50)), 2**63 - 1) == 50
    assert NATIVE.min_faults([0, -1] * 10, 1) == 20


@requires_native
def test_input_types(tmp_path):
    seq = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4] * 5
    expected = {c: python_min(seq, c) for c in (1, 3, 6)}
    path = tmp_path / "col.bin"
    np.array(seq, dtype=np.int64).tofile(path)
    memmap = np.memmap(path, dtype=np.int64, mode="r")
    assert not memmap.flags.writeable
    for col in (
        seq,
        tuple(seq),
        np.array(seq, dtype=np.int32),
        np.array(seq, dtype=np.uint16),
        memmap,
        np.repeat(np.array(seq, dtype=np.int64), 2)[::2],  # not contiguous
    ):
        for capacity, faults in expected.items():
            assert NATIVE.min_faults(col, capacity) == faults
            assert belady_faults(col, np.int64(capacity)) == faults


@requires_native
def test_threads_give_sequential_answers():
    """Four threads (more than the runner's cores) run MIN at once."""
    rng = np.random.default_rng(7)
    cols = [
        rng.integers(0, 5_000, 200_000),
        rng.integers(-3_000, 0, 150_000) << 20,
        rng.integers(0, 40, 100_000),
        np.arange(120_000) % 9_000,
    ]
    capacities = [512, 64, 8, 8_999]
    alone = [NATIVE.min_faults(c, k) for c, k in zip(cols, capacities)]
    for _ in range(3):
        barrier = threading.Barrier(len(cols), timeout=60)
        got = [None] * len(cols)

        def run(i):
            barrier.wait()
            got[i] = belady_faults(cols[i], capacities[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cols))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert got == alone


# --------------------------------------------------------------------- #
# every bound built on MIN is the same on both tiers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("family", family_names())
def test_bounds_equal_on_both_tiers(family):
    built = build_candidate(family, get_family(family).default_config("quick"), workload_seed=3)
    wl, k, s = built.workload, built.k, built.miss_cost
    results = {}
    for name in ("native", "reference"):
        with tier(name):
            with_impact = makespan_lower_bound(wl, k, s)
            without = makespan_lower_bound(wl, k, s, include_impact=False)
            partition = BestStaticPartition(k, s).run(wl)
            results[name] = (
                with_impact.breakdown(),
                with_impact.per_proc_isolation.tolist(),
                without.breakdown(),
                mean_completion_lower_bound(wl, k, s),
                static_partition_makespan(wl, k, s),
                partition.completion_times.tolist(),
                np.nan_to_num(fairness_report(partition, wl, k).slowdowns, nan=-1.0).tolist(),
                [min_service_time(seq, c, s) for seq in wl.sequences for c in (1, k, 4 * k)],
            )
    assert results["native"] == results["reference"]
