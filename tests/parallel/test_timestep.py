"""Unit tests for the GLOBAL-LRU time-stepped shared-cache simulator.

GLOBAL-LRU has three loops (see :mod:`repro.parallel.timestep`): the
compiled event loop (the default), the python event loop (the
no-compiler fallback) and the reference rescan (the oracle).  The
differential tests pin all three to each other.
"""

from __future__ import annotations

import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.paging.kernel import native_flavor
from repro.paging.lru import LRUCache
from repro.parallel.timestep import GlobalLRU
from repro.workloads.trace import ParallelWorkload

HAVE_NATIVE = native_flavor() is not None
#: GlobalLRU's loops; the compiled one runs only where the cc tier builds.
LOOPS = ("compiled", "event", "reference") if HAVE_NATIVE else ("event", "reference")
requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled tier unavailable (no C compiler, or REPRO_NATIVE=off)"
)


def _pin_loop(mp, loop):
    """Select one of GlobalLRU's loops through the program's own switches."""
    mp.delenv("REPRO_KERNEL", raising=False)
    mp.setenv("REPRO_SIM", "reference" if loop == "reference" else "event")
    if loop == "event":
        mp.setenv("REPRO_NATIVE", "off")


def wl(*seqs, allow_shared=False):
    return ParallelWorkload(
        sequences=[np.asarray(s, dtype=np.int64) for s in seqs],
        name="t",
        allow_shared=allow_shared,
    )


def test_constructor_validates():
    with pytest.raises(ValueError, match="cache_size"):
        GlobalLRU(cache_size=0, miss_cost=2)
    with pytest.raises(ValueError, match="miss_cost"):
        GlobalLRU(cache_size=4, miss_cost=1)


def test_single_processor_all_misses_then_hits():
    # 3 distinct pages twice through, cache big enough to hold them all:
    # first pass faults (3·s), second pass hits (3·1)
    sim = GlobalLRU(cache_size=4, miss_cost=5)
    result = sim.run(wl([0, 1, 2, 0, 1, 2]))
    assert result.meta == {"hits": 3, "faults": 3}
    assert result.makespan == 3 * 5 + 3
    assert list(result.completion_times) == [18]


def test_accounting_is_conserved():
    sim = GlobalLRU(cache_size=2, miss_cost=3)
    seqs = [[0, 1, 0, 1, 0], [2, 3, 2, 3]]
    result = sim.run(wl(*seqs))
    assert result.meta["hits"] + result.meta["faults"] == sum(len(s) for s in seqs)
    assert result.algorithm == "global-lru"
    assert result.trace == []  # no box structure for a shared cache


def test_empty_processor_finishes_at_time_zero():
    sim = GlobalLRU(cache_size=4, miss_cost=2)
    result = sim.run(wl([], [5, 5, 5]))
    assert result.completion_times[0] == 0
    assert result.completion_times[1] == 2 + 1 + 1  # one fault, two hits


def test_thrashing_neighbor_interferes():
    # alone, proc 0's cyclic working set fits: one fault per page.
    victim = [0, 1, 0, 1] * 8
    alone = GlobalLRU(cache_size=2, miss_cost=4).run(wl(victim))
    # sharing the 2-frame cache with a scanning neighbor evicts the
    # victim's pages between reuses — strictly more faults in total
    scanner = list(range(10, 26))
    together = GlobalLRU(cache_size=2, miss_cost=4).run(wl(victim, scanner))
    assert together.meta["faults"] > alone.meta["faults"] + len(scanner) - 2
    assert together.makespan > alone.makespan


def test_shared_pages_can_be_exploited():
    # both processors stream the same pages: the second serving is a hit
    # (the shared-pages model GLOBAL-LRU can exploit and boxes cannot)
    result = GlobalLRU(cache_size=4, miss_cost=3).run(
        wl([0, 1, 2], [0, 1, 2], allow_shared=True)
    )
    assert result.meta["faults"] == 3
    assert result.meta["hits"] == 3


def test_makespan_is_latest_completion():
    sim = GlobalLRU(cache_size=8, miss_cost=2)
    result = sim.run(wl([0, 0, 0], [1, 2, 3, 4, 5]))
    assert result.makespan == int(result.completion_times.max())


def _run_full_rescan(workload, cache_size, miss_cost):
    """The historical O(p)-per-event GlobalLRU loop, kept verbatim as the
    oracle for the heap-based event loop: same round-robin service order
    at equal times, so every count must be byte-identical."""
    from repro.paging.lru import LRUCache

    s = miss_cost
    p = workload.p
    seqs = workload.sequences
    n = [len(x) for x in seqs]
    pos = [0] * p
    busy_until = [0] * p
    done = [n[i] == 0 for i in range(p)]
    completion = np.zeros(p, dtype=np.int64)
    cache = LRUCache(cache_size)
    remaining = sum(1 for d in done if not d)
    t = 0
    while remaining > 0:
        for i in range(p):
            if done[i] or busy_until[i] > t:
                continue
            page = int(seqs[i][pos[i]])
            hit = cache.touch(page)
            cost = 1 if hit else s
            busy_until[i] = t + cost
            pos[i] += 1
            if pos[i] >= n[i]:
                done[i] = True
                completion[i] = t + cost
                remaining -= 1
        if remaining == 0:
            break
        t = min(busy_until[i] for i in range(p) if not done[i])
    return completion, {"hits": cache.hits, "faults": cache.faults}


def test_reference_backend_is_byte_identical(monkeypatch):
    """REPRO_SIM=reference routes to the retained rescan oracle in-module."""
    r = np.random.default_rng(77)
    for _ in range(5):
        p = int(r.integers(1, 7))
        wl = ParallelWorkload.from_local(
            [r.integers(0, 24, size=int(r.integers(30, 120))) for _ in range(p)]
        )
        monkeypatch.delenv("REPRO_SIM", raising=False)
        event = GlobalLRU(12, 6).run(wl)
        monkeypatch.setenv("REPRO_SIM", "reference")
        ref = GlobalLRU(12, 6).run(wl)
        assert event.completion_times.tolist() == ref.completion_times.tolist()
        assert event.meta == ref.meta


def test_streamed_run_matches_memory(tmp_path):
    from repro.parallel.streaming import open_streaming
    from repro.traces.store import write_store

    r = np.random.default_rng(3)
    wl = ParallelWorkload.from_local(
        [r.integers(0, 30, size=200) for _ in range(4)]
    )
    sw = open_streaming(write_store(tmp_path / "g.store", wl, chunk_rows=32))
    a = GlobalLRU(16, 8).run(wl)
    b = GlobalLRU(16, 8).run(sw)
    assert a.completion_times.tolist() == b.completion_times.tolist()
    assert a.meta == b.meta


def test_heap_loop_is_byte_identical_to_full_rescan():
    rng = np.random.default_rng(42)
    for trial in range(20):
        p = int(rng.integers(1, 9))
        seqs = [
            rng.integers(0, int(rng.integers(2, 20)), size=int(rng.integers(0, 120))).tolist()
            for _ in range(p)
        ]
        cache_size = int(rng.integers(1, 12))
        miss_cost = int(rng.integers(2, 9))
        workload = wl(*seqs, allow_shared=True)
        result = GlobalLRU(cache_size=cache_size, miss_cost=miss_cost).run(workload)
        completion, meta = _run_full_rescan(workload, cache_size, miss_cost)
        assert list(result.completion_times) == list(completion), trial
        assert result.meta == meta, trial


# --------------------------------------------------------------------- #
# the event loop's service order, pinned on hand-built cases
# --------------------------------------------------------------------- #


def _run_each_loop(monkeypatch, workload, cache_size, miss_cost):
    """Run every loop; return ``{loop: (completion, meta, counters)}`` with
    the wall-stripped ``sim.timestep.*``/``sim.traces.*`` metrics."""
    out = {}
    for loop in LOOPS:
        with monkeypatch.context() as mp:
            _pin_loop(mp, loop)
            with obs_metrics.collecting() as reg:
                result = GlobalLRU(cache_size=cache_size, miss_cost=miss_cost).run(workload)
        snap = obs_metrics.strip_wall(reg.snapshot())
        sim = {
            f"{section}:{key}": value
            for section in ("counters", "gauges")
            for key, value in snap[section].items()
            if key.startswith(("sim.timestep.", "sim.traces."))
        }
        out[loop] = (result.completion_times.tolist(), result.meta, sim)
    return out


def _event_equals_reference(monkeypatch, workload, cache_size, miss_cost):
    """Run every loop; assert completion times, hits, faults and
    evictions agree, and return the reference run's (completion, meta,
    evictions)."""
    out = _run_each_loop(monkeypatch, workload, cache_size, miss_cost)
    for loop in LOOPS:
        assert out[loop] == out["reference"], loop
    completion, meta, sim = out["reference"]
    return completion, meta, sim["counters:sim.timestep.evictions"]


def test_same_instant_completions_serve_in_processor_order(monkeypatch):
    # both processors fault at t=0 and again at t=s.  At t=s processor 0
    # must go first: its page 2 evicts page 1, so processor 1's request
    # for page 1 faults too.  The other order would make it a hit.
    completion, meta, evictions = _event_equals_reference(
        monkeypatch, wl([1, 2], [3, 1], allow_shared=True), cache_size=2, miss_cost=5
    )
    assert completion == [10, 10]
    assert meta == {"hits": 0, "faults": 4}
    assert evictions == 2


def test_tied_higher_index_processor_yields(monkeypatch):
    # processor 1 hits page 1 four times, reaching t=4 exactly when
    # processor 0's fault completes.  Tied, the higher index yields:
    # processor 0 faults page 8 in first and processor 1 then hits it.
    completion, meta, evictions = _event_equals_reference(
        monkeypatch, wl([1, 8], [1, 1, 1, 1, 8], allow_shared=True), cache_size=4, miss_cost=4
    )
    assert completion == [8, 5]
    assert meta == {"hits": 5, "faults": 2}
    assert evictions == 0


def test_lone_last_processor_runs_to_completion(monkeypatch):
    # two short neighbours finish early; the cyclic tail then runs alone
    # (the loop's no-heap path) over pages they evicted or left behind
    tail = [40 + i % 5 for i in range(60)] + [1, 3]
    completion, meta, evictions = _event_equals_reference(
        monkeypatch, wl([1, 2], [3], tail, allow_shared=True), cache_size=4, miss_cost=3
    )
    expected, expected_meta = _run_full_rescan(
        wl([1, 2], [3], tail, allow_shared=True), cache_size=4, miss_cost=3
    )
    assert completion == expected.tolist()
    assert meta == expected_meta
    assert completion[2] > max(completion[:2])
    assert evictions == meta["faults"] - 4


def test_zero_length_columns(monkeypatch):
    completion, meta, evictions = _event_equals_reference(
        monkeypatch, wl([], [5, 6, 5], [], []), cache_size=2, miss_cost=2
    )
    assert completion == [0, 5, 0, 0]
    assert meta == {"hits": 1, "faults": 2}
    assert evictions == 0
    completion, meta, evictions = _event_equals_reference(
        monkeypatch, wl([], []), cache_size=2, miss_cost=2
    )
    assert completion == [0, 0]
    assert meta == {"hits": 0, "faults": 0}


@pytest.mark.parametrize("loop", ["compiled", "event", "reference"])
def test_feed_shorter_than_declared_length_raises(monkeypatch, loop):
    # every loop must fail loudly, not requeue a processor with no
    # requests left or leak a bare StopIteration
    if loop not in LOOPS:
        pytest.skip("compiled tier unavailable")

    class Short:
        p = 1
        lengths = (5,)
        sequences = [np.arange(3, dtype=np.int64)]

    _pin_loop(monkeypatch, loop)
    with pytest.raises(ValueError, match="declared length"):
        GlobalLRU(cache_size=4, miss_cost=2).run(Short())


# --------------------------------------------------------------------- #
# compiled ≡ python event ≡ rescan on drawn workloads
# --------------------------------------------------------------------- #


@st.composite
def _global_lru_cases(draw):
    p = draw(st.integers(1, 9))
    # ids that share table slots: multiples of 2**32 and negative ids
    scale = draw(st.sampled_from([1, -1, 2**32, -(2**32)]))
    pool = draw(st.integers(1, 20))
    seqs = [
        [scale * x for x in draw(st.lists(st.integers(0, pool), max_size=30))]
        for _ in range(p)
    ]
    cache_size = draw(st.one_of(st.integers(1, 16), st.just(10**9)))
    miss_cost = draw(st.integers(2, 9))
    chunk_rows = draw(st.sampled_from([None, 1, 2, 3, 7]))  # None: in memory
    return seqs, cache_size, miss_cost, chunk_rows


@settings(max_examples=120)
@given(case=_global_lru_cases())
def test_loops_agree_on_drawn_workloads(monkeypatch, case):
    from repro.parallel.streaming import open_streaming
    from repro.traces.store import write_store

    seqs, cache_size, miss_cost, chunk_rows = case
    workload = wl(*seqs, allow_shared=True)  # pages shared across processors
    with tempfile.TemporaryDirectory() as tmp:
        if chunk_rows is not None:  # the compiled loop resumes at every chunk
            workload = open_streaming(write_store(f"{tmp}/w.trc", workload, chunk_rows=chunk_rows))
        out = _run_each_loop(monkeypatch, workload, cache_size, miss_cost)
    for loop in LOOPS:
        assert out[loop] == out["reference"], loop


def test_loops_agree_on_a_deep_heap(monkeypatch):
    # 300 processors keep ~8 heap levels busy; the drawn cases stay shallow
    rng = np.random.default_rng(8)
    seqs = [rng.integers(0, 40, size=int(rng.integers(0, 30))).tolist() for _ in range(300)]
    out = _run_each_loop(monkeypatch, wl(*seqs, allow_shared=True), cache_size=24, miss_cost=5)
    for loop in LOOPS:
        assert out[loop] == out["reference"], loop


def test_oversized_keys_fall_back_to_python(monkeypatch):
    # (miss_cost * requests + 1) << shift would overflow int64, so the run
    # takes the python loop, whose ints cannot overflow
    monkeypatch.delenv("REPRO_SIM", raising=False)
    result = GlobalLRU(cache_size=2, miss_cost=2**61).run(wl([1, 1, 2], [4]))
    assert result.completion_times.tolist() == [2**62 + 1, 2**61]
    assert result.meta == {"hits": 1, "faults": 3}


@requires_native
def test_default_tier_never_touches_the_python_lru(monkeypatch):
    def refuse(self, page):
        raise AssertionError("LRUCache.touch called on the compiled tier")

    workload = wl([1, 2, 3, 1], [2, 9, 9], allow_shared=True)
    monkeypatch.delenv("REPRO_SIM", raising=False)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.setattr(LRUCache, "touch", refuse)
    assert GlobalLRU(cache_size=2, miss_cost=3).run(workload).meta == {"hits": 2, "faults": 5}


def test_numpy_fallback_runs_the_python_loop(monkeypatch):
    calls = []
    touch = LRUCache.touch
    monkeypatch.setattr(LRUCache, "touch", lambda self, page: calls.append(page) or touch(self, page))
    monkeypatch.setenv("REPRO_NATIVE", "off")
    monkeypatch.delenv("REPRO_SIM", raising=False)
    GlobalLRU(cache_size=2, miss_cost=3).run(wl([1, 2, 3, 1], [2, 9, 9], allow_shared=True))
    assert sorted(calls) == [1, 1, 2, 2, 3, 9, 9]


def test_concurrent_runs_match_serial_runs():
    rng = np.random.default_rng(5)
    workloads = [
        ParallelWorkload.from_local([rng.integers(0, 40, size=3000) for _ in range(6)])
        for _ in range(2)
    ]
    serial = [GlobalLRU(24, 5).run(w) for w in workloads]
    got = [[], []]

    def work(k):
        for _ in range(8):
            got[k].append(GlobalLRU(24, 5).run(workloads[k]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k in range(2):
        assert len(got[k]) == 8
        for result in got[k]:
            assert result.completion_times.tolist() == serial[k].completion_times.tolist()
            assert result.meta == serial[k].meta
