"""DET-PAR's compiled loop ≡ its python loop on the reference tier, byte for byte.

On the native kernel tier :meth:`DetPar.run` runs the whole schedule as
``repro_detpar_run``; ``REPRO_KERNEL=reference`` (and a host without a
C compiler) runs the python event loop and serves every box by the
per-request dict-LRU walk.  Both runs must agree on completion times,
the full box trace and ``meta`` (phases, rebuild times, reserved peak),
in memory and streamed at any chunk size, and must fail with the same
error where the python loop fails (the harness in :mod:`.native_loops`,
shared with RAND-PAR).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetPar
from repro.parallel.events import EventScheduler
from repro.parallel.streaming import BoxServer
from repro.workloads import ParallelWorkload, cyclic, make_parallel_workload

from .native_loops import (
    HAVE_NATIVE,
    assert_all_loops_agree,
    assert_same,
    det_par,
    loop,
    observe,
    requires_native,
    streamed,
)

KINDS = ["mixed_kinds", "cyclic", "zipf", "multiscale", "phased"]


@requires_native
def test_compiled_loop_is_taken_on_the_native_tier(monkeypatch):
    calls = []
    real = DetPar._run_native
    monkeypatch.setattr(DetPar, "_run_native", lambda self, *a: calls.append(1) or real(self, *a))
    monkeypatch.setattr(EventScheduler, "pop", lambda self: pytest.fail("python loop ran"))
    wl = make_parallel_workload(p=4, n_requests=80, k=32, rng=np.random.default_rng(0))
    with loop("compiled"):
        DetPar(32, 4).run(wl)
    assert calls == [1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(1, 9),
    extra=st.integers(0, 70),
    s=st.sampled_from([2, 3, 8]),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 160),
)
def test_loops_agree_in_memory(seed, p, extra, s, kind, n):
    # cache sizes and processor counts are mostly not powers of two
    k = p + extra
    wl = make_parallel_workload(p=p, n_requests=n, k=max(k, 1), rng=np.random.default_rng(seed), kind=kind)
    want = observe("reference", det_par(k, s), wl)
    if HAVE_NATIVE:
        assert_same(observe("compiled", det_par(k, s), wl), want)


@pytest.mark.parametrize("k,p,s", [(48, 4, 4), (100, 5, 2), (12, 3, 8), (7, 1, 3), (37, 6, 3)])
def test_loops_agree_streamed_at_every_chunk_size(tmp_path, k, p, s):
    wl = make_parallel_workload(p=p, n_requests=150, k=k, rng=np.random.default_rng(k * p))
    completion, trace, meta = assert_all_loops_agree(det_par(k, s), wl, tmp_path)
    assert len(trace) > 0 and meta["phases"]


def test_zero_length_columns(tmp_path):
    wl = ParallelWorkload.from_local([[], cyclic(30, 3), [], cyclic(9, 2)], name="gaps")
    completion, trace, meta = assert_all_loops_agree(det_par(16, 3), wl, tmp_path, chunks=(1, 7))
    assert completion[0] == completion[2] == 0 and completion[1] > 0
    empty = ParallelWorkload.from_local([[], []], name="empty")
    completion, trace, meta = assert_all_loops_agree(det_par(8, 2), empty, tmp_path, chunks=(1,))
    assert completion == [0, 0] and trace == [] and meta["phases"] == []


def test_processor_finishing_inside_a_preempted_segment(tmp_path, monkeypatch):
    """A strip slot offers processor 0 a taller box; finalizing the
    segment it preempts ends the processor's column, so the slot's box
    runs unclaimed."""
    wl = ParallelWorkload.from_local([cyclic(6, 2), cyclic(60, 3), cyclic(60, 4)], name="preempt")
    log = []
    pop, serve = EventScheduler.pop, BoxServer.serve

    def logged_pop(self):
        event = pop(self)
        log.append(event[2])
        return event

    def logged_serve(self, proc, pos, height, budget):
        run = serve(self, proc, pos, height, budget)
        if run.end >= self.lengths[proc]:
            log.append(("finished", proc))
        return run

    monkeypatch.setattr(EventScheduler, "pop", logged_pop)
    monkeypatch.setattr(BoxServer, "serve", logged_serve)
    observe("reference", det_par(8, 2), wl)
    monkeypatch.undo()
    assert any(a == "slot" and b == ("finished", 0) for a, b in zip(log, log[1:]))
    assert_all_loops_agree(det_par(8, 2), wl, tmp_path, chunks=(1, 4096))


def test_plan_that_does_not_fit_raises_the_same_error(tmp_path):
    wl = make_parallel_workload(p=8, n_requests=40, k=8, rng=np.random.default_rng(1))
    err = assert_all_loops_agree(det_par(4, 2), wl, tmp_path, chunks=(7,))
    assert err == ("ValueError", "cache_size=4 too small for 8 active processors")


@requires_native
def test_short_store_raises_like_global_lru(tmp_path):
    # only the compiled tier feeds a streamed box schedule chunk by chunk;
    # the reference tier reads the memory-mapped columns
    wl = make_parallel_workload(p=3, n_requests=60, k=16, rng=np.random.default_rng(2))
    sw = streamed(wl, tmp_path, 8)
    full = sw.chunks
    sw.chunks = lambda proc: itertools.islice(full(proc), 2)  # ends at row 16 of 60
    with loop("compiled"), pytest.raises(ValueError, match="declared length"):
        DetPar(16, 2).run(sw)
