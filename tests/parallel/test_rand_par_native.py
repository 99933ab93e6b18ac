"""RAND-PAR's compiled loop ≡ its python loop on the reference tier, byte for byte.

On the native kernel tier :meth:`RandPar.run` runs every chunk's boxes as
``repro_randpar_run``; ``REPRO_KERNEL=reference`` (and a host without a
C compiler) runs the python loop and serves every box by the
per-request dict-LRU walk.  Both runs must agree on completion times,
the full box trace and ``meta`` (chunks, phase bounds, distribution,
finished), in memory and streamed at any chunk size, for every height
distribution, cache size and seed, and must fail with the same error
where the python loop fails (the harness in :mod:`.native_loops`,
shared with DET-PAR).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RandPar
from repro.parallel.events import RECORD_ROWS
from repro.parallel.streaming import BoxServer
from repro.workloads import ParallelWorkload, cyclic, make_parallel_workload

from .native_loops import (
    HAVE_NATIVE,
    assert_all_loops_agree,
    assert_same,
    loop,
    observe,
    rand_par,
    requires_native,
    streamed,
)

DISTRIBUTIONS = ["inverse_square", "inverse_linear", "uniform"]
KINDS = ["mixed_kinds", "cyclic", "zipf", "multiscale", "phased"]


@requires_native
def test_compiled_loop_is_taken_on_the_native_tier(monkeypatch, tmp_path):
    calls = []
    real = RandPar._run_native
    monkeypatch.setattr(RandPar, "_run_native", lambda self, *a: calls.append(1) or real(self, *a))
    monkeypatch.setattr(BoxServer, "serve", lambda *a: pytest.fail("python loop ran"))
    wl = make_parallel_workload(p=4, n_requests=80, k=32, rng=np.random.default_rng(0))
    with loop("compiled"):
        rand_par(32, 4)(wl)
        rand_par(32, 4)(streamed(wl, tmp_path, 7))
    assert calls == [1, 1]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(1, 9),
    extra=st.integers(0, 70),
    s=st.sampled_from([2, 3, 8]),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 160),
    dist=st.sampled_from(DISTRIBUTIONS),
    draws=st.integers(0, 2**32 - 1),
)
def test_loops_agree_in_memory(seed, p, extra, s, kind, n, dist, draws):
    # cache sizes and processor counts are mostly not powers of two
    k = p + extra
    wl = make_parallel_workload(p=p, n_requests=n, k=k, rng=np.random.default_rng(seed), kind=kind)
    run = rand_par(k, s, seed=draws, kind=dist)
    want = observe("reference", run, wl)
    if HAVE_NATIVE:
        assert_same(observe("compiled", run, wl), want)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize(
    "k,p,s,seed",
    [(64, 4, 4, 0), (48, 4, 4, 1), (100, 5, 2, 2), (16, 8, 8, 3), (12, 3, 8, 4), (7, 1, 3, 5), (37, 6, 3, 6)],
)
def test_loops_agree_streamed_at_every_chunk_size(tmp_path, k, p, s, seed, dist):
    wl = make_parallel_workload(p=p, n_requests=150, k=k, rng=np.random.default_rng(k * p + seed))
    completion, trace, meta = assert_all_loops_agree(rand_par(k, s, seed=seed, kind=dist), wl, tmp_path)
    assert len(trace) > 0 and meta["chunks"] and meta["finished"]
    assert meta["distribution"] == dist


def test_record_buffer_refills(tmp_path):
    """More boxes than the compiled loop buffers between hand-backs."""
    wl = make_parallel_workload(p=8, n_requests=1000, k=64, rng=np.random.default_rng(9))
    completion, trace, meta = assert_all_loops_agree(rand_par(64, 3, seed=9), wl, tmp_path, chunks=(64,))
    assert len(trace) > 2 * RECORD_ROWS


def test_batches_keep_the_slots_of_finished_processors(tmp_path):
    """Short columns finish in the primary part but keep their secondary
    batch slots, so a batch of only finished processors runs no box and
    does not advance the clock; a finished processor's rounds still do."""
    wl = ParallelWorkload.from_local(
        [cyclic(3, 2), cyclic(3, 2), cyclic(400, 5), cyclic(3, 2), cyclic(300, 9)], name="short"
    )
    run = rand_par(8, 2, seed=1, kind="uniform")
    completion, trace, meta = assert_all_loops_agree(run, wl, tmp_path, chunks=(1, 7))
    k, s = 8, 2
    for c in meta["chunks"]:  # log2(r) + 1 rounds of s * (k / r), finished or not
        assert c.primary_length == c.r_pow.bit_length() * s * (k // c.r_pow)
    batches = [math.ceil(c.active_at_start / max(1, k // c.drawn_height)) for c in meta["chunks"]]
    skipped = [c for c, b in zip(meta["chunks"], batches) if c.secondary_length < b * s * c.drawn_height]
    assert skipped, "no chunk had a batch of finished processors"


def test_zero_length_columns(tmp_path):
    wl = ParallelWorkload.from_local([[], cyclic(30, 3), [], cyclic(9, 2)], name="gaps")
    completion, trace, meta = assert_all_loops_agree(rand_par(16, 3), wl, tmp_path, chunks=(1, 7))
    assert completion[0] == completion[2] == 0 and completion[1] > 0
    empty = ParallelWorkload.from_local([[], []], name="empty")
    completion, trace, meta = assert_all_loops_agree(rand_par(8, 2), empty, tmp_path, chunks=(1,))
    assert completion == [0, 0] and trace == [] and meta["chunks"] == [] and meta["finished"]


@pytest.mark.parametrize("max_chunks", [0, 1, 2, 5])
def test_max_chunks_stops_before_the_next_plan(tmp_path, max_chunks):
    wl = make_parallel_workload(p=6, n_requests=300, k=24, rng=np.random.default_rng(3))
    completion, trace, meta = assert_all_loops_agree(
        rand_par(24, 4, seed=5, max_chunks=max_chunks), wl, tmp_path, chunks=(7,)
    )
    assert len(meta["chunks"]) == max_chunks and not meta["finished"]


def test_cache_too_small_for_p_raises_the_same_error(tmp_path):
    wl = make_parallel_workload(p=8, n_requests=40, k=8, rng=np.random.default_rng(1))
    err = assert_all_loops_agree(rand_par(4, 2), wl, tmp_path, chunks=(7,))
    assert err == ("LatticeError", "need p <= k (got p=8; nearest valid p is 4)")


@requires_native
def test_short_store_raises_like_the_python_loop(tmp_path):
    # only the compiled tier feeds a streamed box schedule chunk by chunk
    # (through the feed's own check); the reference tier reads the
    # memory-mapped columns
    wl = make_parallel_workload(p=3, n_requests=60, k=16, rng=np.random.default_rng(2))
    sw = streamed(wl, tmp_path, 8)
    full = sw.chunks
    sw.chunks = lambda proc: itertools.islice(full(proc), 2)  # ends at row 16 of 60
    assert observe("compiled", rand_par(16, 2), sw) == ("ValueError", "stream ended at 16 before declared length 60")
