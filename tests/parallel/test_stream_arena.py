"""The arena of single-chunk columns ≡ per-column kernels and chunk feeds.

On the native tier a streamed :class:`BoxServer` sweeps every column the
store holds as one chunk in one compiled call
(``NativeOps.sweep_columns``, ``repro_sweep_columns``) straight from the
store's memory map, and the compiled loops probe those rows in place; a
column of two or more chunks keeps its :class:`BoxFeed`.  GLOBAL-LRU
installs every processor's first chunk from the memory map before its
loop starts.  These tests hold the entry to a naive per-request
oracle of each column's rows (:func:`oracle_rows`) on hostile columns
and arguments, and every runner, streamed from stores that mix
single-chunk and multi-chunk columns, to its in-memory run through the
shared harness (:mod:`.native_loops`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetPar, RandPar
from repro.paging._native import native_ops
from repro.parallel.streaming import BoxServer
from repro.parallel.timestep import GlobalLRU
from repro.traces.store import TraceStore
from repro.workloads import ParallelWorkload, cyclic

from .native_loops import (
    assert_all_loops_agree,
    black_box,
    det_par,
    global_lru,
    loop,
    rand_par,
    requires_native,
    streamed,
)

I64 = np.iinfo(np.int64)


def oracle_rows(column):
    """A column's ``SequenceKernel`` rows, request by request: each row's
    previous occurrence (``-1`` when none) and the distinct pages strictly
    between the two (``I64.max`` when none)."""
    prev, reuse = [], []
    for q, page in enumerate(column):
        j = next((j for j in range(q - 1, -1, -1) if column[j] == page), -1)
        prev.append(j)
        reuse.append(len(set(column[j + 1 : q])) if j >= 0 else I64.max)
    return prev, reuse


# --------------------------------------------------------------------- #
# the entry, called directly
# --------------------------------------------------------------------- #


@st.composite
def pages(draw, max_size=40):
    """A column: one page repeated, a small pool, or int64-extreme ids."""
    kind = draw(st.sampled_from(["repeat", "pool", "extreme"]))
    n = draw(st.integers(0, max_size))
    if kind == "repeat":
        return [draw(st.integers(I64.min, I64.max))] * n
    if kind == "pool":
        return draw(st.lists(st.integers(0, draw(st.integers(0, 9))), min_size=n, max_size=n))
    ends = [I64.min, I64.min + 1, -1, 0, 1, I64.max - 1, I64.max, 2**32, -(2**32)]
    return draw(st.lists(st.sampled_from(ends), min_size=n, max_size=n))


@requires_native
@settings(max_examples=150, deadline=None)
@given(payload=pages(max_size=80), cuts=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=8))
def test_entry_rows_equal_each_columns_kernel(payload, cuts):
    # columns in any order, overlapping, empty or the whole payload
    n = len(payload)
    spans = [(min(a, n), min(max(a, b), n)) for a, b in cuts]
    starts = [a for a, _ in spans]
    rows = [b - a for a, b in spans]
    prev, reuse = native_ops().sweep_columns(np.asarray(payload, dtype=np.int64), starts, rows)
    assert len(prev) == len(reuse) == sum(rows)
    at = 0
    for a, b in spans:
        assert (prev[at : at + b - a].tolist(), reuse[at : at + b - a].tolist()) == oracle_rows(payload[a:b])
        at += b - a


@requires_native
@pytest.mark.parametrize(
    "starts,rows",
    [
        ([-1], [1]),  # before the payload
        ([0], [-1]),  # negative rows
        ([5], [6]),  # past the end
        ([11], [0]),  # an empty column past the end
        ([0, 3], [4]),  # one start too many
        ([[0]], [[4]]),  # not one row per column
        ([I64.max], [I64.max]),  # offsets that overflow int64 when added
        ([1], [I64.max]),
    ],
)
def test_entry_rejects_columns_outside_the_payload(starts, rows):
    with pytest.raises(ValueError):
        native_ops().sweep_columns(np.arange(10, dtype=np.int64), starts, rows)


@requires_native
def test_entry_takes_any_int_payload():
    ops = native_ops()
    col = [5, 3, 5, 5, 9, 3]
    want = oracle_rows(col)
    ro = np.asarray(col, dtype=np.int64)
    ro.setflags(write=False)
    for payload in (col, np.asarray(col, dtype=np.int32), ro, np.repeat(np.asarray(col, dtype=np.int64), 2)[::2]):
        prev, reuse = ops.sweep_columns(payload, [0], [6])
        assert (prev.tolist(), reuse.tolist()) == want
    prev, reuse = ops.sweep_columns(np.zeros(0, dtype=np.int64), [], [])
    assert len(prev) == len(reuse) == 0
    with pytest.raises(ValueError):
        ops.sweep_columns(np.zeros((2, 3), dtype=np.int64), [0], [3])


# --------------------------------------------------------------------- #
# the arena, through a store
# --------------------------------------------------------------------- #


@st.composite
def column_sets(draw):
    """Columns and a chunk size: empty and one-row columns, columns of
    exactly ``chunk_rows`` rows and one more, and pages shared across
    columns (the store is written with ``allow_shared``)."""
    chunk_rows = draw(st.sampled_from([1, 2, 3, 7, 16]))
    cols = []
    for _ in range(draw(st.integers(1, 7))):
        col = draw(pages())
        size = draw(st.sampled_from([None, 0, 1, chunk_rows, chunk_rows + 1]))
        if size is not None:
            col = (col * (size + 1))[:size] if col else [draw(st.integers(I64.min, I64.max))] * size
        cols.append(col)
    return cols, chunk_rows


@requires_native
@settings(max_examples=120, deadline=None)
@given(case=column_sets())
def test_arena_rows_equal_each_columns_kernel(tmp_path_factory, case):
    cols, chunk_rows = case
    wl = ParallelWorkload(
        sequences=[np.asarray(c, dtype=np.int64) for c in cols], name="arena", allow_shared=True
    )
    sw = streamed(wl, tmp_path_factory.mktemp("arena"), chunk_rows)
    with loop("compiled"):
        server = BoxServer(sw, 4)
    win = server.window_rows()
    single = [i for i, c in enumerate(cols) if len(c) <= chunk_rows]
    assert server._at.tolist() == [
        sum(len(cols[j]) for j in single if j < i) if i in single else -1 for i in range(len(cols))
    ]
    for i, col in enumerate(cols):
        if i not in single:
            assert win[i].tolist() == [0, 0, 0, 0]  # its feed is made at its first hand-back
            continue
        at = int(server._at[i])
        rows = (server._prev[at : at + len(col)].tolist(), server._reuse[at : at + len(col)].tolist())
        assert rows == oracle_rows(col)
        assert win[i].tolist()[2:] == [0, len(col)]
        assert win[i, 0] - win[single[0], 0] == win[i, 1] - win[single[0], 1] == 8 * at
    assert server.resident_rows() == sum(len(cols[i]) for i in single)


# --------------------------------------------------------------------- #
# every runner, streamed from stores mixing single- and multi-chunk columns
# --------------------------------------------------------------------- #


def skewed(p=13, tail=300, seed=0):
    """The Albers–Hellwig shape at small scale: short heads of 1 to 70
    requests and one long tail, among empty columns, pages shared."""
    rng = np.random.default_rng(seed)
    heads = [cyclic(int(n), int(m)) + 32 * i for i, (n, m) in
             enumerate(zip(rng.integers(1, 70, size=p - 1), rng.integers(1, 12, size=p - 1)))]
    heads[1] = heads[1][:1]
    heads[2] = heads[2][:0]
    seqs = heads + [cyclic(tail, 40) + 5]  # shares pages with the heads
    order = rng.permutation(p)
    return ParallelWorkload(
        sequences=[np.asarray(seqs[i], dtype=np.int64) for i in order], name="skewed", allow_shared=True
    )


RUNNERS = {
    "det-par": det_par(64, 4),
    "rand-par": rand_par(64, 4, seed=3),
    "global-lru": global_lru(24, 4),
    "black-box": black_box(64, 4),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("runner", list(RUNNERS))
def test_runners_agree_on_mixed_stores(tmp_path, runner, seed):
    completion, trace, meta = assert_all_loops_agree(RUNNERS[runner], skewed(seed=seed), tmp_path)
    assert completion.count(0) == 1  # the empty column
    assert (runner == "global-lru") == (trace == [])


@pytest.mark.parametrize("runner", ["det-par", "rand-par", "black-box"])
def test_runners_agree_on_one_row_and_chunk_sized_columns(tmp_path, runner):
    cols = [cyclic(7, 3), [4], [], cyclic(8, 5) + 10, cyclic(6, 6) + 20, cyclic(64, 9) + 30, cyclic(65, 2) + 50]
    wl = ParallelWorkload.from_local(cols, name="edges")
    assert_all_loops_agree(RUNNERS[runner], wl, tmp_path, chunks=(1, 7, 8, 64))


@pytest.mark.parametrize("runner", list(RUNNERS))
def test_runners_agree_when_every_column_is_one_chunk(tmp_path, runner):
    assert_all_loops_agree(RUNNERS[runner], skewed(p=9, tail=90, seed=4), tmp_path, chunks=(90, 4096))


# --------------------------------------------------------------------- #
# where the streamed runs read their chunks
# --------------------------------------------------------------------- #


def chunk_reads(monkeypatch):
    """Record ``(proc, skip)`` per ``TraceStore.iter_chunks`` call."""
    reads = []
    real = TraceStore.iter_chunks

    def spy(self, proc, verify=False, skip=0):
        reads.append((proc, skip))
        return real(self, proc, verify, skip)

    monkeypatch.setattr(TraceStore, "iter_chunks", spy)
    return reads


@requires_native
@pytest.mark.parametrize("alg", [lambda: DetPar(64, 4), lambda: RandPar(64, 4, np.random.default_rng(2))])
def test_box_loops_hand_back_only_for_multi_chunk_columns(tmp_path, monkeypatch, alg):
    wl = skewed()
    sw = streamed(wl, tmp_path, 64)
    multi = {i for i, n in enumerate(wl.lengths) if n > 64}
    refills = []
    real = BoxServer.refill
    monkeypatch.setattr(BoxServer, "refill", lambda self, win, i, *a: refills.append(i) or real(self, win, i, *a))
    reads = chunk_reads(monkeypatch)
    with loop("compiled"):
        alg().run(sw)
    assert multi and set(refills) == multi
    assert {proc for proc, _ in reads} == multi


@requires_native
def test_global_lru_installs_every_first_chunk_up_front(tmp_path, monkeypatch):
    wl = skewed()
    sw = streamed(wl, tmp_path, 64)
    reads = chunk_reads(monkeypatch)
    with loop("compiled"):
        got = GlobalLRU(24, 4).run(sw)
    assert sorted(reads) == [(i, 1) for i, n in enumerate(wl.lengths) if n > 64]
    with loop("reference"):
        want = GlobalLRU(24, 4).run(wl)
    assert got.completion_times.tolist() == want.completion_times.tolist() and got.meta == want.meta
