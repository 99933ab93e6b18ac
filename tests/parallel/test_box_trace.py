"""BoxTrace: the columns against the per-record code they replace.

A run's trace is one block of int64 rows (:class:`BoxTrace`), and the
whole-trace reductions read its columns with numpy.  This file keeps the
per-record versions those reductions replaced — the dict sweep of
``capacity_profile``, the record walks of ``validate``, ``total_impact``
and ``impact_by_proc``, and the per-field ``save_result`` — as oracles,
and holds the columns to them on drawn traces: empty ones, boxes of zero
or negative duration, breakpoints that several boxes share or whose
changes cancel, one processor, every fault ``validate`` reports, and tags
beyond the compiled loops' own.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DetPar, RandPar
from repro.parallel import BoxRecord, ParallelRunResult, capacity_profile, peak_concurrent_height, summarize
from repro.parallel.events import BoxTrace
from repro.parallel.serialize import _json_safe, load_result, save_result
from repro.workloads import make_parallel_workload

from .native_loops import loop, requires_native

_TRACE_FIELDS = ("proc", "height", "start", "end", "served_start", "served_end", "hits", "faults", "phase")
TAGS = ("", "base", "strip", "primary", "secondary", "green", "singleton", "untagged")


# ---------------------------------------------------------------------- #
# the per-record oracles
# ---------------------------------------------------------------------- #
def oracle_capacity_profile(trace):
    if not trace:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    deltas: Dict[int, int] = {}
    for r in trace:
        if r.duration == 0:
            continue
        deltas[r.start] = deltas.get(r.start, 0) + r.height
        deltas[r.end] = deltas.get(r.end, 0) - r.height
    times = np.array(sorted(deltas), dtype=np.int64)
    heights = np.cumsum([deltas[int(t)] for t in times]).astype(np.int64)
    return times, heights


def oracle_validate(trace) -> None:
    by_proc: Dict[int, List[BoxRecord]] = {}
    for r in trace:
        if r.end < r.start:
            raise AssertionError(f"box with negative duration: {r}")
        if r.served_end < r.served_start:
            raise AssertionError(f"box with negative service: {r}")
        if r.hits + r.faults != r.served:
            raise AssertionError(f"hits+faults != served: {r}")
        by_proc.setdefault(r.proc, []).append(r)
    for proc, boxes in by_proc.items():
        boxes.sort(key=lambda r: (r.start, r.served_start))
        pos = None
        for r in boxes:
            if pos is not None and r.served_start != pos:
                raise AssertionError(
                    f"proc {proc}: service not contiguous at position {pos} vs {r.served_start}"
                )
            pos = r.served_end


def oracle_total_impact(trace) -> int:
    return sum(r.reserved_impact for r in trace)


def oracle_impact_by_proc(trace, p) -> np.ndarray:
    out = np.zeros(p, dtype=np.int64)
    for r in trace:
        out[r.proc] += r.reserved_impact
    return out


def oracle_save_result(result, path) -> None:
    trace_mat = np.array(
        [[getattr(r, f) for f in _TRACE_FIELDS] for r in result.trace], dtype=np.int64
    ).reshape(len(result.trace), len(_TRACE_FIELDS))
    tags = np.array([r.tag for r in result.trace], dtype=object) if result.trace else np.array([], dtype=object)
    np.savez_compressed(
        path,
        algorithm=np.array(result.algorithm),
        completion_times=result.completion_times,
        cache_size=np.array(result.cache_size),
        miss_cost=np.array(result.miss_cost),
        trace=trace_mat,
        trace_tags=tags,
        meta=np.array(json.dumps(_json_safe(result.meta))),
    )


def outcome(check, *args):
    """``None`` when ``check`` passes, else its assertion's text."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def result_of(records, p):
    return ParallelRunResult(
        algorithm="drawn",
        completion_times=np.arange(p, dtype=np.int64),
        trace=records,
        cache_size=16,
        miss_cost=3,
        meta={"drawn": True},
    )


def box(proc=0, height=2, start=0, end=4, ss=0, se=2, hits=1, faults=1, phase=-1, tag=""):
    return BoxRecord(proc, height, start, end, ss, se, hits, faults, phase, tag)


# ---------------------------------------------------------------------- #
# drawn traces
# ---------------------------------------------------------------------- #
@st.composite
def loose_records(draw):
    """Records with few distinct values, so breakpoints are shared and
    cancel, and any field may be malformed."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 24))
    out = []
    for _ in range(n):
        start = draw(st.integers(0, 12))
        served_start = draw(st.integers(0, 8))
        served_end = served_start + draw(st.integers(-1, 4))
        hits = draw(st.integers(0, 4))
        faults = draw(st.sampled_from([max(0, served_end - served_start - hits), draw(st.integers(0, 4))]))
        out.append(
            BoxRecord(
                proc=draw(st.integers(0, p - 1)),
                height=draw(st.integers(0, 6)),
                start=start,
                end=start + draw(st.sampled_from([0, 0, 1, 2, 3, 5, -1])),
                served_start=served_start,
                served_end=served_end,
                hits=hits,
                faults=faults,
                phase=draw(st.integers(-1, 3)),
                tag=draw(st.sampled_from(TAGS)),
            )
        )
    return out, p


FAULTS = ("none", "duration", "service", "counts", "gap", "overlap")


@st.composite
def schedules(draw):
    """Well-formed per-processor schedules in a drawn interleaving, with
    at most one fault of each kind ``validate`` reports put in."""
    p = draw(st.integers(1, 4))
    per_proc = []
    for proc in range(p):
        boxes, pos, t = [], 0, draw(st.integers(0, 5))
        for _ in range(draw(st.integers(0, 6))):
            served = draw(st.integers(0, 3))
            hits = draw(st.integers(0, served))
            dur = draw(st.integers(0, 6))
            boxes.append(box(proc, draw(st.integers(1, 8)), t, t + dur, pos, pos + served, hits, served - hits,
                             draw(st.integers(-1, 2)), draw(st.sampled_from(TAGS))))
            pos += served
            t += dur if draw(st.booleans()) else 0  # zero-length steps tie starts
        per_proc.append(boxes)
    order = draw(st.permutations([(i, j) for i, boxes in enumerate(per_proc) for j in range(len(boxes))]))
    trace = [per_proc[i][j] for i, j in order]
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    for fault in faults:
        if not trace or fault == "none":
            continue
        k = draw(st.integers(0, len(trace) - 1))
        r = trace[k]
        trace[k] = {
            "duration": lambda: r._replace(end=r.start - 1),
            "service": lambda: r._replace(served_end=r.served_start - 1, hits=0, faults=-1),
            "counts": lambda: r._replace(hits=r.hits + 1),
            "gap": lambda: r._replace(served_start=r.served_start + 1, served_end=r.served_end + 1),
            "overlap": lambda: r._replace(served_end=r.served_end + 2, faults=r.faults + 2),
        }[fault]()
    return trace, p


traces = st.one_of(loose_records(), schedules())

EDGES = [
    ([], 1),  # empty
    ([box(end=0), box(start=3, end=3, ss=2, se=4)], 1),  # every box of zero duration
    ([box(0, 2, 0, 5), box(1, 3, 5, 9, ss=0, se=2), box(0, 2, 5, 9, ss=2, se=4)], 2),  # deltas cancel at 5
    ([box(0, 2, 0, 5), box(1, 2, 0, 5, tag="green")], 2),  # a shared breakpoint
    ([box(0, 4, 0, 8, tag="singleton"), box(0, 4, 8, 10, ss=2, se=4, tag="base")], 1),  # one processor
    ([box(), box(1, start=5, end=4, ss=3, se=2, hits=0, faults=-1)], 2),  # every field fault in one box
    ([box(), box(1, ss=3, se=2, hits=2, faults=2)], 2),  # negative service and wrong counts
]


def with_edges(test):
    for records, p in EDGES:
        test = example((records, p))(test)
    return test


# ---------------------------------------------------------------------- #
# properties
# ---------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(traces)
@with_edges
def test_records_round_trip_and_pickle_canonically(drawn):
    records, _ = drawn
    trace = BoxTrace.from_records(records)
    assert list(trace) == records and trace == records and records == trace
    assert len(trace) == len(records) and bool(trace) == bool(records)
    for got, want in zip(trace, records):
        assert type(got) is BoxRecord and all(type(x) is int for x in got[:9]) and got.tag == want.tag
    assert trace.tags == tuple(sorted({r.tag for r in records}))
    again = BoxTrace.from_records(list(trace))
    assert again == trace and pickle.dumps(again) == pickle.dumps(trace)
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace and list(clone) == records


@settings(max_examples=300, deadline=None)
@given(traces)
@with_edges
def test_every_reduction_equals_its_oracle(drawn):
    records, p = drawn
    res = result_of(records, p)
    want_t, want_h = oracle_capacity_profile(records)
    for got_t, got_h in (capacity_profile(res.trace), capacity_profile(records)):
        assert got_t.dtype == got_h.dtype == np.int64
        assert got_t.tolist() == want_t.tolist() and got_h.tolist() == want_h.tolist()
    assert peak_concurrent_height(res.trace) == (int(want_h.max()) if len(want_h) else 0)
    assert res.total_impact() == oracle_total_impact(records)
    assert type(res.total_impact()) is int
    assert res.impact_by_proc().tolist() == oracle_impact_by_proc(records, p).tolist()
    for proc in range(p):
        assert res.boxes_of(proc) == [r for r in records if r.proc == proc]
    assert outcome(res.validate) == outcome(oracle_validate, records)


@settings(max_examples=100, deadline=None)
@given(traces)
@with_edges
def test_npz_written_by_the_oracle_loads_equal(tmp_path_factory, drawn):
    records, p = drawn
    res = result_of(records, p)
    where = tmp_path_factory.mktemp("npz")
    oracle_save_result(res, where / "oracle.npz")
    loaded = load_result(where / "oracle.npz")
    assert loaded.trace == res.trace and pickle.dumps(loaded.trace) == pickle.dumps(res.trace)
    assert loaded.completion_times.tolist() == res.completion_times.tolist()
    assert (loaded.algorithm, loaded.cache_size, loaded.miss_cost, loaded.meta) == ("drawn", 16, 3, {"drawn": True})
    # and the columns write the oracle's arrays, under the same keys
    save_result(res, where / "columns.npz")
    with np.load(where / "oracle.npz", allow_pickle=True) as want, np.load(where / "columns.npz", allow_pickle=True) as got:
        assert sorted(got.files) == sorted(want.files)
        for key in want.files:
            assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
            assert got[key].tolist() == want[key].tolist(), key


def test_validate_names_the_first_fault_a_record_walk_finds():
    # proc 1 appears first, so its gap is reported before proc 0's
    records = [box(1, ss=0, se=2), box(0, ss=0, se=2), box(0, start=4, end=8, ss=5, se=7),
               box(1, start=4, end=8, ss=3, se=5)]
    res = result_of(records, 2)
    with pytest.raises(AssertionError, match="proc 1: service not contiguous at position 2 vs 3"):
        res.validate()
    # a malformed box anywhere comes before any gap
    res = result_of(records + [box(0, start=9, end=8, ss=7, se=9)], 2)
    with pytest.raises(AssertionError, match="box with negative duration"):
        res.validate()


# ---------------------------------------------------------------------- #
# the sequence contract
# ---------------------------------------------------------------------- #
def test_behaves_as_an_immutable_list_of_records():
    records = [box(0, tag="strip"), box(1, tag="base"), box(0, start=4, end=6, ss=2, se=3, hits=0, tag="strip")]
    trace = BoxTrace.from_records(records)
    assert trace[0] == records[0] and trace[-1] == records[-1] and trace[1:] == records[1:]
    assert list(reversed(trace)) == records[::-1] and records[1] in trace
    assert trace.index(records[2]) == 2 and trace.count(records[0]) == 1
    assert BoxTrace() == [] and [] == BoxTrace() and not BoxTrace() and len(BoxTrace()) == 0
    assert trace != records[:2] and trace != [] and trace != "abc"
    with pytest.raises(TypeError):
        trace[0] = records[1]
    with pytest.raises(ValueError):
        trace.rows[0, 0] = 5
    assert not hasattr(trace, "append") and not hasattr(trace, "pop")
    with pytest.raises(TypeError):
        hash(trace)


def test_rows_are_canonical_whatever_the_tag_tuple():
    rows = np.array([[0, 2, 0, 4, 0, 2, 1, 1, -1, 2], [1, 2, 0, 4, 0, 2, 1, 1, -1, 2]], dtype=np.int64)
    trace = BoxTrace(rows, ("unused", "strip", "base"))
    assert trace.tags == ("base",) and trace.rows[:, 9].tolist() == [0, 0]
    assert [r.tag for r in trace] == ["base", "base"]
    assert rows[0, 9] == 2  # the caller's rows are copied, not remapped
    assert BoxTrace.from_blocks([rows[:1], rows[1:]], ("unused", "strip", "base")) == trace
    with pytest.raises(ValueError, match="tag index"):
        BoxTrace(rows, ("base",))
    with pytest.raises(ValueError, match="shape"):
        BoxTrace(np.zeros((2, 9), dtype=np.int64))


def test_a_replaced_trace_is_converted_once():
    wl = make_parallel_workload(p=3, n_requests=80, k=16, rng=np.random.default_rng(4))
    res = DetPar(32, 4).run(wl)
    edited = replace(res, trace=list(res.trace)[1:])
    assert isinstance(edited.trace, BoxTrace) and edited.trace == list(res.trace)[1:]


# ---------------------------------------------------------------------- #
# the compiled loops' traces stay columns
# ---------------------------------------------------------------------- #
@requires_native
@pytest.mark.parametrize("algorithm", ["det-par", "rand-par"])
def test_run_and_summarize_of_a_compiled_loop_build_no_record(monkeypatch, tmp_path, algorithm):
    wl = make_parallel_workload(p=8, n_requests=600, k=32, rng=np.random.default_rng(2))
    with loop("python"):
        want = DetPar(64, 8).run(wl) if algorithm == "det-par" else RandPar(64, 8, np.random.default_rng(1)).run(wl)
        want_summary = summarize(want)

    def no_records(self):
        raise AssertionError("a BoxRecord was built")

    with loop("compiled"):
        monkeypatch.setattr(BoxTrace, "records", no_records)
        res = DetPar(64, 8).run(wl) if algorithm == "det-par" else RandPar(64, 8, np.random.default_rng(1)).run(wl)
        assert summarize(res) == want_summary
        res.validate()
        assert res.total_impact() > 0 and res.impact_by_proc().sum() == res.total_impact()
        save_result(res, tmp_path / "r.npz")
        monkeypatch.undo()
    assert len(res.trace) > 256  # more than one record buffer
    assert res.trace == want.trace and pickle.dumps(res.trace) == pickle.dumps(want.trace)
