"""Differential harness: the event backend ≡ the reference oracle, byte for byte.

This is the lockdown for the event-driven streaming simulator.  Every
registered algorithm is run twice on the same workload — once on the
default kernel tier (shared :class:`EventScheduler` or compiled loops +
kernelized :class:`BoxServer`) and once with ``REPRO_KERNEL=reference``
(the retained timestep / per-request oracles) — and everything
observable must match exactly:

* per-processor completion times (hence makespan and mean completion),
* the full box trace (heights, wall intervals, service intervals,
  hit/fault splits),
* the ``sim.*`` metrics snapshot after :func:`strip_wall`.

A second axis proves streamed execution is invisible: a workload served
chunk-by-chunk from a :class:`TraceStore` through ``StreamingWorkload``
produces the same bytes as the in-memory form (modulo the ``sim.traces.*``
stream-traffic counters, which only exist when streaming).

The grid deliberately mixes powers of two with the newly legal arbitrary
``k >= p >= 1`` shapes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import strip_wall
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache, kernel_backend, native_flavor
from repro.parallel import open_streaming, sim_backend
from repro.parallel.schedulers import RunSpec, make_algorithm
from repro.traces.store import write_store
from repro.workloads import make_parallel_workload

# (cache_size, p): powers of two and not, including p=1 and k=p.
GRID = [(16, 2), (64, 8), (48, 4), (100, 5), (12, 3), (7, 1), (5, 5)]
ALGORITHMS = ["det-par", "rand-par", "black-box-green", "global-lru", "equal-partition"]
KINDS = ["mixed_kinds", "cyclic", "zipf", "multiscale", "phased"]


@contextmanager
def backend(name):
    """Scope ``$REPRO_KERNEL`` to the tier ``name``, restoring the prior
    value; ``"event"`` is the default tier (the variable unset), which is
    the reference tier on a host without a C compiler.

    The kernel cache is cleared on the way in and out, so each leg builds
    its kernels on its own tier.
    """
    old = os.environ.get(KERNEL_ENV)
    if name == "event":
        os.environ.pop(KERNEL_ENV, None)
    else:
        os.environ[KERNEL_ENV] = name
    clear_kernel_cache()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = old
        clear_kernel_cache()


def run_with_metrics(alg_name, k, s, wl, seed=0):
    """One observed run; returns (result, strip_wall'ed sim.* snapshot)."""
    with obs_metrics.collecting() as reg:
        alg = make_algorithm(RunSpec(algorithm=alg_name, cache_size=k, miss_cost=s, xi=1, seed=seed))
        res = alg.run(wl)
    return res, strip_wall(reg.snapshot())


def drop_stream_counters(snap):
    """Snapshot minus the ``sim.traces.*`` stream-traffic counters, which
    exist only on streamed runs (the documented, intended difference)."""
    out = {}
    for section, metrics in snap.items():
        if isinstance(metrics, dict):
            out[section] = {
                k: v for k, v in metrics.items() if not k.startswith("sim.traces.")
            }
        else:
            out[section] = metrics
    return out


def trace_tuples(res):
    return [
        (r.proc, r.height, r.start, r.end, r.served_start, r.served_end, r.hits, r.faults, r.phase, r.tag)
        for r in res.trace
    ]


def assert_identical(a, b, ctx=""):
    """Byte-level equality of everything observable about two runs."""
    assert a.algorithm == b.algorithm, ctx
    assert a.completion_times.tolist() == b.completion_times.tolist(), (
        f"{ctx}: completions {a.completion_times} != {b.completion_times}"
    )
    assert trace_tuples(a) == trace_tuples(b), f"{ctx}: box traces differ"
    assert a.makespan == b.makespan, ctx
    if a.algorithm == "global-lru":
        assert a.meta == b.meta, f"{ctx}: hit/fault counts differ"
    if a.algorithm == "det-par":
        # phases are dataclasses, so they compare field by field
        assert a.meta == b.meta, f"{ctx}: phases, rebuild times or reserved peak differ"


def feasible(alg, k, p):
    """Skip grid cells an algorithm rejects by design (not a backend issue)."""
    if alg == "black-box-green":
        # needs K/2 >= next_pow2(p) at run time
        pw = 1 << (max(1, p) - 1).bit_length()
        return k // 2 >= pw
    return True


class TestBackendSwitch:
    """``sim_backend()`` reads no variable of its own: it follows
    ``$REPRO_KERNEL``, and names the reference loops exactly when the
    kernel tier is ``reference`` (pinned, or where no C compiler builds
    the native tier)."""

    def test_default_is_event(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert sim_backend() == ("event" if native_flavor() is not None else "reference")

    @pytest.mark.parametrize("value,expect", [
        ("native", "event"), ("compiled", "event"),
        ("reference", "reference"), ("ref", "reference"),
    ])
    def test_aliases(self, monkeypatch, value, expect):
        if native_flavor() is None:
            expect = "reference"  # the native tier resolves to the python loops
        monkeypatch.setenv(KERNEL_ENV, value)
        assert sim_backend() == expect
        assert (kernel_backend() == "reference") == (expect == "reference")

    def test_invalid_rejected(self, monkeypatch):
        # the old simulator switch's values, "auto" (once a per-cell
        # heuristic), "fast" and "kernel" are no tier: rejected loudly,
        # never defaulted
        for value in ("warp-drive", "auto", "event", "timestep", "fast", "kernel"):
            monkeypatch.setenv(KERNEL_ENV, value)
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                sim_backend()


class TestEventEqualsReference:
    """The headline property: event ≡ reference on the full matrix."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        case=st.sampled_from(GRID),
        alg=st.sampled_from(ALGORITHMS),
        kind=st.sampled_from(KINDS),
        s=st.sampled_from([2, 4, 8]),
    )
    def test_differential(self, seed, case, alg, kind, s):
        k, p = case
        if not feasible(alg, k, p):
            return
        wl = make_parallel_workload(
            p=p, n_requests=120, k=k, rng=np.random.default_rng(seed), kind=kind
        )
        try:
            with backend("event"):
                res_e, snap_e = run_with_metrics(alg, k, s, wl, seed=seed)
        except ValueError:
            # infeasible cell (e.g. det-par reservation does not fit):
            # the reference backend must reject it identically
            with backend("reference"):
                with pytest.raises(ValueError):
                    run_with_metrics(alg, k, s, wl, seed=seed)
            return
        with backend("reference"):
            res_r, snap_r = run_with_metrics(alg, k, s, wl, seed=seed)
        assert_identical(res_e, res_r, ctx=f"{alg} k={k} p={p} kind={kind} s={s} seed={seed}")
        assert snap_e == snap_r, f"{alg}: sim.* metrics drifted between backends"

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("k,p", [(64, 8), (100, 5)])
    def test_pinned_cells(self, alg, k, p):
        """Deterministic non-hypothesis cells for quick bisection."""
        if not feasible(alg, k, p):
            pytest.skip("algorithm rejects this cell by design")
        wl = make_parallel_workload(p=p, n_requests=200, k=k, rng=np.random.default_rng(42))
        with backend("event"):
            res_e, snap_e = run_with_metrics(alg, k, 4, wl)
        with backend("reference"):
            res_r, snap_r = run_with_metrics(alg, k, 4, wl)
        assert_identical(res_e, res_r, ctx=f"{alg} k={k} p={p} reference")
        assert snap_e == snap_r


class TestStreamedEqualsInMemory:
    """Streaming is an execution detail: same bytes as the in-memory run."""

    @pytest.fixture()
    def stored(self, tmp_path):
        wl = make_parallel_workload(p=4, n_requests=300, k=32, rng=np.random.default_rng(11))
        store = write_store(tmp_path / "diff.store", wl, chunk_rows=64)
        return wl, open_streaming(store)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_streamed_event_matches_memory(self, stored, alg):
        wl, sw = stored
        with backend("event"):
            mem, _ = run_with_metrics(alg, 32, 4, wl)
            srm, _ = run_with_metrics(alg, 32, 4, sw)
        assert_identical(mem, srm, ctx=f"{alg} streamed-vs-memory")

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_streamed_reference_matches_too(self, stored, alg):
        wl, sw = stored
        with backend("reference"):
            mem, _ = run_with_metrics(alg, 32, 4, wl)
            srm, _ = run_with_metrics(alg, 32, 4, sw)
        assert_identical(mem, srm, ctx=f"{alg} streamed-reference")

    @pytest.mark.skipif(
        native_flavor() is None,
        reason="a box schedule streams chunks on the compiled tier only (the reference reads the memory map)",
    )
    def test_stream_counters_only_on_streamed_runs(self, stored):
        wl, sw = stored
        with backend("event"):
            _, snap_mem = run_with_metrics("det-par", 32, 4, wl)
            _, snap_str = run_with_metrics("det-par", 32, 4, sw)
        counters_mem = snap_mem.get("counters", {})
        counters_str = snap_str.get("counters", {})
        assert not [k for k in counters_mem if k.startswith("sim.traces.")]
        assert [k for k in counters_str if k.startswith("sim.traces.chunks")]
        # everything that is not stream traffic is identical
        assert drop_stream_counters(snap_mem) == drop_stream_counters(snap_str)
