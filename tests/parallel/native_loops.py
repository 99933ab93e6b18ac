"""The differential harness of the compiled box-schedule loops.

DET-PAR and RAND-PAR each run two ways: compiled on the native kernel
tier (``repro_detpar_run``, ``repro_randpar_run``), and as their python
loop serving every box by the per-request dict-LRU walk under
``REPRO_KERNEL=reference`` (the oracle, and the no-compiler path).
GLOBAL-LRU (``repro_lru_run``, the rescan) and BlackBoxPar (the box
server on each tier) run the same two ways.  A *runner* is a callable
``run(workload)`` that builds a fresh algorithm and runs it, so the
harness holds any of them to one standard: equal completion times, box
trace and ``meta``, byte for byte, in memory and streamed at any chunk
size, and the same error where the reference loop fails.

A streamed run on the compiled tier reads every chunk of the store
exactly once: its ``sim.traces.*`` stream traffic is the store's chunk
plan whenever the run finished.  (The reference tier reads a streamed
box schedule's columns through their memory maps.)  Every finished box
schedule, in memory or streamed, replays exactly under
:func:`repro.parallel.verify.verify_trace` on the reference tier, which
shares no code with the compiled loops, the sweep or the arena: the
records a :class:`~repro.parallel.events.BoxTrace` yields are the
schedule that ran.  At the default chunk sizes a store holds a column
as one chunk or as many, so both the arena of single-chunk columns and
the chunk-fed windows are held to the in-memory run.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import BlackBoxPar, DetPar, RandPar
from repro.obs import metrics as obs_metrics
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache, native_flavor
from repro.parallel import open_streaming
from repro.parallel.timestep import GlobalLRU
from repro.parallel.verify import verify_trace
from repro.traces.store import write_store

HAVE_NATIVE = native_flavor() is not None
requires_native = pytest.mark.skipif(not HAVE_NATIVE, reason="compiled tier unavailable")

#: REPRO_KERNEL per loop.
LOOPS = {"compiled": "native", "reference": "reference"}
CHUNK_ROWS = (1, 2, 7, 64, 4096)
#: The loops that run here: the compiled one only where the cc tier builds.
RUNNABLE = ("compiled", "reference") if HAVE_NATIVE else ("reference",)


def det_par(k, s):
    """Runner of DET-PAR at cache ``k`` and miss cost ``s``."""
    return lambda wl: DetPar(k, s).run(wl)


def rand_par(k, s, seed=0, kind="inverse_square", max_chunks=None):
    """Runner of RAND-PAR, each run drawing from a fresh generator."""
    return lambda wl: RandPar(k, s, np.random.default_rng(seed), kind).run(wl, max_chunks=max_chunks)


def global_lru(k, s):
    """Runner of GLOBAL-LRU at shared cache ``k`` and miss cost ``s``."""
    return lambda wl: GlobalLRU(k, s).run(wl)


def black_box(k, s):
    """Runner of the black-box packing at cache ``k`` and miss cost ``s``."""
    return lambda wl: BlackBoxPar(k, s).run(wl)


@contextmanager
def loop(name):
    """Pin the environment that selects one loop."""
    saved = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = LOOPS[name]
    clear_kernel_cache()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved
        clear_kernel_cache()


def observe(name, run, wl):
    """Everything observable about ``run(wl)`` on one loop, or the
    ``ValueError`` (or subclass) it raised, as its type name and text."""
    return _observe(name, run, wl)[0]


def _observe(name, run, wl):
    """:func:`observe`, and the wall-stripped ``sim.traces.*`` counters of
    the run (``None`` unless it finished).  A box schedule that finished
    is replayed first."""
    with loop(name), obs_metrics.collecting() as reg:
        try:
            res = run(wl)
        except ValueError as exc:
            return (type(exc).__name__, str(exc)), None
    res.validate()
    finished = res.meta.get("finished", True)
    if res.trace and finished:
        with loop("reference"):
            check = verify_trace(res, wl)
        assert check.ok, check.errors[:5]
    counters = obs_metrics.strip_wall(reg.snapshot())["counters"]
    traffic = {k: v for k, v in counters.items() if k.startswith("sim.traces.")}
    return (res.completion_times.tolist(), res.trace, res.meta), traffic if finished else None


def chunk_plan(sw):
    """The ``sim.traces.*`` counters of reading every chunk of ``sw``'s
    store once, read from the store itself."""
    plan = {}
    for proc in range(sw.p):
        sizes = [len(chunk) for chunk in sw.store.iter_chunks(proc)]
        if sizes:
            plan[f"sim.traces.chunks{{proc={proc}}}"] = len(sizes)
            plan[f"sim.traces.requests_streamed{{proc={proc}}}"] = sum(sizes)
    return plan


def streamed(wl, tmp_path, chunk_rows):
    """``wl`` written to a fresh store and opened for streaming."""
    path = tmp_path / f"wl-{chunk_rows}-{len(list(tmp_path.iterdir()))}.trc"
    return open_streaming(write_store(path, wl, chunk_rows=chunk_rows))


def assert_same(got, want, where=""):
    """Equal, and pickled to the same bytes (so equal in type, too)."""
    assert got == want, where
    assert pickle.dumps(got) == pickle.dumps(want), where


def assert_all_loops_agree(run, wl, tmp_path, chunks=CHUNK_ROWS):
    """Every loop in memory and streamed at each chunk size, against the
    reference loop in memory, with the store's whole chunk plan as the
    compiled loop's stream traffic; returns what they observed."""
    want = observe("reference", run, wl)
    if HAVE_NATIVE:
        assert_same(observe("compiled", run, wl), want, "compiled")
    for chunk_rows in chunks:
        sw = streamed(wl, tmp_path, chunk_rows)
        for name in RUNNABLE:
            got, traffic = _observe(name, run, sw)
            assert_same(got, want, f"{name} streamed at chunk_rows={chunk_rows}")
            if name == "compiled" and traffic is not None:
                assert traffic == chunk_plan(sw), f"stream traffic at chunk_rows={chunk_rows}"
    return want
