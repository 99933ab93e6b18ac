"""The differential harness of the compiled box-schedule loops.

DET-PAR and RAND-PAR each run three ways: compiled on the native kernel
tier (``repro_detpar_run``, ``repro_randpar_run``), as their python loop
under ``REPRO_KERNEL=fast`` (the no-compiler path), and as that loop
serving every box by the per-request dict-LRU walk under
``REPRO_KERNEL=reference``.  A *runner* is a callable ``run(workload)``
that builds a fresh algorithm and runs it, so the harness holds any of
them to one standard: equal completion times, box trace and ``meta``,
byte for byte, in memory and streamed at any chunk size, and the same
error where the python loop fails.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import DetPar, RandPar
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache, native_flavor
from repro.parallel import open_streaming
from repro.traces.store import write_store

HAVE_NATIVE = native_flavor() is not None
requires_native = pytest.mark.skipif(not HAVE_NATIVE, reason="compiled tier unavailable")

#: REPRO_KERNEL per loop.
LOOPS = {"compiled": "native", "python": "fast", "reference": "reference"}
CHUNK_ROWS = (1, 2, 7, 64, 4096)
#: The loops a streamed run can take (the reference reads the memmap).
STREAMED = ("compiled", "python") if HAVE_NATIVE else ("python",)


def det_par(k, s):
    """Runner of DET-PAR at cache ``k`` and miss cost ``s``."""
    return lambda wl: DetPar(k, s).run(wl)


def rand_par(k, s, seed=0, kind="inverse_square", max_chunks=None):
    """Runner of RAND-PAR, each run drawing from a fresh generator."""
    return lambda wl: RandPar(k, s, np.random.default_rng(seed), kind).run(wl, max_chunks=max_chunks)


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
    with loop(name):
        try:
            res = run(wl)
        except ValueError as exc:
            return (type(exc).__name__, str(exc))
    res.validate()
    return res.completion_times.tolist(), list(res.trace), res.meta


def streamed(wl, tmp_path, chunk_rows):
    """``wl`` written to a fresh store and opened for streaming."""
    path = tmp_path / f"wl-{chunk_rows}-{len(list(tmp_path.iterdir()))}.trc"
    return open_streaming(write_store(path, wl, chunk_rows=chunk_rows))


def assert_same(got, want, where=""):
    """Equal, and pickled to the same bytes (so equal in type, too)."""
    assert got == want, where
    assert pickle.dumps(got) == pickle.dumps(want), where


def assert_all_loops_agree(run, wl, tmp_path, chunks=CHUNK_ROWS):
    """Every loop in memory, and the streaming ones at each chunk size,
    against the python loop in memory; returns what they observed."""
    want = observe("python", run, wl)
    assert_same(observe("reference", run, wl), want, "reference")
    if HAVE_NATIVE:
        assert_same(observe("compiled", run, wl), want, "compiled")
    for chunk_rows in chunks:
        sw = streamed(wl, tmp_path, chunk_rows)
        for name in STREAMED:
            assert_same(observe(name, run, sw), want, f"{name} streamed at chunk_rows={chunk_rows}")
    return want
