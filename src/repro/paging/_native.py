"""Compiled kernel primitives: the production kernel tier.

The numpy fast path (:mod:`repro.paging.kernel`) already amortizes the
reuse-distance precompute, but four inner loops remain bound by python
or by O(window) vectorized work per probe:

* the reuse-distance Fenwick sweep (python loop beyond the vectorized
  build cutoff, O(n²/chunk) numpy below it),
* the per-box service walk (a cumsum over the whole budget window even
  when the box serves a dozen requests),
* the offline green DP relaxation (a python ``zip`` loop over every
  reachable position × ladder level), and
* GLOBAL-LRU's shared-cache event loop (one python LRU touch and heap
  step per request, :class:`repro.parallel.timestep.GlobalLRU`).  Its
  state lives in int64 arrays the caller owns, so a call returns when a
  processor's chunk runs out and resumes once the caller installs the
  next one; a streamed run never holds more than one chunk per processor.

This module compiles those loops from one small C translation unit with
the system C compiler into a content-addressed shared library and loads
it through :mod:`ctypes` (no third-party dependency at all).  Every
value it produces — reuse distances, box endpoints, DP distances and
parent pointers, GLOBAL-LRU completion times and counts — is
bit-identical to the numpy fast path (or python event loop) and to the
reference.  With ``$REPRO_KERNEL`` unset the kernel runs on
this tier whenever the library builds; when it cannot be built (no
compiler) :func:`native_ops` returns ``None`` and the kernel falls back
to the numpy fast path (see :func:`repro.paging.kernel.kernel_backend`).

``$REPRO_NATIVE`` pins the flavor: ``auto`` (default) or ``cc`` build
the library, ``off`` pretends no compiler exists (CI uses it to keep
the numpy fallback covered).  The library is cached per user in
``$REPRO_NATIVE_CACHE`` (default ``$TMPDIR/repro-native-<uid>``,
created with mode 0700).  Its source is public, so its content-addressed
name is predictable: before writing into the cache or loading from it,
the directory and the library are checked with ``lstat`` — no symlink,
owned by the current user, not group- or other-writable.  If a check
fails, the library is built in a fresh :func:`tempfile.mkdtemp`
directory instead, with a :class:`RuntimeWarning`, and nothing in the
suspect directory is loaded.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

__all__ = ["NativeOps", "native_ops", "native_flavor", "NATIVE_ENV", "clear_native_cache"]

#: Environment variable pinning the native flavor (auto/cc/off).
NATIVE_ENV = "REPRO_NATIVE"
#: Environment variable overriding the cc build cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_C_SOURCE = r"""
#include <stdint.h>

/* Reuse-distance sweep in deletion form (cf. SequenceKernel.__init__):
 * position j is marked in the Fenwick tree once its page reoccurs, so
 * the distinct count between an occurrence pair (j, i) is the gap
 * length minus the marks inside it.  Rows in [0, lo) are processed for
 * their tree marks but not written, which is exactly what the
 * streaming kernel's suffix rebuild needs.  `tree` must be zeroed,
 * length cap + 1, cap >= hi. */
void repro_reuse_sweep(const int64_t *prev, int64_t lo, int64_t hi,
                       int64_t cold, int64_t *tree, int64_t cap,
                       int64_t *reuse) {
    int64_t i, j, x, acc;
    for (i = 0; i < hi; i++) {
        j = prev[i];
        if (j >= 0) {
            if (i >= lo) {
                acc = i - 1 - j;
                for (x = i; x > 0; x -= x & (-x))
                    acc -= tree[x];
                for (x = j + 1; x > 0; x -= x & (-x))
                    acc += tree[x];
                reuse[i] = acc;
            }
            for (x = j + 1; x <= cap; x += x & (-x))
                tree[x] += 1;
        } else if (i >= lo) {
            reuse[i] = cold;
        }
    }
}

/* One box service walk: the reference loop over the precomputed hit
 * predicate (hit iff prev[i] >= start && reuse[i] < height).  Writes
 * (served, hits, time_used) into out3. */
void repro_box_run(const int64_t *prev, const int64_t *reuse, int64_t n,
                   int64_t start, int64_t height, int64_t budget,
                   int64_t s, int64_t *out3) {
    int64_t i = start, t = 0, hits = 0, c;
    while (i < n) {
        c = (prev[i] >= start && reuse[i] < height) ? 1 : s;
        if (t + c > budget)
            break;
        t += c;
        hits += (c == 1);
        i++;
    }
    out3[0] = i - start;
    out3[1] = hits;
    out3[2] = t;
}

/* Box endpoints for a block of B consecutive starts across a whole
 * ascending height ladder.  lev[i] is the first ladder index whose
 * height exceeds reuse[i] (so level l hits i iff lev[i] <= l), which
 * collapses the nested hit sets to one comparison per request. */
void repro_ladder_block(const int64_t *prev, const int64_t *lev, int64_t n,
                        int64_t L, const int64_t *budgets, int64_t s,
                        int64_t q0, int64_t B, int64_t *ends_out) {
    int64_t b, l, q, budget, t, i, c;
    for (b = 0; b < B; b++) {
        q = q0 + b;
        for (l = 0; l < L; l++) {
            budget = budgets[l];
            t = 0;
            i = q;
            while (i < n) {
                c = (prev[i] >= q && lev[i] <= l) ? 1 : s;
                if (t + c > budget)
                    break;
                t += c;
                i++;
            }
            ends_out[b * L + l] = i;
        }
    }
}

/* The whole offline green DP relaxation (repro.green.offline): ascending
 * positions, ascending ladder levels, strict-< improvement — the exact
 * tie-breaking of the python sweep, so distances and parent pointers
 * are bit-identical.  dist has length n + 1 with dist[0] = 0 and inf
 * elsewhere on entry. */
void repro_dp_solve(const int64_t *prev, const int64_t *lev, int64_t n,
                    int64_t L, const int64_t *budgets, const int64_t *costs,
                    const int64_t *heights, int64_t s, int64_t inf,
                    int64_t *dist, int64_t *parent_pos, int64_t *parent_h) {
    int64_t q, l, d, budget, t, i, c, nd;
    for (q = 0; q < n; q++) {
        d = dist[q];
        if (d == inf)
            continue;
        for (l = 0; l < L; l++) {
            budget = budgets[l];
            t = 0;
            i = q;
            while (i < n) {
                c = (prev[i] >= q && lev[i] <= l) ? 1 : s;
                if (t + c > budget)
                    break;
                t += c;
                i++;
            }
            nd = d + costs[l];
            if (nd < dist[i]) {
                dist[i] = nd;
                parent_pos[i] = q;
                parent_h[i] = heights[l];
            }
        }
    }
}

/* GLOBAL-LRU's event loop (repro.parallel.timestep.GlobalLRU._run_event)
 * over caller-owned state, so it can return when a processor's chunk runs
 * out and resume once the caller installs the next one:
 *   st    key, heap size, resident pages, MRU node, LRU node, hits,
 *         faults, evictions, capacity, log2(table slots)
 *   heap  min-heap of the waiting processors' `time << shift | proc` keys
 *   proc  4 per processor: requests left, chunk address, rows, next row
 *   table 2 per slot: page, node + 1 (0 = empty); at most half full,
 *         linear probing with backward-shift deletion
 *   node  3 per resident page: page, newer node, older node (-1 = none)
 * Returns the processor whose chunk ran out, or -1 once all are done. */
#define LRU_HOME(page) ((int64_t)(((uint64_t)(page) * 0x9E3779B97F4A7C15ULL) >> (64 - bits)))

static int64_t lru_find(const int64_t *table, int64_t bits, int64_t page) {
    int64_t j = LRU_HOME(page), mask = ((int64_t)1 << bits) - 1;
    while (table[2 * j + 1] && table[2 * j] != page)
        j = (j + 1) & mask;
    return j;
}

static void lru_unlink(int64_t *node, int64_t x, int64_t *mru, int64_t *lru) {
    int64_t newer = node[3 * x + 1], older = node[3 * x + 2];
    if (newer >= 0) node[3 * newer + 2] = older; else *mru = older;
    if (older >= 0) node[3 * older + 1] = newer; else *lru = newer;
}

int64_t repro_lru_run(int64_t shift, int64_t miss, int64_t *st, int64_t *heap,
                      int64_t *proc, int64_t *table, int64_t *node,
                      int64_t *completion) {
    int64_t key = st[0], hn = st[1], size = st[2], mru = st[3], lru = st[4];
    int64_t bits = st[9], mask = ((int64_t)1 << bits) - 1, hit = (int64_t)1 << shift;
    int64_t status = -1, top, page, i, j, k, h, x, m, *pr;
    const int64_t *col;
    for (;;) {
        i = key & (hit - 1);
        pr = proc + 4 * i;
        col = (const int64_t *)(intptr_t)pr[1];
        top = hn ? heap[0] : INT64_MAX;
        for (m = pr[0]; m; ) {
            if (pr[3] == pr[2]) {
                pr[0] = m;
                status = i;
                goto out;
            }
            page = col[pr[3]++];
            j = lru_find(table, bits, page);
            x = table[2 * j + 1] - 1;
            if (x >= 0) {  /* hit: the page's node moves to the front */
                st[5]++;
                key += hit;
                lru_unlink(node, x, &mru, &lru);
            } else {  /* fault: a fresh node, or the evicted LRU page's */
                st[6]++;
                key += miss << shift;
                if (size < st[8]) {
                    x = size++;
                } else {
                    x = lru;
                    lru_unlink(node, x, &mru, &lru);
                    for (j = lru_find(table, bits, node[3 * x]), k = j;;) {
                        k = (k + 1) & mask;
                        if (!table[2 * k + 1])
                            break;
                        h = LRU_HOME(table[2 * k]);  /* may k's entry fill the hole at j? */
                        if (k > j ? (h <= j || h > k) : (h <= j && h > k)) {
                            table[2 * j] = table[2 * k];
                            table[2 * j + 1] = table[2 * k + 1];
                            j = k;
                        }
                    }
                    table[2 * j + 1] = 0;
                    st[7]++;
                    j = lru_find(table, bits, page);
                }
                table[2 * j] = page;
                table[2 * j + 1] = x + 1;
                node[3 * x] = page;
            }
            node[3 * x + 1] = -1;
            node[3 * x + 2] = mru;
            if (mru >= 0) node[3 * mru + 1] = x; else lru = x;
            mru = x;
            if (!--m || key > top)
                break;
        }
        pr[0] = m;
        if (m) {
            x = key;
        } else {
            completion[i] = key >> shift;
            if (!hn)
                goto out;
            x = heap[--hn];
        }
        /* pop the top into key: the hole sinks to a leaf along the smaller
         * children (branch-free), then x rises from there */
        key = heap[0];
        for (j = 0; (k = 2 * j + 1) < hn; j = k) {
            k += (k + 1 < hn) & (heap[k + 1] < heap[k]);
            heap[j] = heap[k];
        }
        for (; j > 0 && heap[(j - 1) >> 1] > x; j = (j - 1) >> 1)
            heap[j] = heap[(j - 1) >> 1];
        heap[j] = x;
    }
out:
    st[0] = key; st[1] = hn; st[2] = size; st[3] = mru; st[4] = lru;
    return status;
}
"""


@dataclass(frozen=True)
class NativeOps:
    """Flavor-agnostic handle to the compiled kernel primitives.

    Every callable takes contiguous int64 numpy arrays and plain ints;
    output arrays are filled in place.  ``flavor`` is ``"cc"`` (reported
    by benchmarks and the ``sim.*`` metrics).
    """

    flavor: str
    reuse_sweep: Callable[..., None]
    ladder_block: Callable[..., None]
    dp_solve: Callable[..., None]
    #: ``prepare(prev, reuse)`` -> opaque handle; ``box_probe(handle, n,
    #: start, height, budget, s)`` -> ``[served, hits, time_used]`` of one
    #: box, without per-call pointer/array marshalling, for call sites that
    #: probe the same arrays tens of thousands of times (the streamed box
    #: server).  The handle keeps the arrays alive and must be dropped
    #: whenever they are replaced.
    prepare: Callable[..., object]
    box_probe: Callable[..., List[int]]
    #: ``lru_loop(shift, miss, st, heap, proc, table, node, completion)``
    #: -> ``step``: GLOBAL-LRU's event loop bound to those state arrays
    #: (layout on ``repro_lru_run``).  Each ``step()`` runs it until a
    #: processor's chunk runs out, returning that processor, or until all
    #: are done, returning -1.  ``step`` holds the arrays alive.
    lru_loop: Callable[..., Callable[[], int]]


# --------------------------------------------------------------------- #
# cc flavor: compile-on-demand C shared library, loaded via ctypes
# --------------------------------------------------------------------- #
def _cc_build_dir() -> Path:
    override = os.environ.get(NATIVE_CACHE_ENV)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid() if hasattr(os, 'getuid') else 'u'}"


def _private(path: Path, kind: Callable[[int], bool]) -> bool:
    """``path`` is a ``kind`` (``stat.S_ISDIR``/``S_ISREG``; a symlink is
    neither) owned by this user and not group- or other-writable."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    if not kind(st.st_mode):
        return False
    if not hasattr(os, "getuid"):  # no POSIX ownership to check
        return True
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build_and_load(build: Path, lib_path: Path) -> Optional[ctypes.CDLL]:
    """Compile into ``build`` unless ``lib_path`` exists, then load it.

    Each build compiles in its own private scratch directory and lands
    with an atomic rename, so concurrent builds never see a torn file.
    """
    if not os.path.lexists(lib_path):
        compiler = os.environ.get("CC") or "cc"
        try:
            with tempfile.TemporaryDirectory(dir=build) as scratch:
                src = Path(scratch) / "kernel.c"
                out = Path(scratch) / lib_path.name
                src.write_text(_C_SOURCE)
                cmd = [compiler, "-O2", "-shared", "-fPIC", "-o", str(out), str(src)]
                proc = subprocess.run(cmd, capture_output=True, timeout=120, check=False)
                if proc.returncode != 0:
                    return None
                os.chmod(out, 0o700)
                os.replace(out, lib_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None


def _compile_cc() -> Optional[ctypes.CDLL]:
    """Compile (once, content-addressed) and load the C translation unit."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    suffix = ".so" if sys.platform != "win32" else ".dll"
    build = _cc_build_dir()
    lib_path = build / f"repro_kernel_{digest}{suffix}"
    try:
        build.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        pass
    if _private(build, stat.S_ISDIR) and (
        not os.path.lexists(lib_path) or _private(lib_path, stat.S_ISREG)
    ):
        return _build_and_load(build, lib_path)
    warnings.warn(
        f"native kernel cache {build} is missing or not private to this user; "
        "building the kernel in a fresh temporary directory instead",
        RuntimeWarning,
        stacklevel=2,
    )
    try:
        fresh = Path(tempfile.mkdtemp(prefix="repro-native-"))
    except OSError:
        return None
    try:
        # a loaded library stays mapped after its file is removed
        return _build_and_load(fresh, fresh / lib_path.name)
    finally:
        shutil.rmtree(fresh, ignore_errors=True)


def _cc_ops() -> Optional[NativeOps]:
    lib = _compile_cc()
    if lib is None:
        return None
    c_i64 = ctypes.c_int64
    p_i64 = ctypes.c_void_p  # raw addresses: ndarray.ctypes.data ints pass
    # straight through, skipping data_as()'s cast machinery per call
    for name, argtypes in (
        ("repro_reuse_sweep", [p_i64, c_i64, c_i64, c_i64, p_i64, c_i64, p_i64]),
        ("repro_box_run", [p_i64, p_i64, c_i64, c_i64, c_i64, c_i64, c_i64, p_i64]),
        ("repro_ladder_block", [p_i64, p_i64, c_i64, c_i64, p_i64, c_i64, c_i64, c_i64, p_i64]),
        ("repro_dp_solve", [p_i64, p_i64, c_i64, c_i64, p_i64, p_i64, p_i64, c_i64, c_i64, p_i64, p_i64, p_i64]),
        ("repro_lru_run", [c_i64, c_i64] + [p_i64] * 6),
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    lib.repro_lru_run.restype = c_i64

    def ptr(arr: np.ndarray) -> int:
        return arr.ctypes.data

    # per-thread (out array, out pointer) scratch for box probes: the C
    # call releases the GIL, so a shared buffer could race across threads
    tls = threading.local()
    box_fn = lib.repro_box_run

    def reuse_sweep(prev, lo, hi, cold, tree, cap, reuse):
        lib.repro_reuse_sweep(ptr(prev), lo, hi, cold, ptr(tree), cap, ptr(reuse))

    def prepare(prev, reuse):
        # the handle holds the arrays alongside their raw pointers so the
        # pointers can never dangle
        return (ptr(prev), ptr(reuse), prev, reuse)

    def box_probe(handle, n, start, height, budget, s):
        # the scratch is fetched inline: this runs once per event-driven
        # box, where a spare function frame is measurable
        try:
            out, optr = tls.pair
        except AttributeError:
            arr = np.empty(3, dtype=np.int64)
            out, optr = tls.pair = (arr, ptr(arr))
        box_fn(handle[0], handle[1], n, start, height, budget, s, optr)
        return out.tolist()

    def ladder_block(prev, lev, n, budgets, s, q0, B, ends_out):
        lib.repro_ladder_block(
            ptr(prev), ptr(lev), n, len(budgets), ptr(budgets), s, q0, B, ptr(ends_out)
        )

    def dp_solve(prev, lev, budgets, costs, heights, s, inf, dist, parent_pos, parent_h):
        lib.repro_dp_solve(
            ptr(prev), ptr(lev), len(prev), len(budgets), ptr(budgets), ptr(costs),
            ptr(heights), s, inf, ptr(dist), ptr(parent_pos), ptr(parent_h),
        )

    def lru_loop(shift, miss, *state):
        step = functools.partial(lib.repro_lru_run, shift, miss, *map(ptr, state))
        step.state = state  # the pointers above stay valid while step lives
        return step

    return NativeOps(
        flavor="cc",
        reuse_sweep=reuse_sweep,
        ladder_block=ladder_block,
        dp_solve=dp_solve,
        prepare=prepare,
        box_probe=box_probe,
        lru_loop=lru_loop,
    )


# --------------------------------------------------------------------- #
# flavor selection
# --------------------------------------------------------------------- #
_OPS_CACHE: dict = {}


def native_ops() -> Optional[NativeOps]:
    """The compiled primitives, or ``None`` when they cannot be built.

    Flavor is chosen by ``$REPRO_NATIVE``: ``auto`` (default) or ``cc``
    build the C library, ``off`` disables it.  The probe result is
    cached per flavor request, so hot paths pay one dict lookup.
    """
    mode = os.environ.get(NATIVE_ENV, "auto").strip().lower() or "auto"
    if mode == "off":
        return None
    if mode not in ("auto", "cc"):
        raise ValueError(
            f"unknown {NATIVE_ENV} flavor {mode!r}; expected 'auto', 'cc', or 'off'"
        )
    if mode not in _OPS_CACHE:
        _OPS_CACHE[mode] = _cc_ops()
    return _OPS_CACHE[mode]


def native_flavor() -> Optional[str]:
    """``"cc"`` when the compiled tier is usable, else ``None``."""
    ops = native_ops()
    return ops.flavor if ops is not None else None


def clear_native_cache() -> None:
    """Forget probed flavors (tests that flip ``$REPRO_NATIVE`` mid-process)."""
    _OPS_CACHE.clear()
