"""Compiled box-kernel primitives: the production kernel tier.

The numpy fast path (:mod:`repro.paging.kernel`) already amortizes the
reuse-distance precompute, but three inner loops remain bound by python
or by O(window) vectorized work per probe:

* the reuse-distance Fenwick sweep (python loop beyond the vectorized
  build cutoff, O(n²/chunk) numpy below it),
* the per-box service walk (a cumsum over the whole budget window even
  when the box serves a dozen requests), and
* the offline green DP relaxation (a python ``zip`` loop over every
  reachable position × ladder level).

This module compiles those loops from one small C translation unit with
the system C compiler into a content-addressed shared library and loads
it through :mod:`ctypes` (no third-party dependency at all).  Every
value it produces — reuse distances, box endpoints, DP distances and
parent pointers — is bit-identical to the numpy fast path and to the
dict-LRU reference.  With ``$REPRO_KERNEL`` unset the kernel runs on
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
    box_run: Callable[..., List[int]]
    ladder_block: Callable[..., None]
    dp_solve: Callable[..., None]
    #: ``prepare(prev, reuse)`` -> opaque handle; ``box_probe(handle, ...)``
    #: is ``box_run`` minus the per-call pointer/array marshalling, for
    #: call sites that probe the same arrays tens of thousands of times
    #: (the streamed box server).  The handle keeps the arrays alive and
    #: must be dropped whenever they are replaced.
    prepare: Callable[..., object]
    box_probe: Callable[..., List[int]]


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
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None

    def ptr(arr: np.ndarray) -> int:
        return arr.ctypes.data

    # per-thread (out array, out pointer) scratch for box probes: the C
    # call releases the GIL, so a shared buffer could race across threads
    tls = threading.local()

    def _out():
        pair = getattr(tls, "pair", None)
        if pair is None:
            arr = np.empty(3, dtype=np.int64)
            pair = tls.pair = (arr, ptr(arr))
        return pair

    box_fn = lib.repro_box_run

    def reuse_sweep(prev, lo, hi, cold, tree, cap, reuse):
        lib.repro_reuse_sweep(ptr(prev), lo, hi, cold, ptr(tree), cap, ptr(reuse))

    def box_run(prev, reuse, n, start, height, budget, s):
        out, optr = _out()
        box_fn(ptr(prev), ptr(reuse), n, start, height, budget, s, optr)
        return out.tolist()

    def prepare(prev, reuse):
        # the handle holds the arrays alongside their raw pointers so the
        # pointers can never dangle
        return (ptr(prev), ptr(reuse), prev, reuse)

    def box_probe(handle, n, start, height, budget, s):
        # flattened _out(): this runs once per event-driven box, where a
        # spare function frame is measurable
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

    return NativeOps(
        flavor="cc",
        reuse_sweep=reuse_sweep,
        box_run=box_run,
        ladder_block=ladder_block,
        dp_solve=dp_solve,
        prepare=prepare,
        box_probe=box_probe,
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
