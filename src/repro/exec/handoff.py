"""Zero-copy handoff of work-unit payloads to pool workers.

Pickling a :class:`~repro.exec.units.WorkUnit` ships its full parameter
mapping through the pool pipe — including multi-million-row request
arrays — so per-worker startup cost and resident memory scale with trace
length.  This module removes the arrays from the pickle path:

* **Workloads spill to the trace store.**  An in-memory
  :class:`~repro.workloads.ParallelWorkload` of at least
  :data:`DEFAULT_SPILL_ROWS` requests is written (once, digest-named)
  to a spooled ``.trc`` via
  :func:`repro.traces.store.spill_workload`; the resulting
  :class:`~repro.traces.store.StoredWorkload` pickles as its *path* and
  workers re-open the ``np.memmap`` — the OS shares one page cache
  across every worker.
* **Request arrays ride shared memory.**  A ``seq`` parameter of at
  least :data:`DEFAULT_SHM_ROWS` rows is copied once into a
  :mod:`multiprocessing.shared_memory` segment and
  replaced by a tiny :class:`ShmArray` handle; workers rebuild a plain
  ndarray view over the same physical pages.
* **Kernel precomputes ship, not recompute.**  When the parent already
  holds the :class:`~repro.paging.kernel.SequenceKernel` for a shared
  sequence — or the same sequence feeds several pending units — its
  ``prev_occ``/``reuse_dist`` arrays travel as two more shared-memory
  segments and are seeded into the worker's kernel cache
  (:func:`repro.paging.kernel.seed_kernel`), so no worker repeats the
  O(n log n) sweep.

Both thresholds are fixed constants; smaller payloads ride the ordinary
pickle path.

Cache keys are untouched by all of this: the engine computes them from
the *original* units before handoff, and a spilled workload fingerprints
to the same content digest as its in-memory twin by construction.

The parent-side :class:`HandoffManager` owns every segment and spill
file and releases them in :meth:`HandoffManager.close` after the pool
has drained.  Workers attach segments through a per-process cache that
is deliberately never closed (segments die with the worker) and with the
:mod:`multiprocessing.resource_tracker` registration suppressed — the
parent is the single owner, and a second registration under the fork
start method would make the tracker complain about a double unlink at
exit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..workloads.trace import ParallelWorkload
from .units import CellOutcome, WorkUnit, execute_unit

__all__ = [
    "ShmArray",
    "PreparedTask",
    "HandoffManager",
    "execute_prepared",
    "DEFAULT_SPILL_ROWS",
    "DEFAULT_SHM_ROWS",
]

#: Spill workloads >= 64 Ki rows (512 KiB of requests) to a ``.trc``.
DEFAULT_SPILL_ROWS = 1 << 16
#: Share sequences >= 16 Ki rows (128 KiB) over shared memory.
DEFAULT_SHM_ROWS = 1 << 14


@dataclass(frozen=True)
class ShmArray:
    """Pickle-sized handle to an int64 array living in shared memory."""

    name: str
    length: int


@dataclass(frozen=True)
class PreparedTask:
    """A work unit whose heavy payloads were replaced by handles.

    Drop-in for :class:`WorkUnit` on the pool-submission path (same
    ``kind``/``label`` surface for telemetry); executed by
    :func:`execute_prepared`, which rebuilds the parameter mapping on the
    worker side.  ``seed`` optionally carries the sequence's
    ``(prev_occ, reuse_dist)`` kernel precomputes.
    """

    kind: str
    params: Mapping[str, Any]
    label: str = ""
    seed: Optional[Tuple[ShmArray, ShmArray]] = None


class HandoffManager:
    """Parent-side owner of spill files and shared-memory segments.

    Lifecycle: ``prepare_batch`` before submitting to the pool,
    ``close`` after the pool has shut down.  Every transform is
    best-effort — anything that cannot be spilled or shared simply rides
    the ordinary pickle path, byte-identical results either way.
    """

    def __init__(self, spill_dir: Optional[os.PathLike] = None) -> None:
        self._spill_dir: Optional[str] = os.fspath(spill_dir) if spill_dir is not None else None
        self._own_spill_dir = spill_dir is None
        self._segments: List[Any] = []
        # id-keyed dedup so one array shared by many units costs one
        # segment; the kept reference pins the id against reuse
        self._by_id: Dict[int, Tuple[ShmArray, np.ndarray]] = {}
        self._spilled: Dict[int, Any] = {}
        self._shm_broken = False

    # ------------------------------------------------------------------ #
    # parent-side transforms
    # ------------------------------------------------------------------ #
    def _dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-handoff-")
        return self._spill_dir

    def _spill(self, workload: ParallelWorkload) -> Optional[Any]:
        cached = self._spilled.get(id(workload))
        if cached is not None:
            return cached
        from ..traces.store import spill_workload

        try:
            stored = spill_workload(workload, self._dir())
        except (ValueError, OSError):
            return None
        self._spilled[id(workload)] = stored
        obs_metrics.counter("exec.handoff.spilled").inc()
        return stored

    def _share(self, arr: np.ndarray) -> Optional[ShmArray]:
        entry = self._by_id.get(id(arr))
        if entry is not None:
            return entry[0]
        if self._shm_broken:
            return None
        try:
            from multiprocessing import shared_memory

            src = np.ascontiguousarray(arr, dtype=np.int64)
            shm = shared_memory.SharedMemory(create=True, size=max(1, src.nbytes))
        except (ImportError, OSError):
            self._shm_broken = True
            return None
        view = np.frombuffer(shm.buf, dtype=np.int64, count=len(src))
        view[:] = src
        self._segments.append(shm)
        handle = ShmArray(name=shm.name, length=len(src))
        self._by_id[id(arr)] = (handle, arr)
        obs_metrics.counter("exec.handoff.shm_segments").inc()
        return handle

    def prepare(self, unit: WorkUnit, *, seed_kernel: bool = False) -> Union[WorkUnit, PreparedTask]:
        """Replace heavy payloads of one unit with zero-copy handles.

        Returns the unit unchanged when nothing crossed a threshold.
        With ``seed_kernel=True`` the sequence's kernel precomputes are
        shipped too (the caller decides when that pays — see
        :meth:`prepare_batch`).
        """
        params = dict(unit.params)
        changed = False
        seed: Optional[Tuple[ShmArray, ShmArray]] = None

        wl = params.get("workload")
        if type(wl) is ParallelWorkload and wl.total_requests >= DEFAULT_SPILL_ROWS:
            stored = self._spill(wl)
            if stored is not None:
                params["workload"] = stored
                changed = True

        seq = params.get("seq")
        if isinstance(seq, np.ndarray) and seq.ndim == 1 and len(seq) >= DEFAULT_SHM_ROWS:
            handle = self._share(seq)
            if handle is not None:
                params["seq"] = handle
                changed = True
                if seed_kernel:
                    seed = self._seed_for(seq)
        if not changed:
            return unit
        return PreparedTask(kind=unit.kind, params=params, label=unit.label, seed=seed)

    def _seed_for(self, seq: np.ndarray) -> Optional[Tuple[ShmArray, ShmArray]]:
        from ..paging.kernel import get_kernel, kernel_backend

        if kernel_backend() == "reference":
            return None
        kern = get_kernel(seq)
        prev = self._share(kern.prev_occ)
        reuse = self._share(kern.reuse_dist)
        if prev is None or reuse is None:
            return None
        obs_metrics.counter("exec.handoff.seeded").inc()
        return (prev, reuse)

    def prepare_batch(
        self, units: Sequence[WorkUnit], indices: Sequence[int]
    ) -> List[Union[WorkUnit, PreparedTask, None]]:
        """Prepare the pending units of a batch (aligned with ``units``).

        Kernel precomputes are shipped only when they are already paid
        for or clearly amortize: the parent holds a cached kernel for the
        sequence, or the same array object feeds at least two pending
        units (one parent-side sweep replaces N worker-side ones).
        """
        from ..paging.kernel import peek_kernel

        counts: Dict[int, int] = {}
        for i in indices:
            seq = units[i].params.get("seq")
            if isinstance(seq, np.ndarray):
                counts[id(seq)] = counts.get(id(seq), 0) + 1
        out: List[Union[WorkUnit, PreparedTask, None]] = [None] * len(units)
        for i in indices:
            seq = units[i].params.get("seq")
            seed = isinstance(seq, np.ndarray) and (
                counts.get(id(seq), 0) >= 2 or peek_kernel(seq) is not None
            )
            out[i] = self.prepare(units[i], seed_kernel=seed)
        return out

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release every owned segment and spill file (idempotent).

        Call only after the pool has drained: workers hold views into the
        segments while executing.
        """
        for shm in self._segments:
            try:
                shm.close()
            except (OSError, BufferError):
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass
        self._segments.clear()
        self._by_id.clear()
        self._spilled.clear()
        if self._own_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    def __enter__(self) -> "HandoffManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
#: name -> attached SharedMemory, kept for the worker's whole life: the
#: ndarray views handed to executors borrow the segment's buffer, and the
#: parent (not the worker) owns unlinking.
_ATTACHED: Dict[str, Any] = {}
#: name -> materialized ndarray, so repeated units over one sequence hand
#: executors the *same* array object (id-keyed kernel caching stays warm).
_ARRAYS: Dict[str, np.ndarray] = {}


def _attach(name: str):
    shm = _ATTACHED.get(name)
    if shm is None:
        from multiprocessing import resource_tracker, shared_memory

        # Suppress registration: the parent owns the segment.  Without
        # this, fork workers double-register and the resource tracker
        # logs spurious KeyErrors when parent and child both unlink.
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original  # type: ignore[assignment]
        # The ndarray views handed out below outlive any point where this
        # segment could safely close, and interpreter teardown would
        # otherwise spray BufferError from SharedMemory.__del__.  The
        # mapping dies with the process either way; the parent unlinks.
        shm.close = lambda: None  # type: ignore[method-assign]
        _ATTACHED[name] = shm
    return shm


def _materialize(handle: ShmArray) -> np.ndarray:
    arr = _ARRAYS.get(handle.name)
    if arr is None:
        shm = _attach(handle.name)
        arr = np.frombuffer(shm.buf, dtype=np.int64, count=handle.length)
        _ARRAYS[handle.name] = arr
    return arr


def execute_prepared(task: PreparedTask) -> CellOutcome:
    """Worker entry point for :class:`PreparedTask` (mirrors
    :func:`~repro.exec.units.execute_unit`)."""
    params = dict(task.params)
    for key, value in params.items():
        if isinstance(value, ShmArray):
            params[key] = _materialize(value)
    if task.seed is not None:
        from ..paging.kernel import kernel_backend, seed_kernel

        if kernel_backend() != "reference":
            seed_kernel(
                params["seq"],
                _materialize(task.seed[0]),
                _materialize(task.seed[1]),
            )
    return execute_unit(WorkUnit(kind=task.kind, params=params, label=task.label))
