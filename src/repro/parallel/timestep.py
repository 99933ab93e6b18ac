"""Time-stepped shared-cache simulator for non-box baselines.

GLOBAL-LRU — all processors share one LRU cache with no partitioning — is
what an unmanaged multicore actually does, and it cannot be expressed as a
box schedule (there is no per-processor allocation at all).  This module
simulates it directly: at each time step every processor is either serving
a hit (1 step), amid a miss (``s`` steps), or finished.  Evictions come
from the single shared LRU order, so one thrashing processor can evict
everyone else's working set — the interference the paper's box model is
designed to control.

Three loops, one per kernel tier (``$REPRO_KERNEL``), as for the box
kernels:

* compiled (the default, when the kernel tier resolves to native) —
  ``repro_lru_run`` in :mod:`repro.paging._native` advances over
  service-completion events on a heap of ``(time, processor)`` keys.
  Every processor has exactly one pending completion while active, so
  same-time completions are served in ascending processor order, and a
  processor that still holds the earliest completion keeps serving
  without touching the heap.  Columns go in whole, or one store chunk
  at a time for a :class:`~repro.parallel.streaming.StreamingWorkload`.
* python event (``REPRO_KERNEL=fast``, a host where the compiled
  library cannot be built, or keys too wide for int64) — the same loop
  over :class:`LRUCache`.
* reference (``REPRO_KERNEL=reference``) — the retained per-timestep
  full-rescan loop (O(p) per event instant), the historical oracle.  It
  serves same-time processors in ascending index too, so all three loops
  touch the shared LRU in the same order and every count — completions,
  hits, faults, evictions — is byte-identical.  The differential harness
  asserts exactly this.

Every loop consumes requests strictly in order, one chunk at a time
(the python loops through :func:`~repro.parallel.streaming.request_feed`),
so a streamed million-request, thousand-processor run never holds more
than one chunk per processor.
"""

from __future__ import annotations

from heapq import heappop, heapreplace
from itertools import chain
from typing import Iterator, List

import numpy as np

from ..obs import metrics as obs_metrics
from ..paging.kernel import _active_native
from ..paging.lru import LRUCache
from ..workloads.trace import ParallelWorkload
from .events import ParallelRunResult, sim_backend
from .streaming import StreamingWorkload, request_feed

__all__ = ["GlobalLRU"]


def _short_feed(proc: int) -> ValueError:
    return ValueError(f"processor {proc}'s requests end before its declared length")


class GlobalLRU:
    """Fully shared LRU cache baseline (no partitioning, no boxes).

    Parameters
    ----------
    cache_size:
        Shared cache capacity.
    miss_cost:
        Fault service time ``s > 1``.  A faulting processor occupies its
        channel for ``s`` steps; the faulted page is inserted (and becomes
        evictable) immediately at fault time, matching the model where the
        transfer reserves the frame up front.
    """

    name = "global-lru"

    def __init__(self, cache_size: int, miss_cost: int) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.cache_size = int(cache_size)
        self.miss_cost = int(miss_cost)

    def run(self, workload: ParallelWorkload) -> ParallelRunResult:
        """Simulate the shared LRU until every processor finishes."""
        p = workload.p
        n = [int(x) for x in workload.lengths]
        completion = np.zeros(p, dtype=np.int64)
        ops = _active_native()
        # the packed keys must fit the C loop's int64; python ints cannot overflow
        if ops is not None and (self.miss_cost * sum(n) + 1) << p.bit_length() < 1 << 63:
            hits, faults, evictions = self._run_native(ops, workload, n, completion)
        else:
            feeds = [request_feed(workload, i) for i in range(p)]
            done = [n[i] == 0 for i in range(p)]
            cache = LRUCache(self.cache_size)
            loop = self._run_reference if sim_backend() == "reference" else self._run_event
            loop(feeds, n, done, completion, cache)
            hits, faults, evictions = cache.hits, cache.faults, cache.evictions
        reg = obs_metrics.active()
        if reg.enabled:
            reg.counter("sim.timestep.hits").inc(hits)
            reg.counter("sim.timestep.faults").inc(faults)
            reg.counter("sim.timestep.evictions").inc(evictions)
            for i in range(p):
                reg.counter("sim.timestep.served", proc=i).inc(n[i])
            reg.gauge("sim.timestep.makespan").record_max(int(completion.max()) if p else 0)
        return ParallelRunResult(
            algorithm=self.name,
            completion_times=completion,
            trace=[],  # no box structure to record
            cache_size=self.cache_size,
            miss_cost=self.miss_cost,
            meta={"hits": hits, "faults": faults},
        )

    def _run_native(self, ops, workload, n: List[int], completion: np.ndarray):
        """Compiled backend: :meth:`_run_event`'s loop as ``repro_lru_run``
        (:mod:`repro.paging._native`), fed whole in-memory or memmap
        columns, or one store chunk at a time; returns (hits, faults,
        evictions)."""
        p = len(n)
        active = [i for i in range(p) if n[i]]
        if not active:
            return 0, 0, 0
        cap = min(self.cache_size, sum(n))
        bits = (2 * cap - 1).bit_length()  # a table of 2**bits >= 2 * cap slots
        st = np.array([active[0], len(active) - 1, 0, -1, -1, 0, 0, 0, cap, bits], dtype=np.int64)
        heap = np.zeros(p, dtype=np.int64)
        heap[: len(active) - 1] = active[1:]  # time 0, sorted: a heap
        proc = np.zeros((p, 4), dtype=np.int64)
        proc[:, 0] = n
        table = np.zeros(2 << bits, dtype=np.int64)
        node = np.zeros(3 * cap, dtype=np.int64)
        step = ops.lru_loop(p.bit_length(), self.miss_cost, st, heap, proc, table, node, completion)
        if isinstance(workload, StreamingWorkload):
            feeds = [workload.chunks(i) for i in range(p)]
        else:
            seqs = workload.sequences
            feeds = [iter((seqs[i],)) for i in range(p)]
        held = [None] * p  # each processor's chunk, alive until the loop moves past it
        while (i := step()) >= 0:
            chunk = next(feeds[i], None)
            if chunk is None:
                raise _short_feed(i)
            # the loop reads a 1-D, C-contiguous, native-endian int64 column; copied only if not one
            held[i] = chunk = np.ascontiguousarray(chunk, dtype=np.int64)
            if chunk.ndim != 1:
                raise ValueError(f"processor {i}'s requests are not a 1-D column")
            proc[i, 1:] = chunk.ctypes.data, len(chunk), 0
        return int(st[5]), int(st[6]), int(st[7])

    def _run_event(
        self,
        feeds: List[Iterator[List[int]]],
        n: List[int],
        done: List[bool],
        completion: np.ndarray,
        cache: LRUCache,
    ) -> None:
        """Python event loop (the no-compiler fallback of :meth:`_run_native`):
        a bare heap of ``(time, proc)`` completions.

        GLOBAL-LRU has one pending completion per active processor and
        never cancels one, so a heap of ``(time, proc)`` pairs pops
        exactly the :class:`~repro.parallel.events.EventScheduler` order
        with the processor as priority: same-time completions in
        ascending processor order — the order the reference rescan serves
        them, hence identical shared-LRU state.  Each pair is packed into
        one int, ``time << shift | proc``, so the heap compares ints, not
        tuples.  The popped processor keeps serving while its next
        completion is still the earliest pair, so those requests (every
        request once a single processor is left) never touch the heap.
        """
        shift = len(n).bit_length()
        hit, miss = 1 << shift, self.miss_cost << shift
        touch = cache.touch
        pages = [chain.from_iterable(feed) for feed in feeds]
        left = list(n)
        heap = [i for i in range(len(n)) if not done[i]]  # time 0, sorted: a heap
        if not heap:
            return
        key = heappop(heap)
        while True:
            i = key & (hit - 1)
            m = left[i]
            top = heap[0] if heap else key + miss * m + 1
            for page in pages[i]:
                key += hit if touch(page) else miss
                m -= 1
                if not m or key > top:
                    break
            else:
                raise _short_feed(i)
            if m:
                left[i] = m
                key = heapreplace(heap, key)
                continue
            completion[i] = key >> shift
            if not heap:
                return
            key = heappop(heap)

    def _run_reference(
        self,
        feeds: List[Iterator[List[int]]],
        n: List[int],
        done: List[bool],
        completion: np.ndarray,
        cache: LRUCache,
    ) -> None:
        """Reference backend: the historical O(p)-per-instant rescan loop,
        retained verbatim as the oracle for the event backend."""
        s = self.miss_cost
        p = len(n)
        pages = [chain.from_iterable(feed) for feed in feeds]
        pos = [0] * p
        busy_until = [0] * p
        remaining = sum(1 for d in done if not d)
        touch = cache.touch
        t = 0
        while remaining > 0:
            for i in range(p):
                if done[i] or busy_until[i] > t:
                    continue
                page = next(pages[i], None)
                if page is None:
                    raise _short_feed(i)
                cost = 1 if touch(page) else s
                busy_until[i] = t + cost
                pos[i] += 1
                if pos[i] >= n[i]:
                    done[i] = True
                    completion[i] = t + cost
                    remaining -= 1
            if remaining == 0:
                break
            t = min(busy_until[i] for i in range(p) if not done[i])
