"""Streaming execution: trace-store-fed parallel simulation in bounded memory.

This is the ROADMAP's million-request path.  A :class:`StreamingWorkload`
wraps a :class:`repro.traces.TraceStore` without materializing any request
column; each processor's requests reach the simulator chunk-by-chunk
through a :class:`BoxFeed`, which sweeps them into an incremental
:class:`repro.paging.kernel.StreamKernel` just ahead of the execution
position and compacts the served prefix behind it (amortized, so the
rebuild cost stays O(1) per request).  Resident state per processor is
therefore bounded by a small multiple of the largest single box budget
plus one store chunk — independent of trace length — while every box is
still evaluated at kernel speed.

The serving indirection is :func:`make_box_server`: every box algorithm
(RAND-PAR, DET-PAR, black-box packing) asks the server to run a box for a
processor and never touches sequences or kernels directly.  The server
picks the execution strategy from the workload form and the ``$REPRO_SIM``
backend (:func:`repro.parallel.events.sim_backend`):

=====================  ========================  ===========================
workload               ``REPRO_SIM=event``       ``REPRO_SIM=reference``
=====================  ========================  ===========================
in-memory / memmap     cached ``SequenceKernel``  per-request ``run_box``
:class:`Streaming...`  chunked ``StreamKernel``   per-request ``run_box``
                                                  over the memmap column
=====================  ========================  ===========================

All four cells produce bit-identical :class:`~repro.paging.engine.BoxRun`
values — the differential test harness holds the matrix together.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..paging.engine import BoxRun, run_box
from ..paging.kernel import StreamKernel, maybe_kernel, run_box_fast
from ..traces.store import TraceStore
from ..workloads.trace import ParallelWorkload
from .events import resolve_sim_backend

#: Rows per list :func:`request_feed` cuts from an in-memory column.
_FEED_ROWS = 4096

__all__ = [
    "BoxFeed",
    "StreamingWorkload",
    "open_streaming",
    "BoxServer",
    "make_box_server",
    "request_feed",
]


class StreamingWorkload:
    """A ``ParallelWorkload``-shaped view of a trace store that never
    materializes request columns up front.

    Exposes the same structural surface the simulators rely on (``p``,
    ``lengths``, ``name``, ``content_digest``, ``meta``) plus chunk
    iterators.  ``sequences`` falls back to zero-copy memory-mapped
    columns so non-streaming consumers (trace verification, partition
    baselines) keep working; the OS pages those in and out on demand.

    Pickles as its store path (like :class:`repro.traces.StoredWorkload`),
    so pool workers reopen the store instead of shipping the data.
    """

    allow_shared = True

    def __init__(self, store: TraceStore) -> None:
        self.store = store
        self.meta: Dict[str, object] = {"store_path": str(store.path), "streaming": True}

    def __reduce__(self):
        return (open_streaming, (str(self.store.path),))

    @property
    def p(self) -> int:
        return self.store.p

    @property
    def lengths(self) -> Tuple[int, ...]:
        return tuple(self.store.lengths)

    @property
    def name(self) -> str:
        return f"stream:{self.store.name}" if getattr(self.store, "name", None) else "stream"

    @property
    def content_digest(self) -> str:
        """Same framing as :func:`repro.exec.cache.workload_fingerprint`,
        so streamed, memmapped, and in-memory copies share cache keys."""
        return self.store.content_digest

    @property
    def total_requests(self) -> int:
        return int(sum(self.store.lengths))

    def chunks(self, proc: int) -> Iterator[np.ndarray]:
        """The processor's request column, one store chunk at a time,
        counted into the ``sim.traces.*`` stream-traffic counters."""
        reg = obs_metrics.active()
        if not reg.enabled:
            yield from self.store.iter_chunks(proc)
            return
        n_chunks = reg.counter("sim.traces.chunks", proc=proc)
        n_requests = reg.counter("sim.traces.requests_streamed", proc=proc)
        for chunk in self.store.iter_chunks(proc):
            n_chunks.inc()
            n_requests.inc(len(chunk))
            yield chunk

    def column(self, proc: int) -> np.ndarray:
        """Zero-copy memory-mapped column (the reference-mode fallback)."""
        return self.store.column(proc)

    @property
    def sequences(self) -> List[np.ndarray]:
        """Memmap fallback for consumers that need random access."""
        return [self.store.column(i) for i in range(self.p)]

    def materialize(self) -> ParallelWorkload:
        """A fully materialized (memmap-backed) :class:`ParallelWorkload`."""
        return self.store.workload(mode="mmap")


def open_streaming(store_or_path: Union[TraceStore, str, Path]) -> StreamingWorkload:
    """Open a trace store (or path to one) as a :class:`StreamingWorkload`."""
    store = store_or_path if isinstance(store_or_path, TraceStore) else TraceStore(store_or_path)
    return StreamingWorkload(store)


class BoxFeed:
    """One processor's chunk-fed incremental kernel window.

    ``serve`` appends just enough chunks to cover the box budget (a box
    with time budget ``d`` serves at most ``d`` requests, since a hit
    costs one step), evaluates the box on the :class:`StreamKernel` in
    global coordinates, then compacts the served prefix behind the
    execution position.  Compaction is amortized: the O(window) rebuild
    only runs once the served prefix outweighs the live tail, so each
    retained row pays O(1) compaction work overall.  Peak retained rows
    per feed are therefore bounded by twice ``max box budget + chunk
    rows``, independent of column length.
    """

    __slots__ = ("kernel", "length", "_chunks", "_exhausted", "_covered")

    def __init__(self, chunks: Iterator[np.ndarray], length: int) -> None:
        self.kernel = StreamKernel()
        self.length = int(length)
        self._chunks = chunks
        self._exhausted = False
        self._covered = 0  # kernel.end mirror: append-coverage fast path

    def ensure(self, upto: int) -> None:
        """Sweep chunks until the kernel covers global position ``upto``."""
        target = min(int(upto), self.length)
        while self.kernel.end < target and not self._exhausted:
            try:
                self.kernel.append(next(self._chunks))
            except StopIteration:
                self._exhausted = True
        if self.kernel.end < target:
            raise ValueError(
                f"stream ended at {self.kernel.end} before declared length {self.length}"
            )
        self._covered = self.kernel.end

    def serve(self, pos: int, height: int, budget: int, miss_cost: int) -> BoxRun:
        """Run one box at ``pos``; returns the bit-identical ``BoxRun``.

        Calls ``StreamKernel.box`` directly rather than through the
        ``run_box_fast`` facade: arguments arrive pre-validated from the
        box server, and the spare frame plus int coercions are measurable
        at one call per box.
        """
        upto = pos + budget
        if upto > self.length:
            upto = self.length  # a fully swept column never re-enters ensure
        if self._covered < upto:
            self.ensure(upto)
        kernel = self.kernel
        run = kernel.box(pos, height, budget, miss_cost)
        dead = run.end - kernel.base
        if dead > 0 and dead >= len(kernel) - dead:
            kernel.compact(run.end)
        return run

    @property
    def resident_rows(self) -> int:
        """Rows currently retained (observability for the memory bound)."""
        return len(self.kernel)


class BoxServer:
    """Uniform box-serving facade over every workload form and backend.

    Replaces the ``kern is not None ? run_box_fast : run_box`` idiom that
    was duplicated across RAND-PAR, DET-PAR, and the black-box packer.
    ``serve(proc, pos, height, budget)`` runs one box for one processor
    and returns the :class:`BoxRun`; the strategy (cached sequence
    kernel, chunked stream kernel, or the per-request reference walk) is
    chosen once at construction from the workload form and
    :func:`sim_backend`.
    """

    def __init__(self, workload, miss_cost: int) -> None:
        self.miss_cost = int(miss_cost)
        self.streaming = isinstance(workload, StreamingWorkload)
        self.p = int(workload.p)
        if self.streaming:
            lengths: Tuple[int, ...] = tuple(workload.lengths)
        else:
            lengths = tuple(len(sq) for sq in workload.sequences)
        self.backend = resolve_sim_backend(
            "box-server", streaming=self.streaming, p=self.p, lengths=lengths
        )
        if self.streaming:
            self.lengths = lengths
            self.digest: Optional[str] = workload.content_digest
            if self.backend == "event":
                self._feeds = [
                    BoxFeed(workload.chunks(i), self.lengths[i]) for i in range(self.p)
                ]
                self._seqs: Optional[List[np.ndarray]] = None
            else:
                # reference escape hatch: per-request walk over the
                # memory-mapped column (OS-paged, not chunk-bounded)
                self._feeds = None
                self._seqs = [workload.column(i) for i in range(self.p)]
        else:
            seqs = workload.sequences
            self.lengths = lengths
            self.digest = getattr(workload, "content_digest", None)
            self._seqs = seqs
            self._feeds = None
        if not self.streaming and self.backend == "event":
            self._kerns = [
                maybe_kernel(sq, key=(self.digest, i) if self.digest else None)
                for i, sq in enumerate(self._seqs)
            ]
        else:
            self._kerns = [None] * self.p

    def n(self, proc: int) -> int:
        """Total requests in ``proc``'s sequence (known from the header)."""
        return self.lengths[proc]

    def serve(self, proc: int, pos: int, height: int, budget: int) -> BoxRun:
        """Run one box for ``proc`` starting at request position ``pos``."""
        if self._feeds is not None:
            return self._feeds[proc].serve(pos, height, budget, self.miss_cost)
        kern = self._kerns[proc]
        if kern is not None:
            return run_box_fast(kern, pos, height, budget, self.miss_cost)
        return run_box(self._seqs[proc], pos, height, budget, self.miss_cost)

    def resident_rows(self) -> int:
        """Total rows retained across stream feeds (0 when not streaming)."""
        if self._feeds is None:
            return 0
        return sum(f.resident_rows for f in self._feeds)


def make_box_server(workload, miss_cost: int) -> BoxServer:
    """Build the :class:`BoxServer` for a workload (any supported form)."""
    return BoxServer(workload, miss_cost)


def request_feed(workload, proc: int) -> Iterator[List[int]]:
    """One processor's requests as plain-int lists, one per chunk
    (the feed of GLOBAL-LRU's python loops).

    For a :class:`StreamingWorkload` each list is one store chunk, so a
    single chunk per processor is resident; in-memory and memmap columns
    are cut into ``_FEED_ROWS``-row slices the same way.  Consumers walk
    each list with a plain ``for`` loop instead of stepping a generator
    per request.
    """
    if isinstance(workload, StreamingWorkload):
        return (chunk.tolist() for chunk in workload.chunks(proc))
    seq = workload.sequences[proc]
    return (seq[a : a + _FEED_ROWS].tolist() for a in range(0, len(seq), _FEED_ROWS))
