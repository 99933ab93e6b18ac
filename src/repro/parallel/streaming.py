"""Streaming execution: trace-store-fed parallel simulation in bounded memory.

This is the ROADMAP's million-request path.  A :class:`StreamingWorkload`
wraps a :class:`repro.traces.TraceStore` without materializing any request
column; a processor's requests reach the simulator chunk-by-chunk
through a :class:`BoxFeed`, which sweeps them into an incremental
:class:`repro.paging.kernel.StreamKernel` just ahead of the execution
position and compacts the served prefix behind it each time it appends.
Resident state per processor is therefore bounded by the largest single
box budget plus one store chunk — independent of trace length — while
every box is still evaluated at kernel speed.

On the native tier a column the store holds as a single chunk skips the
feed: a streamed :class:`BoxServer` sweeps all of them at construction
in one compiled call (``NativeOps.sweep_columns``), straight from the
store's memory map into one arena of their ``SequenceKernel`` rows.  The
memory bound per processor is unchanged, since a single-chunk column's
window held its whole column anyway.  The compiled DET-PAR and RAND-PAR
loops probe the arena and the feeds' windows in place
(:meth:`BoxServer.window_rows`) and return to python only when a box
runs past a multi-chunk column's window (:meth:`BoxServer.refill`,
which makes that column's feed at its first call and then calls
:meth:`BoxFeed.ensure`).

The serving indirection is :func:`make_box_server`: every box algorithm
(RAND-PAR, DET-PAR, black-box packing) asks the server to run a box for a
processor and never touches sequences or kernels directly.  A streamed
workload is served through the arena and the feeds (on the numpy tier,
one :class:`BoxFeed` per processor); every other column — in memory,
memory-mapped, or a streamed workload's memory-mapped column under
``REPRO_KERNEL=reference`` — through the box walk
:func:`repro.paging.kernel.box_walk` picks for the tier: the cached
``SequenceKernel``, or the per-request dict-LRU ``run_box``.

Every form produces bit-identical :class:`~repro.paging.engine.BoxRun`
values — the differential test harness holds them together.  The tier
is read once per server.  A ``StreamKernel`` runs the same box walk as a
``SequenceKernel`` and differs only in its window base, so it takes
global stream positions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..paging.engine import BoxRun
from ..paging._native import address
from ..paging.kernel import SequenceKernel, StreamKernel, _active_native, box_walk
from ..traces.store import TraceStore
from ..workloads.trace import ParallelWorkload
from .events import sim_backend

#: Rows per list :func:`request_feed` cuts from an in-memory column.
_FEED_ROWS = 4096

#: A box walk: ``walk(pos, height, budget, miss_cost) -> BoxRun``.
Walk = Callable[[int, int, int, int], BoxRun]

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

    def chunks(self, proc: int, skip: int = 0) -> Iterator[np.ndarray]:
        """The processor's column one store chunk at a time, from chunk ``skip`` on.

        Each chunk is counted into the ``sim.traces.*`` stream-traffic
        counters."""
        reg = obs_metrics.active()
        if not reg.enabled:
            yield from self.store.iter_chunks(proc, skip=skip)
            return
        n_chunks = reg.counter("sim.traces.chunks", proc=proc)
        n_requests = reg.counter("sim.traces.requests_streamed", proc=proc)
        for chunk in self.store.iter_chunks(proc, skip=skip):
            n_chunks.inc()
            n_requests.inc(len(chunk))
            yield chunk

    def first_chunks(self, procs: np.ndarray) -> np.ndarray:
        """The rows of each of ``procs``' first chunks, counted as streamed.

        For consumers that read first chunks straight from
        :meth:`TraceStore.payload` (0 rows for an empty column); each
        is counted into ``sim.traces.*`` as :meth:`chunks` counts it."""
        rows = self.store.first_rows[procs]
        reg = obs_metrics.active()
        if reg.enabled:
            for proc, n in zip(procs.tolist(), rows.tolist()):
                if n:
                    reg.counter("sim.traces.chunks", proc=proc).inc()
                    reg.counter("sim.traces.requests_streamed", proc=proc).inc(n)
        return rows

    @property
    def sequences(self) -> List[np.ndarray]:
        """Memmap fallback for consumers that need random access (trace
        verification, and the box walks under ``REPRO_KERNEL=reference``)."""
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
    costs one step), then evaluates the box on the :class:`StreamKernel`
    in global coordinates.  The compiled DET-PAR and RAND-PAR loops read
    the same window through :meth:`StreamKernel.window`, and call
    :meth:`ensure` when a box runs past it.

    ``position`` is the processor's execution position: no future box
    starts before it.  The feed compacts the window up to it whenever it
    appends a chunk, and only then: an append already costs O(window) on
    the numpy tier, and the compiled window compacts in O(1).  A box
    with budget ``d`` needs the window to reach ``d`` rows past the
    position, so peak retained rows per feed are bounded by ``max box
    budget + chunk rows``, independent of column length.
    """

    __slots__ = ("kernel", "length", "position", "_chunks", "_exhausted", "_covered")

    def __init__(self, chunks: Iterator[np.ndarray], length: int) -> None:
        self.kernel = StreamKernel()
        self.length = int(length)
        self.position = 0
        self._chunks = chunks
        self._exhausted = False
        self._covered = 0  # kernel.end mirror: append-coverage fast path

    def ensure(self, upto: int) -> None:
        """Sweep chunks until the kernel covers global position ``upto``."""
        target = min(int(upto), self.length)
        kernel = self.kernel
        while kernel.end < target and not self._exhausted:
            try:
                chunk = next(self._chunks)
            except StopIteration:
                self._exhausted = True
                break
            kernel.compact(self.position)
            kernel.append(chunk)
        if kernel.end < target:
            raise ValueError(
                f"stream ended at {kernel.end} before declared length {self.length}"
            )
        if kernel.end == self.length:
            kernel.seal()  # the column is swept: free what only appends use
        self._covered = kernel.end

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
            self.position = pos
            self.ensure(upto)
        return self.kernel.box(pos, height, budget, miss_cost)

    @property
    def resident_rows(self) -> int:
        """Rows currently retained (observability for the memory bound)."""
        return len(self.kernel)


class BoxServer:
    """Uniform box-serving facade over every workload form and tier.

    ``serve(proc, pos, height, budget)`` runs one box for one processor
    and returns the :class:`BoxRun`.  Any column that is not streamed,
    and a streamed one under ``REPRO_KERNEL=reference`` (its
    memory-mapped column, OS-paged rather than chunk-bounded), is served
    by the tier's box walk from :func:`~repro.paging.kernel.box_walk`.
    A streamed workload on the numpy tier is served by one chunk-fed
    :class:`BoxFeed` per processor.

    On the native tier, a streamed workload's columns that the store
    holds as one chunk are swept at construction, in one compiled call
    (``NativeOps.sweep_columns``) straight from the store's memory map
    into one arena of their ``SequenceKernel`` rows; a column of two or
    more chunks gets its :class:`BoxFeed` when a box first reaches it.
    Per processor this holds what the feeds held: a single-chunk
    column's window was its whole column from its first box on.  The
    arena counts each of its columns into ``sim.traces.*`` as one
    streamed chunk when it reads it.  The compiled DET-PAR and RAND-PAR
    loops probe every column in place (:meth:`window_rows`), and hand
    back only for the multi-chunk ones (:meth:`refill`).
    """

    def __init__(self, workload, miss_cost: int) -> None:
        self.miss_cost = int(miss_cost)
        self.streaming = isinstance(workload, StreamingWorkload)
        self.p = int(workload.p)
        self.backend = sim_backend()
        self.digest: Optional[str] = getattr(workload, "content_digest", None)
        self._feeds: Optional[List[Optional[BoxFeed]]] = None
        self._win: Optional[np.ndarray] = None
        self._prev = self._reuse = np.empty(0, dtype=np.int64)  # the arena
        if self.streaming and self.backend == "event":
            self.lengths: Tuple[int, ...] = tuple(workload.lengths)
            self._workload = workload
            ops = _active_native()
            if ops is None:
                self._feeds = [BoxFeed(workload.chunks(i), n) for i, n in enumerate(self.lengths)]
                self._walks: List[Optional[Walk]] = [feed.serve for feed in self._feeds]
            else:
                self._feeds = [None] * self.p
                self._walks = [None] * self.p
                self._sweep_single_chunk_columns(ops, workload)
            return
        seqs = workload.sequences
        self.lengths = tuple(len(sq) for sq in seqs)
        self._walks = [
            box_walk(sq, key=(self.digest, i) if self.digest else None) for i, sq in enumerate(seqs)
        ]

    def _sweep_single_chunk_columns(self, ops, workload: "StreamingWorkload") -> None:
        """Sweep every single-chunk column into the arena and write its
        window row; the other rows stay empty until :meth:`refill`."""
        store = workload.store
        single = np.flatnonzero(store.first_rows == store.rows)
        rows = workload.first_chunks(single)
        self._prev, self._reuse = ops.sweep_columns(store.payload(), store.starts[single], rows)
        at = np.cumsum(rows) - rows
        self._at = np.full(self.p, -1, dtype=np.int64)  # each column's first arena row
        self._at[single] = at
        self._win = np.zeros((self.p, 4), dtype=np.int64)
        self._win[single] = np.column_stack(
            (address(self._prev) + 8 * at, address(self._reuse) + 8 * at, np.zeros_like(at), rows)
        )

    def _walk(self, proc: int) -> Walk:
        """The native streamed tier's walk over ``proc``'s column, made
        when a python box loop first reaches it: its arena rows as a
        ``SequenceKernel``, or its :class:`BoxFeed`."""
        at = int(self._at[proc])
        if at < 0:
            walk: Walk = self._feed(proc).serve
        else:
            rows = slice(at, at + self.lengths[proc])
            column = self._workload.store.column(proc)
            walk = SequenceKernel.from_precomputed(column, self._prev[rows], self._reuse[rows])
        self._walks[proc] = walk
        return walk

    def _feed(self, proc: int) -> BoxFeed:
        feed = self._feeds[proc]
        if feed is None:
            feed = self._feeds[proc] = BoxFeed(self._workload.chunks(proc), self.lengths[proc])
        return feed

    def n(self, proc: int) -> int:
        """Total requests in ``proc``'s sequence (known from the header)."""
        return self.lengths[proc]

    def serve(self, proc: int, pos: int, height: int, budget: int) -> BoxRun:
        """Run one box for ``proc`` starting at request position ``pos``."""
        walk = self._walks[proc]
        if walk is None:
            walk = self._walk(proc)
        return walk(pos, height, budget, self.miss_cost)

    def window_rows(self) -> np.ndarray:
        """The compiled box loops' window rows, one ``(prev address, reuse
        address, origin, stop)`` row per processor (the layout on
        ``repro_detpar_run`` and ``repro_randpar_run``).

        Native tier only, where every walk is a ``SequenceKernel`` and
        every streamed column is in the arena or waits for its feed (an
        empty row).  The rows stay valid while this server lives, except
        a multi-chunk column's after its feed appends; :meth:`refill`
        rewrites that row.
        """
        if self._win is not None:
            return self._win.copy()
        return np.array([k.window() for k in self._walks], dtype=np.int64).reshape(self.p, 4)

    def refill(self, win: np.ndarray, proc: int, pos: int, upto: int) -> None:
        """Hand-back of a compiled box loop: ``proc``'s window ends before
        row ``upto``, and its next box starts at ``pos``.  Its feed pulls
        chunks until it covers ``upto`` (raising, like :meth:`serve`, when
        the stream ends first), and ``win``'s row is rewritten."""
        feed = self._feed(proc)
        feed.position = pos
        feed.ensure(upto)
        win[proc] = feed.kernel.window()

    def resident_rows(self) -> int:
        """Rows retained in the arena and the stream feeds (0 when not streaming)."""
        if self._feeds is None:
            return 0
        return len(self._prev) + sum(f.resident_rows for f in self._feeds if f is not None)


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
