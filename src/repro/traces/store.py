"""Binary columnar trace store: chunked int64 columns, mmap-backed reads.

The on-disk layout of a ``.trc`` store is::

    offset 0   magic  b"REPROTRC"
    offset 8   uint64 little-endian header length in bytes
    offset 16  UTF-8 JSON header
    ...        zero padding to a 64-byte boundary
    data       per-processor int64 (little-endian) columns, back to back

The JSON header records the schema version, per-column row counts and
byte offsets, a per-chunk digest table (default sha256; xxhash's xxh3 is
used opportunistically when the optional module is installed), free-form
metadata, and a whole-trace **content digest** computed with exactly the
same framing as :func:`repro.exec.cache.workload_fingerprint` — so a
store-backed workload and its in-memory twin produce *identical*
content-addressed result-cache keys.

Writes are atomic (temp file + ``os.replace``) and streaming: a
:class:`StoreWriter` spools appends per processor to disk, so traces far
larger than RAM import with bounded memory, while :func:`write_store`
hands it in-memory columns whole, with no spool file at all.  Reads are
zero-copy: columns come back as read-only views of one memory map, and
:meth:`TraceStore.iter_chunks` feeds the streaming simulators and
statistics chunk by chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..workloads.trace import ParallelWorkload, distinct_sorted, first_shared_page
from .errors import TraceCorruptError, TraceFormatError, TraceVersionError

__all__ = [
    "MAGIC",
    "STORE_VERSION",
    "DEFAULT_CHUNK_ROWS",
    "StoredWorkload",
    "StoreWriter",
    "TraceStore",
    "write_store",
    "spill_workload",
    "open_workload",
    "content_digest_of",
]

MAGIC = b"REPROTRC"
STORE_VERSION = 1
#: Rows per digest chunk (and per streaming-read unit): 64 Ki rows = 512 KiB.
DEFAULT_CHUNK_ROWS = 1 << 16
_ALIGN = 64
_DTYPE = "<i8"
_ROW_BYTES = 8

try:  # optional accelerator for chunk checksums; sha256 is always available
    import xxhash  # type: ignore

    _FAST_CHUNK_ALGO: Optional[str] = "xxh3_128"
except ImportError:  # pragma: no cover - depends on environment
    xxhash = None  # type: ignore
    _FAST_CHUNK_ALGO = None


def _chunk_hasher(algo: str):
    """Hasher factory for the per-chunk integrity digests."""
    if algo == "sha256":
        return hashlib.sha256()
    if algo == "xxh3_128":
        if xxhash is None:
            raise TraceFormatError(
                "store uses xxh3_128 chunk digests but the xxhash module is "
                "not installed; re-export the trace with sha256 digests"
            )
        return xxhash.xxh3_128()
    raise TraceFormatError(f"unknown chunk digest algorithm {algo!r}")


def content_digest_of(sequences: Sequence[np.ndarray]) -> str:
    """Whole-trace content digest over in-memory sequences.

    Byte-for-byte the same value :func:`repro.exec.cache.workload_fingerprint`
    computes for a :class:`ParallelWorkload` holding these sequences — the
    invariant that makes store-backed and in-memory runs share cache keys.
    """
    h = hashlib.sha256(b"repro-workload-v1")
    h.update(str(len(sequences)).encode())
    for seq in sequences:
        arr = np.ascontiguousarray(seq, dtype=np.int64)
        h.update(str(len(arr)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _reopen_stored_workload(path: str) -> "StoredWorkload":
    """Pickle helper: re-open a store-backed workload by path (zero-copy)."""
    return TraceStore(path).workload()


@dataclass
class StoredWorkload(ParallelWorkload):
    """A :class:`ParallelWorkload` whose sequences live in a trace store.

    Sequences are read-only ``np.memmap`` views — the OS pages them in and
    out on demand, so simulating a store-backed workload never materializes
    the full trace in RAM.  ``content_digest`` short-circuits result-cache
    fingerprinting (no re-hash of gigabytes), and pickling ships only the
    store *path*: a worker process re-opens the mmap instead of receiving
    the whole trace over the pipe.
    """

    content_digest: str = ""
    store_path: Optional[str] = None

    def __post_init__(self) -> None:
        # Store columns are already contiguous int64 and were disjointness-
        # checked when the store was written; re-running the base class's
        # per-page scan here would defeat zero-copy loading.
        pass

    def __reduce__(self):
        if self.store_path and Path(self.store_path).exists():
            return (_reopen_stored_workload, (str(self.store_path),))
        return super().__reduce__()


class StoreWriter:
    """Streaming trace-store writer with bounded memory.

    Append int64 page-id blocks per processor in any interleaving; blocks
    spool to per-processor temp files, so nothing is held in RAM.  A
    column that is already in memory is handed over whole instead
    (:func:`write_store` does), which needs no spool file.  ``close``
    assembles the final store atomically (digest pass, header, data copy,
    ``os.replace``) and returns the opened :class:`TraceStore`.  Use as a
    context manager to guarantee spool cleanup on error.
    """

    def __init__(
        self,
        dest: str | Path,
        name: str = "imported",
        meta: Optional[Mapping[str, Any]] = None,
        allow_shared: bool = False,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        p: Optional[int] = None,
        chunk_algo: Optional[str] = None,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.dest = Path(dest)
        self.name = name
        self.meta = dict(meta or {})
        self.allow_shared = bool(allow_shared)
        self.chunk_rows = int(chunk_rows)
        self.chunk_algo = chunk_algo or _FAST_CHUNK_ALGO or "sha256"
        self.dest.parent.mkdir(parents=True, exist_ok=True)
        self._spool_dir: Optional[Path] = None  # made by the first append
        self._spools: Dict[int, Any] = {}
        self._held: Dict[int, np.ndarray] = {}  # whole in-memory columns
        self._rows: Dict[int, int] = {}
        self._min_p = int(p) if p is not None else 0
        self._closed = False

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closed:
            self.close()
        else:
            self.abort()

    def _spool(self, proc: int):
        fh = self._spools.get(proc)
        if fh is None:
            if proc in self._held:
                raise ValueError(f"processor {proc}'s column was already written whole")
            if self._spool_dir is None:
                self._spool_dir = Path(tempfile.mkdtemp(dir=self.dest.parent, prefix=".trc-spool-"))
            fh = (self._spool_dir / f"col-{proc}.raw").open("wb")
            self._spools[proc] = fh
            self._rows[proc] = 0
        return fh

    def _hold(self, proc: int, column: np.ndarray) -> None:
        """Take processor ``proc``'s whole column from memory, by reference."""
        if self._closed:
            raise RuntimeError("writer is closed")
        if proc in self._rows:
            raise ValueError(f"processor {proc}'s column was already started")
        arr = np.ascontiguousarray(column, dtype=_DTYPE)
        if arr.ndim != 1:
            raise ValueError("page blocks must be 1-D")
        self._held[proc] = arr
        self._rows[proc] = len(arr)

    def append(self, proc: int, pages: np.ndarray) -> None:
        """Append a block of page ids to processor ``proc``'s column."""
        if self._closed:
            raise RuntimeError("writer is closed")
        proc = int(proc)
        if proc < 0:
            raise ValueError(f"processor id must be >= 0, got {proc}")
        arr = np.ascontiguousarray(pages, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("page blocks must be 1-D")
        fh = self._spool(proc)
        if len(arr):
            fh.write(arr.astype(_DTYPE, copy=False).tobytes())
            self._rows[proc] += len(arr)

    def abort(self) -> None:
        """Discard all spooled data (best-effort cleanup)."""
        self._closed = True
        self._held.clear()
        for fh in self._spools.values():
            try:
                fh.close()
            except OSError:
                pass
        if self._spool_dir is None:
            return
        try:
            for f in self._spool_dir.glob("*"):
                try:
                    f.unlink()
                except OSError:
                    pass
            self._spool_dir.rmdir()
        except OSError:
            pass

    def _iter_chunks(self, proc: int) -> Iterator[np.ndarray]:
        """Processor ``proc``'s column in ``chunk_rows`` pieces."""
        held = self._held.get(proc)
        if held is not None:
            for start in range(0, len(held), self.chunk_rows):
                yield held[start : start + self.chunk_rows]
            return
        if proc not in self._spools:
            return
        with (self._spool_dir / f"col-{proc}.raw").open("rb") as fh:
            while True:
                buf = fh.read(self.chunk_rows * _ROW_BYTES)
                if not buf:
                    break
                yield np.frombuffer(buf, dtype=_DTYPE)

    def _first_conflict(self, proc: int, distinct: List[np.ndarray]) -> Tuple[int, int, int]:
        """``(page, owner, proc)`` of the first chunk of column ``proc``
        holding a page an earlier column holds: its least such page, and
        the first column holding it.  ``proc`` is the first column that
        shares a page (:func:`first_shared_page` over ``distinct``)."""
        earlier = np.concatenate(distinct[:proc])
        for chunk in self._iter_chunks(proc):
            pages = distinct_sorted(chunk)
            pages = pages[np.isin(pages, earlier)]
            if len(pages):
                page = int(pages[0])
                owner = next(i for i in range(proc) if np.isin(page, distinct[i]))
                return page, owner, proc
        raise AssertionError(f"column {proc} shares no page")  # pragma: no cover

    def close(self) -> "TraceStore":
        """Assemble and atomically publish the store; returns it opened."""
        if self._closed:
            raise RuntimeError("writer is closed")
        for fh in self._spools.values():
            fh.close()
        p = max(max(self._rows) + 1 if self._rows else 0, self._min_p)
        # pass 1: digests + distinct pages (memory past held columns: O(distinct pages))
        content = hashlib.sha256(b"repro-workload-v1")
        content.update(str(p).encode())
        columns: List[Dict[str, Any]] = []
        distinct: List[np.ndarray] = []
        offset = 0
        for proc in range(p):
            rows = self._rows.get(proc, 0)
            content.update(str(rows).encode())
            chunks: List[Dict[str, Any]] = []
            pages = [np.empty(0, dtype=np.int64)]
            held = self._held.get(proc)
            for chunk in self._iter_chunks(proc):
                raw = chunk.tobytes()
                content.update(raw)
                hasher = _chunk_hasher(self.chunk_algo)
                hasher.update(raw)
                chunks.append({"rows": len(chunk), "digest": hasher.hexdigest()})
                if not self.allow_shared and held is None:
                    pages = _add_distinct(pages, chunk)
            if not self.allow_shared:  # a column held in memory is checked whole
                distinct.append(np.concatenate(pages) if held is None else held)
            columns.append({"rows": rows, "offset": offset, "chunks": chunks})
            offset += rows * _ROW_BYTES
        shared = first_shared_page(distinct) if not self.allow_shared else None
        if shared is not None:
            page, owner, proc = self._first_conflict(shared[2], distinct)
            self.abort()
            raise ValueError(
                f"trace {self.name!r}: page {page} appears in "
                f"sequences {owner} and {proc} (pass allow_shared=True "
                "for the shared-pages model)"
            )
        header = {
            "format": "repro-trace-store",
            "version": STORE_VERSION,
            "dtype": _DTYPE,
            "p": p,
            "name": self.name,
            "meta": self.meta,
            "allow_shared": self.allow_shared,
            "chunk_rows": self.chunk_rows,
            "chunk_algo": self.chunk_algo,
            "content_digest": content.hexdigest(),
            "data_bytes": offset,
            "columns": columns,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode()
        prefix_len = len(MAGIC) + 8 + len(header_bytes)
        pad = (-prefix_len) % _ALIGN
        # pass 2: stream everything into a temp file, then publish atomically
        fd, tmp = tempfile.mkstemp(dir=self.dest.parent, suffix=".trc.tmp")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(MAGIC)
                out.write(struct.pack("<Q", len(header_bytes)))
                out.write(header_bytes)
                out.write(b"\x00" * pad)
                for proc in range(p):
                    if proc in self._held:
                        out.write(self._held[proc].data)
                    elif proc in self._spools:
                        with (self._spool_dir / f"col-{proc}.raw").open("rb") as src:
                            while True:
                                buf = src.read(1 << 20)
                                if not buf:
                                    break
                                out.write(buf)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.dest)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        finally:
            self.abort()
        return TraceStore(self.dest)


def _add_distinct(parts: List[np.ndarray], chunk: np.ndarray) -> List[np.ndarray]:
    """Fold one chunk's distinct pages into ``parts``, a spooled column's
    pages so far: its distinct pages, then each chunk's since.  Once
    those outgrow the first part, all merge into one, so a column holds
    at most about twice its distinct pages plus one chunk's."""
    parts.append(distinct_sorted(chunk))
    if sum(len(x) for x in parts[1:]) > len(parts[0]):
        parts = [distinct_sorted(np.concatenate(parts))]
    return parts


def write_store(
    path: str | Path,
    workload: ParallelWorkload,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    meta: Optional[Mapping[str, Any]] = None,
    chunk_algo: Optional[str] = None,
) -> "TraceStore":
    """Persist an in-memory workload as a trace store (atomic write).

    Workload ``meta`` merges under any explicit ``meta`` argument; the
    returned store's ``content_digest`` equals
    ``workload_fingerprint(workload)``, so results cached against either
    representation are interchangeable.
    """
    merged = dict(workload.meta)
    merged.update(meta or {})
    merged = _json_safe_meta(merged)
    with StoreWriter(
        path,
        name=workload.name,
        meta=merged,
        allow_shared=workload.allow_shared,
        chunk_rows=chunk_rows,
        p=workload.p,
        chunk_algo=chunk_algo,
    ) as writer:
        for proc, seq in enumerate(workload.sequences):
            writer._hold(proc, seq)
        return writer.close()


def spill_workload(
    workload: ParallelWorkload,
    directory: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> StoredWorkload:
    """Spill an in-memory workload to a digest-named store in ``directory``.

    The file is named by the workload's content digest, so spilling the
    same trace twice (across units, batches, or processes sharing the
    directory) reuses one ``.trc`` — and the returned
    :class:`StoredWorkload` pickles as that *path*, which is what makes
    pool handoff zero-copy: workers re-open the memmap instead of
    receiving the request arrays over the pipe.

    Raises :class:`ValueError` when the workload's ``meta`` does not
    survive the store's JSON projection — such a workload must travel by
    pickle so no information is silently dropped.
    """
    meta = dict(workload.meta)
    if _json_safe_meta(meta) != meta:
        raise ValueError(
            f"workload {workload.name!r} has non-JSON metadata; it cannot be "
            "spilled to a trace store without altering it"
        )
    digest = content_digest_of(workload.sequences)
    path = Path(directory) / f"{digest}.trc"
    if not path.exists():
        write_store(path, workload, chunk_rows=chunk_rows)
    return TraceStore(path).workload()


def _json_safe_meta(meta: Mapping[str, Any]) -> Dict[str, Any]:
    """Project metadata to JSON-encodable values (repr fallback)."""
    out: Dict[str, Any] = {}
    for key, value in meta.items():
        if isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        try:
            json.dumps(value)
        except TypeError:
            value = repr(value)
        out[str(key)] = value
    return out


class TraceStore:
    """Read side of a ``.trc`` trace store (header-validated, mmap-backed).

    Opening parses and validates the header and checks the payload size;
    per-chunk digests are verified on demand (:meth:`verify`, or
    ``iter_chunks(verify=True)``) so opening a terabyte store stays O(1).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            with self.path.open("rb") as fh:
                magic = fh.read(len(MAGIC))
                if magic != MAGIC:
                    raise TraceFormatError(
                        f"{self.path}: not a repro trace store (bad magic {magic!r})"
                    )
                raw_len = fh.read(8)
                if len(raw_len) != 8:
                    raise TraceCorruptError(f"{self.path}: truncated store header")
                (header_len,) = struct.unpack("<Q", raw_len)
                if header_len > (1 << 30):
                    raise TraceFormatError(f"{self.path}: implausible header length {header_len}")
                header_bytes = fh.read(header_len)
        except OSError as exc:
            raise TraceFormatError(f"{self.path}: cannot read store: {exc}") from exc
        if len(header_bytes) != header_len:
            raise TraceCorruptError(f"{self.path}: truncated store header")
        try:
            header = json.loads(header_bytes.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceCorruptError(f"{self.path}: corrupt store header: {exc}") from exc
        if header.get("format") != "repro-trace-store":
            raise TraceFormatError(f"{self.path}: unrecognized store format field")
        version = int(header.get("version", -1))
        if version > STORE_VERSION or version < 1:
            raise TraceVersionError(
                f"{self.path}: store version {version} not supported "
                f"(this build reads <= {STORE_VERSION})"
            )
        for key in ("p", "name", "chunk_rows", "content_digest", "data_bytes", "columns"):
            if key not in header:
                raise TraceFormatError(f"{self.path}: store header is missing {key!r}")
        self.header = header
        prefix_len = len(MAGIC) + 8 + header_len
        self._data_start = prefix_len + ((-prefix_len) % _ALIGN)
        expected = self._data_start + int(header["data_bytes"])
        actual = self.path.stat().st_size
        if actual != expected:
            raise TraceCorruptError(
                f"{self.path}: store is {actual} bytes but header expects {expected} "
                "(truncated or partially written)"
            )
        total = 0
        for proc, col in enumerate(self.columns):
            chunk_total = sum(int(c["rows"]) for c in col["chunks"])
            if chunk_total != int(col["rows"]):
                raise TraceCorruptError(
                    f"{self.path}: column {proc} chunk rows sum to {chunk_total}, "
                    f"header says {col['rows']}"
                )
            total += int(col["rows"])
        self._total_rows = total
        self._mm: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # header accessors
    # ------------------------------------------------------------------ #
    @property
    def p(self) -> int:
        return int(self.header["p"])

    @property
    def name(self) -> str:
        return str(self.header["name"])

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self.header.get("meta", {}))

    @property
    def allow_shared(self) -> bool:
        return bool(self.header.get("allow_shared", False))

    @property
    def chunk_rows(self) -> int:
        return int(self.header["chunk_rows"])

    @property
    def content_digest(self) -> str:
        return str(self.header["content_digest"])

    @property
    def columns(self) -> List[Dict[str, Any]]:
        return self.header["columns"]

    @property
    def lengths(self) -> tuple:
        return tuple(int(c["rows"]) for c in self.columns)

    @property
    def total_requests(self) -> int:
        return self._total_rows

    @property
    def nbytes(self) -> int:
        return int(self.header["data_bytes"])

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #
    def _mmap(self) -> np.ndarray:
        if self._mm is None:
            if self.nbytes == 0:
                self._mm = np.asarray([], dtype=np.int64)
            else:
                # a plain ndarray over the map (which its base keeps open):
                # slicing a memmap subclass runs python hooks per chunk
                self._mm = np.memmap(
                    self.path,
                    dtype=_DTYPE,
                    mode="r",
                    offset=self._data_start,
                    shape=(self.nbytes // _ROW_BYTES,),
                ).view(np.ndarray)
        return self._mm

    def column(self, proc: int) -> np.ndarray:
        """Zero-copy read-only view of processor ``proc``'s full column."""
        col = self.columns[proc]
        start = int(col["offset"]) // _ROW_BYTES
        return self._mmap()[start : start + int(col["rows"])]

    def iter_chunks(self, proc: int, verify: bool = False) -> Iterator[np.ndarray]:
        """Stream processor ``proc``'s column chunk by chunk (zero-copy views).

        With ``verify=True`` every chunk is checked against its recorded
        digest and a mismatch raises :class:`TraceCorruptError` *before*
        the bad data is yielded.
        """
        col = self.columns[proc]
        algo = str(self.header.get("chunk_algo", "sha256"))
        view = self.column(proc)
        row = 0
        for i, chunk_info in enumerate(col["chunks"]):
            rows = int(chunk_info["rows"])
            chunk = view[row : row + rows]
            if verify:
                hasher = _chunk_hasher(algo)
                hasher.update(np.ascontiguousarray(chunk).tobytes())
                if hasher.hexdigest() != chunk_info["digest"]:
                    raise TraceCorruptError(
                        f"{self.path}: column {proc} chunk {i} fails its {algo} "
                        "digest (store is corrupt)"
                    )
            yield chunk
            row += rows

    def verify(self) -> bool:
        """Check every chunk digest and the whole-trace content digest.

        Returns ``True`` on success; raises :class:`TraceCorruptError` on
        the first mismatch.  Streams — O(chunk) memory.
        """
        content = hashlib.sha256(b"repro-workload-v1")
        content.update(str(self.p).encode())
        for proc in range(self.p):
            content.update(str(int(self.columns[proc]["rows"])).encode())
            for chunk in self.iter_chunks(proc, verify=True):
                content.update(np.ascontiguousarray(chunk).tobytes())
        if content.hexdigest() != self.content_digest:
            raise TraceCorruptError(
                f"{self.path}: content digest mismatch (chunks verify individually; "
                "header digest is inconsistent)"
            )
        return True

    def sample(self, proc: int, rows: int = 10) -> np.ndarray:
        """First ``rows`` requests of a column (for CLI previews)."""
        return np.asarray(self.column(proc)[: max(0, int(rows))])

    def workload(self, mode: str = "mmap") -> ParallelWorkload:
        """Materialize the store as a workload.

        ``mode="mmap"`` (default) returns a :class:`StoredWorkload` whose
        sequences are zero-copy memmap views with the content digest
        attached; ``mode="ram"`` copies into ordinary ndarrays (and
        re-runs the standard disjointness check) for callers that want a
        plain :class:`ParallelWorkload`.
        """
        if mode == "ram":
            return ParallelWorkload(
                sequences=[np.array(self.column(i)) for i in range(self.p)],
                name=self.name,
                meta=self.meta,
                allow_shared=self.allow_shared,
            )
        if mode != "mmap":
            raise ValueError(f"mode must be 'mmap' or 'ram', got {mode!r}")
        wl = StoredWorkload(
            sequences=[self.column(i) for i in range(self.p)],
            name=self.name,
            meta=self.meta,
            allow_shared=self.allow_shared,
            content_digest=self.content_digest,
            store_path=str(self.path),
        )
        return wl

    def describe(self) -> str:
        """One-line summary for CLI listings."""
        mib = (self._data_start + self.nbytes) / (1 << 20)
        return (
            f"{self.name}: p={self.p}, requests={self.total_requests}, "
            f"{mib:.2f} MiB, digest={self.content_digest[:12]}"
        )


def open_workload(path: str | Path, mode: str = "mmap") -> ParallelWorkload:
    """Open a trace store and return its workload in one call."""
    return TraceStore(path).workload(mode=mode)
