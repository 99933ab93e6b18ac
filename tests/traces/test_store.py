"""Binary trace store: round-trips, digests, mmap, corruption, atomicity."""

from __future__ import annotations

import json
import os
import pickle
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exec import workload_fingerprint
from repro.traces import (
    MAGIC,
    StoredWorkload,
    StoreWriter,
    TraceCorruptError,
    TraceFormatError,
    TraceStore,
    TraceVersionError,
    content_digest_of,
    open_workload,
    write_store,
)
from repro.workloads import ParallelWorkload

RNG = np.random.default_rng(7)


def workload(p=3, n=2000, name="store-test"):
    seqs = [RNG.integers(0, 60, size=n) + 1000 * i for i in range(p)]
    return ParallelWorkload(sequences=seqs, name=name, meta={"kind": "synthetic"})


def rewrite_header(path, edit, replace=False):
    """A copy of the store at ``path`` whose JSON header ``edit`` changed
    in place (or, with ``replace``, that holds what ``edit`` returns
    instead); the payload bytes stay as they are."""
    full = path.read_bytes()
    (header_len,) = struct.unpack("<Q", full[8:16])
    header = json.loads(full[16 : 16 + header_len])
    edited = edit(header)
    if replace:
        header = edited
    hb = json.dumps(header, sort_keys=True).encode()
    new = MAGIC + struct.pack("<Q", len(hb)) + hb
    new += b"\x00" * ((-len(new)) % 64)
    old_start = (16 + header_len) + ((-(16 + header_len)) % 64)
    dest = path.with_name(f"edited-{path.name}")
    dest.write_bytes(new + full[old_start:])
    return dest


class TestRoundTrip:
    def test_columns_survive_byte_exact(self, tmp_path):
        wl = workload()
        store = write_store(tmp_path / "a.trc", wl, chunk_rows=333)
        assert store.p == wl.p
        assert store.lengths == tuple(len(s) for s in wl.sequences)
        for i, seq in enumerate(wl.sequences):
            assert np.array_equal(store.column(i), seq)

    def test_chunks_concatenate_to_column(self, tmp_path):
        wl = workload()
        store = write_store(tmp_path / "a.trc", wl, chunk_rows=171)
        for i, seq in enumerate(wl.sequences):
            chunks = list(store.iter_chunks(i, verify=True))
            assert all(len(c) <= 171 for c in chunks)
            assert np.array_equal(np.concatenate(chunks), seq)

    def test_header_metadata_survives(self, tmp_path):
        wl = workload(name="named")
        store = write_store(tmp_path / "a.trc", wl, meta={"extra": 5})
        assert store.name == "named"
        assert store.meta["kind"] == "synthetic"
        assert store.meta["extra"] == 5
        assert store.allow_shared is False

    def test_empty_workload(self, tmp_path):
        wl = ParallelWorkload(sequences=[], name="empty")
        store = write_store(tmp_path / "e.trc", wl)
        assert store.p == 0
        assert store.total_requests == 0
        assert store.verify()
        assert store.content_digest == workload_fingerprint(wl)

    def test_column_layout_arrays(self, tmp_path):
        wl = ParallelWorkload(
            sequences=[np.arange(5), np.asarray([], dtype=np.int64), np.arange(12) + 100], name="layout"
        )
        store = write_store(tmp_path / "l.trc", wl, chunk_rows=5)
        assert store.starts.tolist() == [0, 5, 5]
        assert store.rows.tolist() == [5, 0, 12]
        assert store.first_rows.tolist() == [5, 0, 5]
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in (store.starts, store.rows, store.first_rows))
        for i, seq in enumerate(wl.sequences):
            column = store.payload()[store.starts[i] : store.starts[i] + store.rows[i]]
            assert np.array_equal(column, seq)
        assert [c.tolist() for c in store.iter_chunks(2, skip=1)] == [list(range(105, 110)), [110, 111]]
        assert list(store.iter_chunks(0, skip=1)) == []

    def test_empty_sequence_among_nonempty(self, tmp_path):
        wl = ParallelWorkload(
            sequences=[np.asarray([], dtype=np.int64), np.asarray([5, 6, 7])], name="mixed"
        )
        store = write_store(tmp_path / "m.trc", wl)
        assert store.lengths == (0, 3)
        assert list(store.iter_chunks(0)) == []
        assert np.array_equal(store.column(1), [5, 6, 7])
        assert store.verify()

    def test_allow_shared_round_trips(self, tmp_path):
        wl = ParallelWorkload(
            sequences=[np.asarray([1, 2]), np.asarray([2, 3])], allow_shared=True
        )
        store = write_store(tmp_path / "s.trc", wl)
        assert store.allow_shared is True
        assert store.workload().allow_shared is True

    def test_disjointness_enforced_at_write(self, tmp_path):
        with pytest.raises(ValueError, match="allow_shared"):
            with StoreWriter(tmp_path / "c.trc", name="clash") as writer:
                writer.append(0, np.asarray([7]))
                writer.append(1, np.asarray([7]))
        assert not (tmp_path / "c.trc").exists()


class TestDigests:
    def test_content_digest_equals_workload_fingerprint(self, tmp_path):
        wl = workload()
        store = write_store(tmp_path / "a.trc", wl, chunk_rows=500)
        assert store.content_digest == workload_fingerprint(wl)
        assert store.content_digest == content_digest_of(wl.sequences)

    def test_digest_independent_of_chunking(self, tmp_path):
        wl = workload()
        a = write_store(tmp_path / "a.trc", wl, chunk_rows=100)
        b = write_store(tmp_path / "b.trc", wl, chunk_rows=1 << 14)
        assert a.content_digest == b.content_digest

    def test_digest_sensitive_to_content(self, tmp_path):
        wl = workload()
        other = ParallelWorkload(
            sequences=[s.copy() for s in wl.sequences], name=wl.name
        )
        other.sequences[0][0] += 1
        a = write_store(tmp_path / "a.trc", wl)
        b = write_store(tmp_path / "b.trc", other)
        assert a.content_digest != b.content_digest

    def test_verify_passes_on_clean_store(self, tmp_path):
        store = write_store(tmp_path / "a.trc", workload(), chunk_rows=64)
        assert store.verify()


class TestStoredWorkload:
    def test_mmap_workload_is_zero_copy_and_digested(self, tmp_path):
        wl = workload()
        store = write_store(tmp_path / "a.trc", wl)
        swl = store.workload()
        assert isinstance(swl, StoredWorkload)
        assert swl.content_digest == store.content_digest
        assert workload_fingerprint(swl) == workload_fingerprint(wl)
        for a, b in zip(swl.sequences, wl.sequences):
            assert np.array_equal(a, b)

    def test_ram_mode_returns_plain_workload(self, tmp_path):
        wl = workload()
        store = write_store(tmp_path / "a.trc", wl)
        rwl = store.workload(mode="ram")
        assert type(rwl) is ParallelWorkload
        assert all(np.array_equal(a, b) for a, b in zip(rwl.sequences, wl.sequences))

    def test_pickle_ships_path_not_data(self, tmp_path):
        store = write_store(tmp_path / "a.trc", workload())
        swl = store.workload()
        blob = pickle.dumps(swl)
        # far smaller than the 48KB of sequence data
        assert len(blob) < 2000
        clone = pickle.loads(blob)
        assert isinstance(clone, StoredWorkload)
        assert np.array_equal(clone.sequences[2], swl.sequences[2])

    def test_open_workload_helper(self, tmp_path):
        wl = workload()
        write_store(tmp_path / "a.trc", wl)
        swl = open_workload(tmp_path / "a.trc")
        assert np.array_equal(swl.sequences[0], wl.sequences[0])


class TestCorruption:
    def _store_path(self, tmp_path):
        return write_store(tmp_path / "a.trc", workload(), chunk_rows=256).path

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "junk.trc"
        path.write_bytes(b"definitely not a trace store at all")
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceStore(path)

    def test_truncated_payload_is_corrupt_error(self, tmp_path):
        path = self._store_path(tmp_path)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(TraceCorruptError, match="truncated or partially written"):
            TraceStore(path)

    def test_truncated_header_is_corrupt_error(self, tmp_path):
        path = self._store_path(tmp_path)
        (tmp_path / "t.trc").write_bytes(path.read_bytes()[:12])
        with pytest.raises(TraceCorruptError, match="truncated store header"):
            TraceStore(tmp_path / "t.trc")

    def test_flipped_payload_bit_fails_chunk_digest(self, tmp_path):
        path = self._store_path(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x40
        path.write_bytes(raw)
        store = TraceStore(path)  # header untouched: opens fine
        with pytest.raises(TraceCorruptError, match="digest"):
            store.verify()

    def test_iter_chunks_verify_raises_before_yield(self, tmp_path):
        path = self._store_path(tmp_path)
        raw = bytearray(path.read_bytes())
        store = TraceStore(path)
        raw[store._data_start] ^= 0xFF  # first chunk of column 0
        path.write_bytes(raw)
        store = TraceStore(path)
        it = store.iter_chunks(0, verify=True)
        with pytest.raises(TraceCorruptError):
            next(it)
        # unverified iteration happily yields (that's the contract)
        assert len(next(store.iter_chunks(0))) > 0

    def test_garbage_json_header_is_corrupt_error(self, tmp_path):
        path = self._store_path(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[20] = 0xFF  # inside the JSON header
        (tmp_path / "g.trc").write_bytes(raw)
        with pytest.raises((TraceCorruptError, TraceFormatError)):
            TraceStore(tmp_path / "g.trc")

    def test_future_version_is_version_error(self, tmp_path):
        path = rewrite_header(self._store_path(tmp_path), lambda h: h.update(version=99))
        with pytest.raises(TraceVersionError, match="version 99"):
            TraceStore(path)

    def test_header_that_is_not_an_object_is_format_error(self, tmp_path):
        path = rewrite_header(self._store_path(tmp_path), lambda h: [h], replace=True)
        with pytest.raises(TraceFormatError, match="malformed store header: not a JSON object"):
            TraceStore(path)

    def test_version_that_is_not_an_integer_is_format_error(self, tmp_path):
        path = rewrite_header(self._store_path(tmp_path), lambda h: h.update(version="one"))
        with pytest.raises(TraceFormatError, match="malformed store header: version 'one' is not an integer"):
            TraceStore(path)

    def test_data_bytes_that_is_not_an_integer_is_format_error(self, tmp_path):
        path = rewrite_header(self._store_path(tmp_path), lambda h: h.update(data_bytes="x"))
        with pytest.raises(TraceFormatError, match="malformed store header: data_bytes 'x' is not an integer"):
            TraceStore(path)

    def test_chunk_rows_that_is_not_an_integer_is_format_error(self, tmp_path):
        path = rewrite_header(self._store_path(tmp_path), lambda h: h.update(chunk_rows=2.5))
        with pytest.raises(TraceFormatError, match="malformed store header: chunk_rows 2.5 is not an integer"):
            TraceStore(path)

    def test_column_offset_off_its_place_is_corrupt_error(self, tmp_path):
        # column 1 at byte 8 would read column 0's rows from its second on
        def edit(header):
            header["columns"][1]["offset"] = 8

        path = rewrite_header(self._store_path(tmp_path), edit)
        with pytest.raises(TraceCorruptError, match="column 1 starts at byte 8, not at 16000"):
            TraceStore(path)

    def test_negative_rows_are_corrupt_error(self, tmp_path):
        # rows and chunk rows that agree at -2 once read 14 rows of other columns
        def edit(header):
            header["columns"][1]["rows"] = -2
            header["columns"][1]["chunks"] = [{"rows": -2, "digest": ""}]

        path = rewrite_header(self._store_path(tmp_path), edit)
        with pytest.raises(TraceCorruptError, match="column 1 has -2 rows"):
            TraceStore(path)

    def test_p_that_disagrees_with_the_columns_is_corrupt_error(self, tmp_path):
        path = write_store(tmp_path / "a.trc", workload(p=2, n=40)).path
        path = rewrite_header(path, lambda h: h.update(p=3))
        with pytest.raises(TraceCorruptError, match="p=3 but lists 2 columns"):
            TraceStore(path)

    def test_empty_chunk_is_corrupt_error(self, tmp_path):
        def edit(header):
            header["columns"][0]["chunks"].append({"rows": 0, "digest": ""})

        path = rewrite_header(self._store_path(tmp_path), edit)
        with pytest.raises(TraceCorruptError, match="column 0 has 2000 rows in chunks of"):
            TraceStore(path)

    def test_columns_that_do_not_fill_the_payload_are_corrupt_error(self, tmp_path):
        # the last column one row short: the payload keeps a stray row
        def edit(header):
            col = header["columns"][-1]
            col["rows"] -= 1
            col["chunks"][-1]["rows"] -= 1

        path = rewrite_header(self._store_path(tmp_path), edit)
        with pytest.raises(TraceCorruptError, match="columns hold 47992 bytes, header says 48000"):
            TraceStore(path)

    def test_malformed_column_is_corrupt_error(self, tmp_path):
        path = rewrite_header(self._store_path(tmp_path), lambda h: h["columns"][2].pop("offset"))
        with pytest.raises(TraceCorruptError, match="malformed column layout"):
            TraceStore(path)

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            TraceStore(tmp_path / "nope.trc")


class TestWriterHygiene:
    def test_no_spool_or_temp_residue(self, tmp_path):
        write_store(tmp_path / "a.trc", workload())
        residue = [p for p in tmp_path.iterdir() if p.name != "a.trc"]
        assert residue == []

    def test_abort_on_error_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with StoreWriter(tmp_path / "x.trc") as writer:
                writer.append(0, np.arange(10))
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_writer_rejects_use_after_close(self, tmp_path):
        writer = StoreWriter(tmp_path / "x.trc")
        writer.append(0, np.arange(4))
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.append(0, np.arange(4))

    def test_declared_p_pads_empty_columns(self, tmp_path):
        with StoreWriter(tmp_path / "x.trc", p=4) as writer:
            writer.append(1, np.asarray([3, 4]))
            store = writer.close()
        assert store.p == 4
        assert store.lengths == (0, 2, 0, 0)

    def test_interleaved_unaligned_appends_equal_write_store(self, tmp_path):
        # spooled appends whose blocks straddle chunk boundaries, written in
        # any interleaving, give the bytes of the whole-column path
        wl = workload(p=4, n=500)
        rng = np.random.default_rng(3)
        cursors = [0] * wl.p
        with StoreWriter(tmp_path / "spooled.trc", name=wl.name, meta=wl.meta, chunk_rows=64) as writer:
            while any(c < len(seq) for c, seq in zip(cursors, wl.sequences)):
                proc = int(rng.integers(wl.p))
                step = int(rng.integers(1, 150))
                writer.append(proc, wl.sequences[proc][cursors[proc] : cursors[proc] + step])
                cursors[proc] += step
            writer.close()
        write_store(tmp_path / "whole.trc", wl, chunk_rows=64)
        assert (tmp_path / "spooled.trc").read_bytes() == (tmp_path / "whole.trc").read_bytes()

    @pytest.mark.skipif(os.name != "posix", reason="POSIX descriptor limits")
    def test_write_store_holds_no_file_per_processor(self, tmp_path):
        # a p=200 store under a 64-descriptor limit: whole in-memory
        # columns need no spool file, so the write cannot run out of them
        script = textwrap.dedent(
            """
            import resource, sys
            import numpy as np
            from repro.traces import TraceStore, write_store
            from repro.workloads import ParallelWorkload

            hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            seqs = [np.arange(9, dtype=np.int64) % 4 + 8 * i for i in range(200)]
            write_store(sys.argv[1], ParallelWorkload(sequences=seqs, name="wide"), chunk_rows=4)
            assert TraceStore(sys.argv[1]).verify()
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "wide.trc")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert [p.name for p in tmp_path.iterdir()] == ["wide.trc"]
