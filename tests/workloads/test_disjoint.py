"""One disjointness check for workloads and trace stores.

:func:`repro.workloads.trace.first_shared_page` replaced two per-page
python loops: ``ParallelWorkload``'s scan of each column's distinct
pages, and ``StoreWriter.close``'s scan of each chunk's.  The loops are
kept here as oracles: the check must raise exactly when some page is in
two columns, naming the conflict the loop met first, in its words.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.store import StoreWriter, write_store
from repro.workloads import ParallelWorkload
from repro.workloads.trace import first_shared_page


def workload_loop(columns) -> Optional[Tuple[int, int, int]]:
    """The conflict ``ParallelWorkload``'s per-page loop raised on."""
    seen: Dict[int, int] = {}
    for i, seq in enumerate(columns):
        for page in np.unique(seq):
            owner = seen.get(int(page))
            if owner is not None and owner != i:
                return int(page), owner, i
            seen[int(page)] = i
    return None


def store_loop(columns, chunk_rows) -> Optional[Tuple[int, int, int]]:
    """The conflict ``StoreWriter.close``'s per-chunk loop raised on."""
    owners: Dict[int, int] = {}
    for proc, seq in enumerate(columns):
        for start in range(0, len(seq), chunk_rows):
            for page in np.unique(seq[start : start + chunk_rows]).tolist():
                owner = owners.setdefault(int(page), proc)
                if owner != proc:
                    return int(page), owner, proc
    return None


columns = st.lists(
    st.lists(st.integers(-3, 12) | st.sampled_from([-(2**63), 2**63 - 1]), max_size=30).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(cols=columns)
def test_first_shared_page_is_the_loops_first_conflict(cols):
    assert first_shared_page(cols) == workload_loop(cols)


@settings(max_examples=150, deadline=None)
@given(cols=columns)
def test_workload_raises_exactly_on_a_shared_page(cols):
    want = workload_loop(cols)
    if want is None:
        wl = ParallelWorkload(cols, name="w")
        assert not wl.is_shared
        return
    page, owner, i = want
    with pytest.raises(ValueError) as ei:
        ParallelWorkload(cols, name="w")
    assert str(ei.value) == f"workload 'w': page {page} appears in sequences {owner} and {i}"
    assert ParallelWorkload(cols, name="w", allow_shared=True).is_shared


@settings(max_examples=100, deadline=None)
@given(cols=columns, chunk_rows=st.integers(1, 8), spool=st.booleans())
def test_store_raises_exactly_on_a_shared_page(tmp_path_factory, cols, chunk_rows, spool):
    """Columns held whole (``write_store``) or spooled chunk by chunk."""
    path = tmp_path_factory.mktemp("store") / "t.trc"
    want = store_loop(cols, chunk_rows)
    if spool:
        writer = StoreWriter(path, name="t", chunk_rows=chunk_rows, p=len(cols))
        for proc, seq in enumerate(cols):
            for start in range(0, len(seq), 3):
                writer.append(proc, seq[start : start + 3])
        close = writer.close
    else:
        wl = ParallelWorkload(cols, name="t", allow_shared=True)
        wl.allow_shared = False  # the store, not the workload, checks
        def close():
            return write_store(path, wl, chunk_rows=chunk_rows)
    if want is None:
        assert close().p == len(cols)
        return
    page, owner, proc = want
    with pytest.raises(ValueError) as ei:
        close()
    assert str(ei.value) == (
        f"trace 't': page {page} appears in sequences {owner} and {proc} "
        "(pass allow_shared=True for the shared-pages model)"
    )
    assert not path.exists()
