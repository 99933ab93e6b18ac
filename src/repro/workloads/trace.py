"""Workload container for parallel-paging instances.

A :class:`ParallelWorkload` is the input to every parallel experiment: one
request sequence per processor, **disjoint** across processors (the paper's
standing assumption — each processor runs a distinct program with no shared
pages).  The container enforces disjointness at construction, provides
page-relabeling helpers so generators can be written processor-locally, and
(de)serializes to ``.npz`` for reproducible experiment inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ParallelWorkload", "disjointify", "first_shared_page", "PAGE_STRIDE"]

#: Relabeling stride: processor ``i``'s local page ``x`` becomes
#: ``i * PAGE_STRIDE + x``.  2**40 local pages per processor is far beyond
#: any sequence we generate, and int64 holds 2**23 processors' worth.
PAGE_STRIDE = 1 << 40


def disjointify(sequences: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Relabel per-processor local page ids into globally disjoint ids."""
    out: List[np.ndarray] = []
    for i, seq in enumerate(sequences):
        arr = np.asarray(seq, dtype=np.int64)
        if len(arr) and (arr.min() < 0 or arr.max() >= PAGE_STRIDE):
            raise ValueError(f"sequence {i}: local page ids must lie in [0, {PAGE_STRIDE})")
        out.append(arr + np.int64(i) * np.int64(PAGE_STRIDE))
    return out


def distinct_sorted(col: np.ndarray) -> np.ndarray:
    """A column's distinct pages, ascending: ``np.unique``'s answer from
    one sort, which on int64 columns is several times faster than the
    hash pass ``np.unique`` makes first."""
    pages = np.sort(np.asarray(col, dtype=np.int64))
    if len(pages) < 2:
        return pages
    return pages[np.concatenate(([True], pages[1:] != pages[:-1]))]


def first_shared_page(columns: Sequence[np.ndarray]) -> Optional[Tuple[int, int, int]]:
    """The first page two columns share, as ``(page, owner, column)``, or None.

    ``column`` is the first column holding a page some earlier column
    holds, ``page`` the least such page in it, and ``owner`` the first
    column holding ``page``: the conflict a scan of the columns in order,
    each column's distinct pages in ascending order, meets first.  Each
    column's distinct pages (:func:`distinct_sorted`), then one stable
    sort across all of them, so memory stays O(distinct pages per column,
    summed).
    """
    uniques = [distinct_sorted(col) for col in columns]
    if len(uniques) < 2:
        return None
    pages = np.concatenate(uniques)
    cols = np.repeat(np.arange(len(uniques)), [len(u) for u in uniques])
    order = np.argsort(pages, kind="stable")  # a page's entries keep column order
    pages, cols = pages[order], cols[order]
    # a column holds each page once, so an entry repeating the page of
    # the entry before it is a later column's: a conflict
    later = np.flatnonzero(pages[1:] == pages[:-1]) + 1
    if not len(later):
        return None
    column = cols[later].min()
    page = pages[later[cols[later] == column][0]]  # entries ascend by page
    owner = cols[np.searchsorted(pages, page)]
    return int(page), int(owner), int(column)


@dataclass
class ParallelWorkload:
    """``p`` request sequences plus experiment metadata.

    Sequences are **disjoint** by default — the paper's standing
    assumption, enforced at construction.  ``allow_shared=True`` opts out
    for the *shared pages* model the paper's conclusion lists as future
    work; the paper's box algorithms still run on such workloads (each
    treats its own sequence independently) but their theoretical
    guarantees do not apply, and sharing-aware baselines (GLOBAL-LRU) can
    exploit the overlap.  Experiment E10 probes exactly this.

    Attributes
    ----------
    sequences:
        One int64 array per processor.
    name:
        Human-readable workload identifier (appears in reports).
    meta:
        Free-form generator parameters, recorded for reproducibility.
    allow_shared:
        Skip the disjointness check (future-work model).
    """

    sequences: List[np.ndarray]
    name: str = "unnamed"
    meta: Dict[str, object] = field(default_factory=dict)
    allow_shared: bool = False

    def __post_init__(self) -> None:
        self.sequences = [np.ascontiguousarray(s, dtype=np.int64) for s in self.sequences]
        if not self.allow_shared:
            self._check_disjoint()

    @property
    def is_shared(self) -> bool:
        """True iff any page appears in more than one sequence."""
        return first_shared_page(self.sequences) is not None

    def _check_disjoint(self) -> None:
        shared = first_shared_page(self.sequences)
        if shared is not None:
            page, owner, i = shared
            raise ValueError(f"workload {self.name!r}: page {page} appears in sequences {owner} and {i}")

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def p(self) -> int:
        """Number of processors."""
        return len(self.sequences)

    @property
    def lengths(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.sequences)

    @property
    def total_requests(self) -> int:
        return sum(self.lengths)

    def distinct_pages(self, proc: int) -> int:
        """Number of distinct pages processor ``proc`` touches."""
        return int(len(np.unique(self.sequences[proc])))

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.sequences)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.sequences[i]

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        ls = self.lengths
        return (
            f"{self.name}: p={self.p}, requests={self.total_requests}, "
            f"len[min/med/max]={min(ls)}/{sorted(ls)[len(ls) // 2]}/{max(ls)}"
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        """Serialize to ``.npz`` (sequences + name + meta repr)."""
        arrays = {f"seq_{i}": s for i, s in enumerate(self.sequences)}
        np.savez_compressed(
            Path(path),
            _name=np.array(self.name),
            _meta=np.array(repr(self.meta)),
            _p=np.array(self.p),
            _allow_shared=np.array(self.allow_shared),
            **arrays,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ParallelWorkload":
        """Load a workload previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            p = int(data["_p"])
            sequences = [data[f"seq_{i}"] for i in range(p)]
            name = str(data["_name"])
            # files written before the shared-pages model default to disjoint
            allow_shared = bool(data["_allow_shared"]) if "_allow_shared" in data else False
            import ast

            meta = ast.literal_eval(str(data["_meta"]))
        return cls(sequences=sequences, name=name, meta=meta, allow_shared=allow_shared)

    @classmethod
    def from_local(
        cls,
        local_sequences: Sequence[np.ndarray],
        name: str = "unnamed",
        meta: Optional[Mapping[str, object]] = None,
    ) -> "ParallelWorkload":
        """Build a workload from processor-local page ids (auto-disjointify)."""
        return cls(sequences=disjointify(local_sequences), name=name, meta=dict(meta or {}))
