"""Archival (de)serialization of simulation results.

Experiments that take minutes should not need re-running to re-analyze:
this module round-trips a :class:`~repro.parallel.events.ParallelRunResult`
— completion times, full box trace, parameters, and JSON-safe metadata —
through a single ``.npz`` file.  The audits (`audit_well_rounded`,
`era_analysis`, `render_gantt`, …) all run off the stored trace, so a
saved result is fully re-analyzable.

The trace is stored as two arrays: ``trace``, the first nine columns of
the :class:`~repro.parallel.events.BoxTrace` rows (every record field
but the tag), and ``trace_tags``, each box's tag as a string.  Both
directions move the columns whole, with no per-box python, and files
written before the trace became columns load unchanged.

Scheduler-specific metadata objects (phase records, chunk stats) are
stored in a JSON-safe projection: dataclasses become dicts, tuples become
lists; consumers that need the exact original objects should re-run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from .events import BoxTrace, ParallelRunResult

__all__ = ["save_result", "load_result"]

#: The stored ``trace`` array's columns: the record fields before the tag.
_TRACE_COLUMNS = 9


def _json_safe(obj: Any) -> Any:
    """Project metadata into JSON-encodable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _json_safe(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def save_result(result: ParallelRunResult, path: str | Path) -> None:
    """Write a result (trace included) to ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = result.trace.rows
    np.savez_compressed(
        path,
        algorithm=np.array(result.algorithm),
        completion_times=result.completion_times,
        cache_size=np.array(result.cache_size),
        miss_cost=np.array(result.miss_cost),
        trace=rows[:, :_TRACE_COLUMNS],
        trace_tags=np.array(result.trace.tags, dtype=object)[rows[:, _TRACE_COLUMNS]],
        meta=np.array(json.dumps(_json_safe(result.meta))),
    )


def load_result(path: str | Path) -> ParallelRunResult:
    """Load a result written by :func:`save_result`.

    Metadata comes back as the JSON-safe projection (dicts/lists), not the
    original dataclasses.
    """
    with np.load(Path(path), allow_pickle=True) as data:
        columns = np.asarray(data["trace"], dtype=np.int64).reshape(-1, _TRACE_COLUMNS)
        tags, index = np.unique(np.asarray(data["trace_tags"]).astype(str), return_inverse=True)
        trace = BoxTrace(np.column_stack((columns, index.reshape(-1))), tags.tolist())
        return ParallelRunResult(
            algorithm=str(data["algorithm"]),
            completion_times=np.asarray(data["completion_times"], dtype=np.int64),
            trace=trace,
            cache_size=int(data["cache_size"]),
            miss_cost=int(data["miss_cost"]),
            meta=json.loads(str(data["meta"])),
        )
