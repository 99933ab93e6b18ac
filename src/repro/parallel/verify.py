"""Independent re-execution verifier for box-schedule traces.

``ParallelRunResult.validate()`` checks *structure* (contiguous service,
well-formed intervals).  This module checks *semantics*: it replays every
recorded box against the workload with a fresh cold LRU of the recorded
height and the recorded wall-clock window, and confirms that the
simulator's claimed progress, hit/fault counts, and completion times are
exactly what the paging model dictates.

This is the strongest correctness oracle in the repository: any drift
between a scheduler's internal bookkeeping and the model (an off-by-one
in budgets, a stale position, a phantom warm cache across box boundaries)
fails loudly here.  The cross-algorithm property tests run it on every
registered box algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..paging.kernel import box_walk
from ..workloads.trace import ParallelWorkload
from .events import ParallelRunResult

__all__ = ["TraceVerification", "verify_trace"]


@dataclass(frozen=True)
class TraceVerification:
    """Outcome of a semantic trace verification.

    Attributes
    ----------
    ok:
        True iff every box replayed exactly and completions match.
    errors:
        Human-readable discrepancy descriptions (empty when ok).
    boxes_checked:
        Number of box records replayed.
    """

    ok: bool
    errors: Tuple[str, ...]
    boxes_checked: int


def verify_trace(result: ParallelRunResult, workload: ParallelWorkload) -> TraceVerification:
    """Replay ``result.trace`` against ``workload`` and compare everything.

    Conventions verified:

    * boxes are compartmentalized: each replays from a cold cache at the
      recorded ``served_start`` with the recorded height and wall budget
      ``end - start``;
    * the box serves exactly ``[served_start, served_end)`` with the
      recorded hit/fault split;
    * per-processor service is contiguous and finishes each sequence;
    * each processor's completion time equals the start of its finishing
      box plus the service time used inside it.
    """
    errors: List[str] = []
    s = result.miss_cost
    seqs = workload.sequences  # StreamingWorkload falls back to memmap columns
    digest = getattr(workload, "content_digest", None)
    per_proc: Dict[int, List] = {i: [] for i in range(workload.p)}
    for r in result.trace:
        per_proc.setdefault(r.proc, []).append(r)
    checked = 0
    for proc, boxes in per_proc.items():
        boxes.sort(key=lambda r: (r.start, r.served_start))
        pos = 0
        completion = None
        seq = seqs[proc] if proc < len(seqs) else None
        if seq is None:
            if boxes:
                errors.append(f"proc {proc}: trace references unknown processor")
            continue
        walk = box_walk(seq, key=(digest, proc) if digest else None)
        for r in boxes:
            checked += 1
            if r.served_start != pos:
                errors.append(
                    f"proc {proc}: box at t={r.start} starts service at {r.served_start}, expected {pos}"
                )
                pos = r.served_start
            replay = walk(r.served_start, r.height, r.duration, s)
            if replay.end != r.served_end:
                errors.append(
                    f"proc {proc}: box at t={r.start} (h={r.height}, dur={r.duration}) "
                    f"claims service to {r.served_end}, replay gives {replay.end}"
                )
            if (replay.hits, replay.faults) != (r.hits, r.faults):
                errors.append(
                    f"proc {proc}: box at t={r.start} claims {r.hits}h/{r.faults}f, "
                    f"replay gives {replay.hits}h/{replay.faults}f"
                )
            pos = r.served_end
            if pos >= len(seq) and completion is None:
                completion = r.start + replay.time_used
        if len(seq) == 0:
            if int(result.completion_times[proc]) != 0:
                errors.append(f"proc {proc}: empty sequence but completion {result.completion_times[proc]}")
            continue
        if pos < len(seq):
            errors.append(f"proc {proc}: trace serves only {pos}/{len(seq)} requests")
        elif completion is not None and completion != int(result.completion_times[proc]):
            errors.append(
                f"proc {proc}: recorded completion {int(result.completion_times[proc])}, "
                f"replay gives {completion}"
            )
    return TraceVerification(ok=not errors, errors=tuple(errors), boxes_checked=checked)
