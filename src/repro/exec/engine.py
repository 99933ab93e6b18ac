"""The parallel execution engine: cache-aware, deterministic, fault-tolerant.

:class:`ExecutionEngine` runs batches of :class:`~repro.exec.units.WorkUnit`
and returns their values **in input order**, whatever the completion
order, so ``--jobs N`` produces row-for-row identical tables to serial
execution.  Each unit is first looked up in the (optional)
content-addressed :class:`~repro.exec.cache.ResultCache`; misses are
computed — in-process for ``jobs == 1``, on a ``ProcessPoolExecutor``
otherwise — then stored back, journaled to the run checkpoint, and
recorded in telemetry.

Failure handling is governed by an
:class:`~repro.exec.policy.ExecutionPolicy`: every unit gets a per-attempt
timeout and bounded retries with backoff; a worker crash
(``BrokenProcessPool``) rebuilds the pool and charges an attempt only to
the unit that crashed it, resubmitting the others in flight untouched; a
hung worker is timed out, its pool torn down, and the innocent in-flight
units resubmitted without burning an attempt.  Under
``keep_going`` a unit that exhausts its retries yields a typed
:class:`~repro.exec.policy.FailedCell` instead of aborting the batch.

Experiments do not thread an engine through every call: the harness asks
:func:`current_engine` for the ambient one, and the CLI (or a test)
scopes a configured engine with the :func:`execution` context manager::

    with execution(jobs=4, cache=True):
        repro.run_experiment(workload, specs)   # cells fan out over 4 procs
"""

from __future__ import annotations

import gc
import heapq
import itertools
import multiprocessing
import os
import signal
import time
import warnings
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.runtime import absorb_outcome
from .cache import ResultCache
from .checkpoint import RunCheckpoint
from .handoff import HandoffManager, PreparedTask, execute_prepared
from .policy import ExecutionPolicy, FailedCell, UnitExecutionError, UnitTimeoutError, run_unit_with_policy
from .telemetry import TELEMETRY, CellRecord, Telemetry
from .units import CellOutcome, WorkUnit, execute_unit

__all__ = ["ExecutionEngine", "execution", "current_engine", "default_jobs", "use_engine"]


def default_jobs() -> int:
    """A sensible ``--jobs`` default for "use the machine": the CPU count."""
    return os.cpu_count() or 1


def _terminate_pool(pool) -> None:
    """Best-effort hard stop of a pool whose workers may be hung or dead.

    ``_processes`` is a private attribute, but terminating the workers is
    the only way to reclaim slots from a genuinely hung computation; the
    whole body is defensive so a CPython layout change degrades to a
    plain (possibly slow) shutdown rather than an error.
    """
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


#: A pool worker's slot on its pool's crash board: the board's raw words
#: and the index of the word holding the token of the unit it runs.
_SLOT: Optional[Tuple[Any, int]] = None


def _start_worker(board) -> None:
    """Pool worker start-up: restore SIGTERM's default action, claim a
    ``(pid, token)`` slot on the pool's crash board, then freeze the
    heap the worker forked with.

    A forked worker inherits the parent's handlers, and the CLI's
    signal guard turns SIGTERM into ``KeyboardInterrupt``; with it, the
    SIGTERM that tears a broken pool down would end a bystander with an
    exit code of its own (so :func:`_crashed_tokens` charges it) or not
    at all.  The default is restored before the slot is claimed, so
    every worker on the board dies by that SIGTERM.

    Freezing keeps the worker's full collections off the parent's heap,
    which they would otherwise walk and copy-on-write page by page, at a
    cost that grows with the parent's heap and the host's load.
    """
    global _SLOT
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with board.get_lock():
        words = board.get_obj()
        k = next(k for k in range(0, len(words), 2) if not words[k])
        words[k] = os.getpid()
    _SLOT = (words, k + 1)
    gc.freeze()


def _run_marked(token: int, run: Callable[[Any], Any], task: Any) -> Any:
    """Pool-side ``run(task)``, after posting ``token`` on the worker's
    crash-board slot, so a crash can be traced to the unit it ran."""
    words, k = _SLOT
    words[k] = token
    return run(task)


def _crashed_tokens(pool) -> Set[int]:
    """Tear a broken pool down; return the tokens of the units its
    crashed workers were running.

    A worker that died by itself, not by the SIGTERM with which the pool
    and this teardown stop the rest, exited with a code of its own, and
    its crash-board slot holds the token of the unit it last started.
    The pool's manager thread reaps the workers; a second reaper racing
    it could read no exit code, so the codes are read once it is done.
    The board is read without its lock: a worker SIGTERMed while it
    claimed its slot took the lock with it.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    board = getattr(pool, "crash_board", None)
    _terminate_pool(pool)
    if manager is not None:
        manager.join(timeout=5.0)
    if board is None:
        return set()
    words = board.get_obj()
    started = dict(zip(words[0::2], words[1::2]))  # pid -> token
    crashed = set()
    for proc in procs:
        proc.join(timeout=1.0)
        if proc.exitcode not in (None, -signal.SIGTERM) and proc.pid in started:
            crashed.add(started[proc.pid])
    return crashed


class ExecutionEngine:
    """Runs work units serially or on a process pool, through the cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) executes in-process.  Pool
        start-up failures degrade to serial execution with a warning —
        results are identical either way.
    cache:
        A :class:`ResultCache`, or None to always recompute.
    telemetry:
        Collector for per-cell records; defaults to the process-wide
        :data:`~repro.exec.telemetry.TELEMETRY`.
    policy:
        Per-unit :class:`~repro.exec.policy.ExecutionPolicy` (timeout,
        retries, keep-going); defaults to fail-fast with no timeout and
        no retries — the historical behavior.
    checkpoint:
        Optional :class:`~repro.exec.checkpoint.RunCheckpoint`; every
        computed (non-failed) unit key is journaled so an interrupted
        run can prove what finished.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        policy: Optional[ExecutionPolicy] = None,
        checkpoint: Optional[RunCheckpoint] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else TELEMETRY
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------ #
    # pool plumbing (separated so tests can force construction failures)
    # ------------------------------------------------------------------ #
    def _make_pool(self, max_workers: int):
        import concurrent.futures

        # one (pid, token) slot per worker: a pool never starts more
        # workers than max_workers, and a broken one is replaced whole
        board = multiprocessing.Array("q", 2 * max_workers)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, initializer=_start_worker, initargs=(board,)
        )
        pool.crash_board = board
        return pool

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _compute_missing(
        self,
        pending: List[int],
        units: Sequence[WorkUnit],
        keys: Sequence[Optional[str]],
        on_complete: Callable[[int, Union[CellOutcome, FailedCell], int], None],
    ) -> None:
        """Execute the units at the given indices.

        ``on_complete(index, outcome, attempts)`` fires for every unit *as
        it finishes* — not at batch end — so cache stores and checkpoint
        journal entries survive an interrupt mid-batch.  ``outcome`` is a
        :class:`CellOutcome` or — only under ``policy.keep_going`` — a
        :class:`FailedCell`.
        """
        if not pending:
            return
        if self.jobs > 1 and len(pending) > 1:
            try:
                pool = self._make_pool(min(self.jobs, len(pending)))
            except (OSError, ImportError, RuntimeError) as exc:
                warnings.warn(
                    f"process pool unavailable ({exc!r}); falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                # zero-copy handoff: heavy payloads leave the pickle path
                # (spilled stores, shared-memory arrays) before submission.
                # Keys were already computed from the original units, and
                # the manager releases its segments only after the pool
                # has fully drained — including crash-recovery resubmits.
                with HandoffManager() as manager:
                    tasks = manager.prepare_batch(units, pending)
                    for i in pending:
                        if tasks[i] is None:
                            tasks[i] = units[i]
                    self._run_pooled(pool, pending, tasks, keys, on_complete)
                return
        for i in pending:
            outcome, attempts = run_unit_with_policy(units[i], self.policy, key=keys[i] or "")
            on_complete(i, outcome, attempts)

    def _run_pooled(
        self,
        pool,
        pending: List[int],
        units: Sequence[WorkUnit],
        keys: Sequence[Optional[str]],
        on_complete: Callable[[int, Union[CellOutcome, FailedCell], int], None],
    ) -> None:
        """Pool scheduler with retries, per-unit timeouts, and crash recovery.

        Invariants: at most ``workers`` units are in flight (so a
        submitted unit starts immediately and its timeout clock is
        honest); a unit that fails an attempt re-enters the queue after
        its backoff; a timed-out (hung) worker rebuilds the pool and
        resubmits the innocent in-flight units with their attempt counts
        untouched.

        A worker crash fails every future in flight with
        ``BrokenProcessPool``, so the break alone does not say whose
        attempt failed.  The pool is rebuilt, and only the unit a crashed
        worker was running (its token on the crash board) is charged; the
        other units resubmit untouched.  When the board names no culprit
        and several units were in flight, none is charged: they run one
        at a time until each completes or breaks the pool alone, and only
        a unit that breaks it alone loses an attempt.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        policy = self.policy
        workers = min(self.jobs, len(pending))
        done_count = 0
        first_start: Dict[int, float] = {}
        ready: Deque[Tuple[int, int]] = deque((i, 1) for i in pending)  # (index, attempt#)
        suspects: Deque[Tuple[int, int]] = deque()  # in flight at an unexplained break
        delayed: List[Tuple[float, int, int]] = []  # heap of (due, index, attempt#)
        # future -> (index, attempt#, deadline, crash-board token)
        inflight: Dict[Any, Tuple[int, int, Optional[float], int]] = {}
        tokens = itertools.count(1)

        def fail_attempt(idx: int, attempt: int, exc: BaseException) -> None:
            """One attempt died; schedule the retry or finalize the cell."""
            nonlocal done_count
            if attempt <= policy.retries:
                token = keys[idx] or units[idx].label or units[idx].kind
                heapq.heappush(delayed, (time.monotonic() + policy.backoff_delay(token, attempt), idx, attempt + 1))
                return
            if not policy.keep_going:
                raise UnitExecutionError(units[idx], attempt, exc) from exc
            cell = FailedCell(
                kind=units[idx].kind,
                label=units[idx].label,
                key=keys[idx] or "",
                error=repr(exc),
                error_type=type(exc).__name__,
                attempts=attempt,
                elapsed_s=time.monotonic() - first_start[idx],
            )
            done_count += 1
            on_complete(idx, cell, attempt)

        def submit(queue: Deque[Tuple[int, int]]) -> bool:
            """Submit the head of ``queue``; False if the pool is broken."""
            idx, attempt = queue[0]
            unit = units[idx]
            run = execute_prepared if isinstance(unit, PreparedTask) else execute_unit
            token = next(tokens)
            try:
                future = pool.submit(_run_marked, token, run, unit)
            except BrokenProcessPool:
                return False
            queue.popleft()
            first_start.setdefault(idx, time.monotonic())
            deadline = (time.monotonic() + policy.timeout_s) if policy.timeout_s else None
            inflight[future] = (idx, attempt, deadline, token)
            return True

        try:
            while done_count < len(pending):
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, idx, attempt = heapq.heappop(delayed)
                    ready.append((idx, attempt))
                # a suspect runs alone; the rest wait for the suspects
                queue, room = (suspects, 1) if suspects else (ready, workers)
                while queue and len(inflight) < room:
                    if not submit(queue):
                        if not inflight:  # broke between batches: nothing to charge
                            _terminate_pool(pool)
                            pool = self._make_pool(workers)
                        break
                if not inflight:
                    if ready or suspects:
                        continue
                    # everything outstanding is waiting out a backoff
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                wakeups = [dl for (_, _, dl, _) in inflight.values() if dl is not None]
                if delayed:
                    wakeups.append(delayed[0][0])
                timeout = max(0.01, min(wakeups) - time.monotonic()) if wakeups else None
                done, _ = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)

                lost: List[Tuple[int, int, Optional[float], int]] = []
                for future in done:
                    entry = inflight.pop(future)
                    idx, attempt = entry[0], entry[1]
                    try:
                        value = future.result()
                        done_count += 1
                        on_complete(idx, value, attempt)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenProcessPool as exc:
                        lost.append(entry)
                        broke = exc
                    except Exception as exc:
                        fail_attempt(idx, attempt, exc)
                if lost:
                    # the pool is unusable: every unit still in flight is lost too
                    lost.extend(inflight.values())
                    inflight.clear()
                    crashed = _crashed_tokens(pool)
                    pool = self._make_pool(workers)
                    guilty = [e for e in lost if e[3] in crashed] or (lost if len(lost) == 1 else [])
                    for idx, attempt, _dl, _token in guilty:
                        fail_attempt(idx, attempt, broke)
                    innocent = [(e[0], e[1]) for e in lost if e not in guilty]
                    (ready if guilty else suspects).extend(innocent)
                    continue

                now = time.monotonic()
                expired = [f for f, (_, _, dl, _) in inflight.items() if dl is not None and now >= dl and not f.done()]
                if expired:
                    for future in expired:
                        idx, attempt, _deadline, _token = inflight.pop(future)
                        fail_attempt(
                            idx,
                            attempt,
                            UnitTimeoutError(
                                f"unit {units[idx].label or units[idx].kind!r} exceeded {policy.timeout_s}s"
                            ),
                        )
                    # the hung workers still occupy pool slots: rebuild, and
                    # resubmit the units that were merely sharing the pool
                    ready.extend((idx, attempt) for (idx, attempt, _dl, _t) in inflight.values())
                    inflight.clear()
                    _terminate_pool(pool)
                    pool = self._make_pool(workers)
        except BaseException:
            _terminate_pool(pool)
            raise
        pool.shutdown(wait=True)

    def run(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run a batch of units; returns their values in input order.

        Cache hits short-circuit compute; computed outcomes are stored
        back, journaled to the checkpoint, and recorded in telemetry.
        Under ``policy.keep_going`` a failed unit's slot holds its
        :class:`FailedCell` (callers test with ``isinstance``).
        """
        units = list(units)
        outcomes: List[Optional[Union[CellOutcome, FailedCell]]] = [None] * len(units)
        keys: List[Optional[str]] = [None] * len(units)
        pending: List[int] = []
        want_keys = self.cache is not None or self.checkpoint is not None
        for i, unit in enumerate(units):
            if want_keys:
                t0 = time.perf_counter()
                key = unit.key()
                keys[i] = key
                if self.cache is not None:
                    hit, outcome = self.cache.load(key)
                    if hit:
                        outcomes[i] = outcome
                        self.telemetry.record(
                            CellRecord(
                                kind=unit.kind,
                                label=unit.label,
                                key=key,
                                cached=True,
                                duration_s=time.perf_counter() - t0,
                                sim_steps=outcome.sim_steps,
                            )
                        )
                        obs_metrics.counter("exec.cells").inc()
                        obs_metrics.counter("exec.cache.hits").inc()
                        obs_tracing.instant("exec.cache_hit", kind=unit.kind, label=unit.label)
                        # a hit replays the metrics/spans recorded when the
                        # cell was computed, so warm runs report the same
                        # sim.* counters as the run that filled the cache
                        absorb_outcome(outcome)
                        continue
            pending.append(i)
        # submit markers live here (and completion events in ``absorb``)
        # because these paths are shared by serial and pooled execution,
        # so the canonical trace is identical under any --jobs value
        if obs_tracing.enabled():
            for i in pending:
                obs_tracing.instant("exec.submit", kind=units[i].kind, label=units[i].label)

        def absorb(i: int, outcome: Union[CellOutcome, FailedCell], attempts: int) -> None:
            # Fires per unit as it completes, so an interrupt mid-batch
            # loses at most the in-flight units: everything already
            # computed is cached and journaled.
            outcomes[i] = outcome
            if isinstance(outcome, FailedCell):
                self.telemetry.record(
                    CellRecord(
                        kind=units[i].kind,
                        label=units[i].label,
                        key=keys[i] or "",
                        cached=False,
                        duration_s=outcome.elapsed_s,
                        sim_steps=0,
                        failed=True,
                        attempts=outcome.attempts,
                        error=outcome.error,
                    )
                )
                obs_metrics.counter("exec.cells").inc()
                obs_metrics.counter("exec.failed_cells").inc()
                obs_tracing.instant(
                    "exec.unit_failed",
                    kind=outcome.kind,
                    label=outcome.label,
                    attempts=outcome.attempts,
                    error_type=outcome.error_type,
                )
                return
            if self.cache is not None and keys[i] is not None:
                self.cache.store(keys[i], outcome)
            if self.checkpoint is not None and keys[i] is not None:
                self.checkpoint.record_unit(keys[i], kind=units[i].kind, label=units[i].label)
            self.telemetry.record(
                CellRecord(
                    kind=units[i].kind,
                    label=units[i].label,
                    key=keys[i] or "",
                    cached=False,
                    duration_s=outcome.duration_s,
                    sim_steps=outcome.sim_steps,
                    attempts=attempts,
                )
            )
            obs_metrics.counter("exec.cells").inc()
            obs_metrics.counter("exec.computed").inc()
            if attempts > 1:
                obs_metrics.counter("exec.retries").inc(attempts - 1)
            obs_metrics.counter("wall.exec.compute_s").inc(outcome.duration_s)
            tracer = obs_tracing.active()
            if tracer.enabled:
                tracer.complete(
                    "exec.unit",
                    outcome.duration_s,
                    kind=units[i].kind,
                    label=units[i].label,
                    attempts=attempts,
                )
            absorb_outcome(outcome)

        with obs_tracing.span("exec.batch", units=len(units), pending=len(pending)):
            self._compute_missing(pending, units, keys, absorb)
        return [o.value if isinstance(o, CellOutcome) else o for o in outcomes]


#: Ambient engine stack; the base entry is the serial, cache-less default.
_ENGINE_STACK: List[ExecutionEngine] = [ExecutionEngine()]


def current_engine() -> ExecutionEngine:
    """The innermost engine configured via :func:`execution` (or the default)."""
    return _ENGINE_STACK[-1]


@contextmanager
def use_engine(engine: ExecutionEngine) -> Iterator[ExecutionEngine]:
    """Scope an *existing* engine as the ambient one.

    :func:`execution` constructs a fresh engine per scope; long-lived
    callers (a :class:`repro.client.Session`, the service backend) keep
    one configured engine — with its cache, policy, and checkpoint —
    alive across many requests and re-enter it per call.
    """
    _ENGINE_STACK.append(engine)
    try:
        yield engine
    finally:
        _ENGINE_STACK.pop()


@contextmanager
def execution(
    jobs: int = 1,
    cache: bool = False,
    cache_dir: Optional[os.PathLike] = None,
    telemetry: Optional[Telemetry] = None,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[RunCheckpoint] = None,
    telemetry_jsonl: Optional[os.PathLike] = None,
) -> Iterator[ExecutionEngine]:
    """Scope an ambient :class:`ExecutionEngine` for everything inside.

    ``cache=True`` opens the content-addressed result cache (at
    ``cache_dir``, ``$REPRO_CACHE_DIR``, or ``./.repro_cache``).  The
    library default outside any ``execution`` block is serial and
    cache-less, so tests and ad-hoc calls stay hermetic.

    The exit path is exception-safe: the ambient engine stack is restored
    and — if ``telemetry_jsonl`` is given — every record collected inside
    the scope is flushed to that file *even when the body raises*, so an
    interrupted run keeps its partial telemetry.
    """
    engine = ExecutionEngine(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache else None,
        telemetry=telemetry,
        policy=policy,
        checkpoint=checkpoint,
    )
    mark = len(engine.telemetry)
    _ENGINE_STACK.append(engine)
    try:
        yield engine
    finally:
        _ENGINE_STACK.pop()
        if telemetry_jsonl is not None:
            try:
                engine.telemetry.write_jsonl(telemetry_jsonl, since=mark)
            except OSError as exc:  # pragma: no cover — disk-full etc.
                warnings.warn(f"could not flush telemetry to {telemetry_jsonl}: {exc}", RuntimeWarning)
