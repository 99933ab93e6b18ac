"""The multi-tenant backend: one shared engine behind many clients.

:class:`ServiceBackend` owns the long-lived
:class:`~repro.exec.ExecutionEngine` (process pool, content-addressed
cache, execution policy, checkpoint journal) and meters access to it:

* **Admission control** — a bounded job queue; a submission past the
  limit is rejected with a typed ``queue-full`` (HTTP 503) instead of
  growing memory without bound.
* **Per-client quotas** — at most ``max_pending_per_client`` live jobs
  per client identity; past that the submission is a typed
  ``quota-exceeded`` (HTTP 429).  Both admissions and rejections are
  accounted in the metrics registry (``service.*{client=...}``).
* **Coalescing** — requests hash to a content key (client identity
  excluded); a submission identical to a *live* (queued/running) job
  attaches to that job instead of queueing a duplicate, so N clients
  asking for the same thing cost one computation.  Completed duplicates
  are then served by the content-addressed result cache: the second
  client's cells come back as cache hits in O(1) per cell.
* **Batching** — each job's request decomposes into its
  :class:`~repro.exec.WorkUnit` cells through the same harness code the
  CLI uses, and the engine batches those cells over its pool.

Execution is deliberately one job at a time on a single worker thread:
cells inside a job already fan out over the engine's process pool, and
serializing jobs is what makes "identical request ⇒ cache hit" a
guarantee rather than a race.  A SIGTERM mid-job leaves the engine's
checkpoint journal and cache entries behind (PR 2's semantics), so a
restarted server serves the interrupted work from cache.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from ..client.protocol import JobStatus, Request, RunReply, ServiceError, TraceReply, TraceUpload
from ..client.session import Session, execute_request
from ..exec.cache import ResultCache
from ..exec.checkpoint import RunCheckpoint
from ..exec.engine import ExecutionEngine
from ..exec.policy import ExecutionPolicy
from ..obs import metrics as obs_metrics

__all__ = ["ServiceQuota", "Job", "ServiceBackend"]


@dataclass(frozen=True)
class ServiceQuota:
    """Admission limits: queue depth (shared) and live jobs per client."""

    max_queue: int = 64
    max_pending_per_client: int = 8

    def __post_init__(self) -> None:
        if self.max_queue < 1 or self.max_pending_per_client < 1:
            raise ValueError("quota limits must be >= 1")


class Job:
    """One submitted request moving through queued → running → done/failed."""

    __slots__ = ("job_id", "request", "content_key", "clients", "state", "reply", "error", "done")

    def __init__(self, job_id: str, request: Request, content_key: str) -> None:
        self.job_id = job_id
        self.request = request
        self.content_key = content_key
        #: Every client identity attached to this job (first = submitter,
        #: rest = coalesced duplicates).
        self.clients: List[str] = [getattr(request, "client", "anonymous")]
        self.state = "queued"
        self.reply: Optional[RunReply] = None
        self.error: Optional[ServiceError] = None
        self.done = threading.Event()

    def status(self, queued_ahead: int = 0, coalesced: bool = False) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            kind=self.request.to_dict()["type"],
            client=self.clients[0],
            queued_ahead=queued_ahead,
            coalesced=coalesced,
            error=self.error.to_dict() if self.error is not None else None,
        )


class ServiceBackend:
    """Shared execution backend with admission control and quotas.

    Parameters
    ----------
    jobs, cache, cache_dir, policy, checkpoint:
        Engine configuration (see :class:`~repro.exec.ExecutionEngine`);
        ``cache=True`` is the service default — the shared
        content-addressed cache *is* the multi-tenant story.
    registry:
        Trace-corpus root served to trace-referencing requests and
        uploads.
    quota:
        :class:`ServiceQuota`; ``None`` uses the defaults.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[Any] = None,
        policy: Optional[ExecutionPolicy] = None,
        checkpoint: Optional[RunCheckpoint] = None,
        registry: Optional[str] = None,
        quota: Optional[ServiceQuota] = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.engine = engine if engine is not None else ExecutionEngine(
            jobs=jobs,
            cache=ResultCache(cache_dir) if cache else None,
            policy=policy,
            checkpoint=checkpoint,
        )
        self.registry_root = str(registry) if registry is not None else None
        self.quota = quota if quota is not None else ServiceQuota()
        self._session = Session(engine=self.engine, registry=self.registry_root)
        self._lock = threading.Lock()
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._live_keys: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._wake = threading.Condition(self._lock)
        self._stop = False
        self._interrupted = False
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServiceBackend":
        """Start the worker thread (idempotent)."""
        with self._lock:
            if self._worker is None or not self._worker.is_alive():
                self._stop = False
                self._worker = threading.Thread(target=self._run_loop, name="repro-service-worker", daemon=True)
                self._worker.start()
        return self

    def shutdown(self, timeout: float = 10.0) -> bool:
        """Stop the worker; returns True if work was left unfinished.

        Unfinished jobs fail with a typed ``unavailable`` error so
        blocked waiters unblock; the engine's checkpoint journal (if
        configured) and cache entries persist, which is what makes an
        interrupted run resumable.
        """
        with self._lock:
            self._stop = True
            self._wake.notify_all()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=timeout)
        with self._lock:
            leftovers = [job for job in self._jobs.values() if job.state in ("queued", "running")]
            for job in leftovers:
                job.state = "failed"
                job.error = ServiceError("unavailable", "service shut down before the job finished")
                job.done.set()
            self._queue.clear()
            self._live_keys.clear()
            self._interrupted = self._interrupted or bool(leftovers)
            return self._interrupted

    def __enter__(self) -> "ServiceBackend":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # submission / polling
    # ------------------------------------------------------------------ #
    def _pending_for(self, client: str) -> int:
        # the live jobs are exactly _live_keys' values: they enter at
        # submit and leave at _finish, so finished jobs cost nothing here
        return sum(1 for job in self._live_keys.values() if client in job.clients)

    def submit(self, request: Request) -> JobStatus:
        """Admit one request; raises :class:`ServiceError` on rejection.

        An identical live request coalesces: the returned status points
        at the existing job (``coalesced=True``) and both clients poll
        the same job id.
        """
        request.validate()
        client = getattr(request, "client", "anonymous")
        key = request.content_key()
        with self._lock:
            if self._stop:
                raise ServiceError("unavailable", "service is shutting down")
            live = self._live_keys.get(key)
            if live is not None:
                if client not in live.clients:
                    live.clients.append(client)
                obs_metrics.counter("service.coalesced").inc()
                obs_metrics.counter("service.requests", client=client).inc()
                return live.status(queued_ahead=self._queued_ahead(live), coalesced=True)
            if self._pending_for(client) >= self.quota.max_pending_per_client:
                obs_metrics.counter("service.quota_rejections", client=client).inc()
                raise ServiceError(
                    "quota-exceeded",
                    f"client {client!r} already has {self.quota.max_pending_per_client} live jobs",
                )
            if len(self._queue) >= self.quota.max_queue:
                obs_metrics.counter("service.queue_rejections").inc()
                raise ServiceError("queue-full", f"admission queue is full ({self.quota.max_queue} jobs)")
            job = Job(f"job-{next(self._ids)}", request, key)
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self._live_keys[key] = job
            obs_metrics.counter("service.requests", client=client).inc()
            obs_metrics.counter("service.jobs").inc()
            obs_metrics.gauge("service.queue_depth").record_max(len(self._queue))
            self._wake.notify_all()
            return job.status(queued_ahead=len(self._queue) - 1)

    def _queued_ahead(self, job: Job) -> int:
        try:
            return list(self._queue).index(job)
        except ValueError:
            return 0

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("not-found", f"no job {job_id!r}")
        return job

    def status(self, job_id: str) -> JobStatus:
        """Poll one job's state."""
        with self._lock:
            job = self._get(job_id)
            return job.status(queued_ahead=self._queued_ahead(job))

    def wait(self, job_id: str, timeout: Optional[float] = None) -> RunReply:
        """Block until the job finishes; raises its error if it failed.

        On timeout the reply is the job's *current* state with no rows,
        so pollers can long-poll without an exception per round.
        """
        with self._lock:
            job = self._get(job_id)
        if not job.done.wait(timeout):
            return RunReply(job_id=job.job_id, state=job.state)
        if job.error is not None:
            raise job.error
        assert job.reply is not None
        return job.reply

    def jobs(self) -> List[JobStatus]:
        """Every known job's status, submission order."""
        with self._lock:
            return [job.status(queued_ahead=self._queued_ahead(job)) for job in self._jobs.values()]

    # ------------------------------------------------------------------ #
    # the non-job surfaces (immediate, no queue)
    # ------------------------------------------------------------------ #
    def upload_trace(self, upload: TraceUpload) -> TraceReply:
        """Trace imports run inline: they are I/O-bound and idempotent."""
        reply = self._session.upload_trace(upload)
        obs_metrics.counter("service.trace_uploads", client=upload.client).inc()
        return reply

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ambient registry's deterministic snapshot."""
        return obs_metrics.active().snapshot()

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    def _next_job(self) -> Optional[Job]:
        with self._lock:
            while not self._queue and not self._stop:
                self._wake.wait(timeout=0.5)
            if self._stop:
                return None
            job = self._queue.popleft()
            job.state = "running"
            return job

    def _run_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                reply = execute_request(
                    job.request, self.engine, self.registry_root, job_id=job.job_id
                )
            except ServiceError as exc:
                self._finish(job, error=exc)
            except KeyboardInterrupt:  # pragma: no cover — signal raced into the worker
                self._finish(job, error=ServiceError("unavailable", "interrupted"))
                with self._lock:
                    self._stop = True
                    self._interrupted = True
                return
            except Exception as exc:
                self._finish(job, error=ServiceError("server-error", f"{type(exc).__name__}: {exc}"))
            else:
                self._finish(job, reply=reply)

    def _finish(self, job: Job, reply: Optional[RunReply] = None, error: Optional[ServiceError] = None) -> None:
        with self._lock:
            job.reply = reply
            job.error = error
            job.state = "failed" if error is not None else "done"
            self._live_keys.pop(job.content_key, None)
            if error is not None:
                obs_metrics.counter("service.jobs_failed").inc()
            else:
                obs_metrics.counter("service.jobs_done").inc()
                obs_metrics.counter("service.cells_served").inc(reply.cells)
                obs_metrics.counter("service.cache_hits_served").inc(reply.cache_hits)
            job.done.set()
