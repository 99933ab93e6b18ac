"""Paging-as-a-service: the async network frontend over the engine.

* :mod:`~repro.service.backend` — :class:`ServiceBackend`: the shared
  multi-tenant :class:`~repro.exec.ExecutionEngine` behind admission
  control (bounded queue), per-client quotas, request coalescing, and
  metrics accounting;
* :mod:`~repro.service.server` — :class:`ServiceServer`, a handcrafted
  stdlib-asyncio HTTP frontend (``repro serve``), plus
  :func:`run_server` with SIGTERM-to-resumable-checkpoint semantics;
* :mod:`~repro.service.loadgen` — the concurrent load generator and
  latency/throughput benchmark behind ``BENCH_service.json``, run as
  ``python -m repro.service.loadgen``.  It is not imported here, so
  running it as a module executes it once.

Clients speak :mod:`repro.client`: the same typed request/reply
dataclasses work in-process and over the wire.
"""

from .backend import Job, ServiceBackend, ServiceQuota
from .server import ServiceServer, run_server

__all__ = [
    "Job",
    "ServiceBackend",
    "ServiceQuota",
    "ServiceServer",
    "run_server",
]
