"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in
``prepare`` (timed as set-up) and runs one operation per ``op`` call
(timed); ``facts`` reduces an operation's output to the values that are
compared with the expected ones.  Nothing here sets a ``REPRO_*``
backend switch: every run uses the program's defaults.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

import numpy as np

#: Per-size parameters; ``smoke`` is the few-second size the tests use.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "stream-skewed": dict(
            p=1024, head=85, head_jitter=8, head_pages=(20, 28), tail=37_500,
            tail_pages=4096, chunk=4096, miss=8, detpar=32768, randpar=32768, globallru=4096,
        ),
        "batch-pooled": dict(p=64, n=1280, k=256, miss=8, jobs=2),
        "hunt": dict(rounds=1, fresh=0),
        "service-burst": dict(clients=2, shared=8, p=8, n=400, k=32),
    },
    "smoke": {
        "stream-skewed": dict(
            p=64, head=200, head_jitter=16, head_pages=(20, 28), tail=20_000,
            tail_pages=512, chunk=1024, miss=8, detpar=2048, randpar=2048, globallru=256,
        ),
        "batch-pooled": dict(p=8, n=512, k=32, miss=8, jobs=2),
        "hunt": dict(rounds=1, fresh=0),
        "service-burst": dict(clients=2, shared=8, p=8, n=400, k=32),
    },
}


def digest(obj: Any) -> str:
    """Short sha256 of an object's canonical JSON."""
    text = json.dumps(obj, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class StreamSkewed:
    """1.25×10⁵ requests at p=1024 in the Albers–Hellwig shape, streamed
    from a ``.trc`` store through DET-PAR, RAND-PAR and GLOBAL-LRU."""

    name = "stream-skewed"
    algorithms = ("det-par", "rand-par", "global-lru")

    def __init__(self, seed: int, size: str, work: Path) -> None:
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.work = work
        self.store = None
        self.split: Dict[str, float] = {}

    def _workload(self):
        from repro.workloads import ParallelWorkload, cyclic

        c = self.cfg
        rng = np.random.default_rng(self.seed)
        p = c["p"]
        lengths = c["head"] + rng.integers(-c["head_jitter"], c["head_jitter"] + 1, size=p - 1)
        pages = rng.integers(c["head_pages"][0], c["head_pages"][1] + 1, size=p - 1)
        seqs = [
            np.asarray(cyclic(int(n), int(m)), dtype=np.int64) + 32 * i
            for i, (n, m) in enumerate(zip(lengths, pages))
        ]
        tail = np.asarray(cyclic(c["tail"], c["tail_pages"]), dtype=np.int64) + 32 * p
        seqs.insert(int(rng.integers(0, p)), tail)
        return ParallelWorkload(sequences=seqs, name="stream-skewed", allow_shared=True)

    def prepare(self, index: int) -> None:
        from repro.traces.store import write_store

        path = self.work / f"stream-{index}.trc"
        self.store = write_store(path, self._workload(), chunk_rows=self.cfg["chunk"])

    def op(self) -> Dict[str, Any]:
        from repro.core import DetPar, RandPar
        from repro.parallel.streaming import open_streaming
        from repro.parallel.timestep import GlobalLRU

        c = self.cfg
        runs = {
            "det-par": lambda: DetPar(c["detpar"], c["miss"]),
            "rand-par": lambda: RandPar(c["randpar"], c["miss"], np.random.default_rng(0)),
            "global-lru": lambda: GlobalLRU(c["globallru"], c["miss"]),
        }
        results = {}
        for name in self.algorithms:
            t0 = perf_counter()
            results[name] = runs[name]().run(open_streaming(self.store))
            self.split[name] = perf_counter() - t0
        return results

    def facts(self, results) -> Dict[str, Any]:
        out = {}
        for name, res in results.items():
            res.validate()
            out[name] = {
                "makespan": res.makespan,
                "boxes": len(res.trace),
                "completion": hashlib.sha256(res.completion_times.astype(np.int64).tobytes()).hexdigest()[:16],
            }
        return out

    def close(self) -> None:
        pass


class BatchPooled:
    """An in-memory balanced workload through ``run_experiment`` on a
    two-worker pool with a fresh result cache, as ``repro run --jobs 2``."""

    name = "batch-pooled"

    def __init__(self, seed: int, size: str, work: Path) -> None:
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.work = work
        self.workload = None
        self.ops = 0

    def prepare(self, index: int) -> None:
        """The generator's default recipe, with processors shuffled and
        each processor's pages relabelled by the seed.  Relabelling keeps
        every reuse distance, so the work per seed stays nearly the same
        while the bytes (and cache keys) differ."""
        from repro.client.protocol import WorkloadSpec
        from repro.workloads import ParallelWorkload

        c = self.cfg
        base = WorkloadSpec(p=c["p"], n_requests=c["n"], k=c["k"]).build()
        rng = np.random.default_rng(self.seed)
        seqs = []
        for j in rng.permutation(base.p):
            pages, inverse = np.unique(base.sequences[j], return_inverse=True)
            seqs.append(pages[rng.permutation(len(pages))][inverse].astype(np.int64))
        self.workload = ParallelWorkload(
            sequences=seqs, name=f"batch-pooled[seed={self.seed}]", meta=dict(base.meta),
            allow_shared=base.allow_shared,
        )

    def op(self) -> List[Dict[str, Any]]:
        from repro import RunSpec, execution, run_experiment

        c = self.cfg
        self.ops += 1
        specs = [
            RunSpec(algorithm=name, cache_size=2 * c["k"], miss_cost=c["miss"], xi=2)
            for name in ("det-par", "rand-par", "global-lru")
        ]
        with execution(jobs=c["jobs"], cache=True, cache_dir=self.work / f"batch-cache-{self.ops}"):
            rows = run_experiment(self.workload, specs, seeds=(0, 1), include_impact_lb=False)
        return [row.as_dict() for row in rows]

    def facts(self, rows) -> Dict[str, Any]:
        return {"rows": digest(rows), "makespans": [row["makespan"] for row in rows]}

    def close(self) -> None:
        pass


class Hunt:
    """A one-round quick ``AdversarySearch``, run as ``repro hunt --fresh 0``
    runs it: serial, cold result cache, fresh registry.  Without random
    exploration the first round scores the same initial candidates for
    every seed (the seed steers mutations from the second round on), so
    the work per hunt does not depend on the benchmark seed."""

    name = "hunt"

    def __init__(self, seed: int, size: str, work: Path) -> None:
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.work = work
        self.ready: List[Tuple[Any, Path]] = []
        self.prepared = 0

    def prepare(self, index: int) -> None:
        from repro.search.loop import AdversarySearch, HuntConfig
        from repro.traces import TraceRegistry

        self.prepared += 1
        root = self.work / f"hunt-{self.prepared}"
        config = HuntConfig(seed=self.seed, rounds=self.cfg["rounds"], fresh=self.cfg["fresh"])
        search = AdversarySearch.start(
            config, runs_root=root / "runs", run_id="hunt", registry=TraceRegistry(root / "registry")
        )
        self.ready.append((search, root))

    def op(self) -> Dict[str, Any]:
        from repro import execution

        search, root = self.ready.pop(0)
        with execution(jobs=1, cache=True, cache_dir=root / "cache", checkpoint=search.checkpoint):
            state = search.run()
        return state.to_dict()

    def facts(self, state) -> Dict[str, Any]:
        return {"commits": [c["digest"][:16] for c in state["committed"]], "state": digest(state)}

    def needs_prepare(self) -> bool:
        return not self.ready

    def close(self) -> None:
        pass


class ServiceBurst:
    """A ``ServiceServer`` on an ephemeral localhost port, configured as
    ``repro serve`` configures it, driven by a closed loop of
    ``HttpSession`` clients (one thread each).  Four requests in five go
    to a pool of shared cells, one in five is a cell no one asked before."""

    name = "service-burst"

    def __init__(self, seed: int, size: str, work: Path) -> None:
        from repro.obs.runtime import observability

        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.work = work
        self.live = None
        self.servers: List[LiveServer] = []
        self.scripts: List[Any] = []
        self._obs = observability(metrics=True)
        self._obs.__enter__()
        self.expected_rows: Dict[str, str] = {}

    def request(self, workload_seed: int, client: str = "anonymous"):
        from repro.client.protocol import RunRequest, WorkloadSpec

        c = self.cfg
        return RunRequest(
            algorithms=("det-par", "global-lru"),
            cache_size=64,
            miss_cost=8,
            xi=2,
            seeds=(0, 1),
            workload=WorkloadSpec(p=c["p"], n_requests=c["n"], k=c["k"], workload_seed=workload_seed),
            client=client,
        )

    def script(self, client: int):
        """The seeded, endless request sequence of one client: every fifth
        request is a new cell, the others a seeded pick of a shared one."""
        rng = np.random.default_rng([self.seed, client])
        index = 0
        while True:
            index += 1
            if index % 5:
                yield self.request(self.seed * 1000 + int(rng.integers(0, self.cfg["shared"])), f"bench-{client}")
            else:
                yield self.request(10**9 + self.seed * 10**6 + client * 10**5 + index, f"bench-{client}")

    def prepare(self, index: int) -> None:
        """A cold server, and the clients' scripts from their start."""
        self.servers.append(LiveServer(self.work / f"service-{index}"))
        self.live = self.servers[-1]
        self.scripts = [self.script(i) for i in range(self.cfg["clients"])]

    def trim(self) -> None:
        """Stop every server but the newest (untimed, after a set-up)."""
        while len(self.servers) > 1:
            self.servers.pop(0).stop()

    def burst(self, seconds: float, threads: set) -> Dict[str, Any]:
        """Run the closed loop for ``seconds``, each client going on with
        its script where the previous burst left it; ``threads`` collects
        the client thread ids (the traced run times work on them)."""
        import threading

        from repro.client.protocol import ServiceError
        from repro.client.session import HttpSession

        lock = threading.Lock()
        latencies: List[float] = []
        replies: List[Tuple[Any, Any]] = []
        errors: List[str] = []
        deadline = perf_counter() + seconds

        def client(i: int) -> None:
            threads.add(threading.get_ident())
            session = HttpSession(self.live.url, client=f"bench-{i}", timeout=120.0)
            while perf_counter() < deadline:
                request = next(self.scripts[i])
                t0 = perf_counter()
                try:
                    reply = session.run(request)
                except ServiceError as exc:  # HTTP errors and refusals
                    with lock:
                        errors.append(f"{exc.code}: {exc.message}")
                    continue
                except Exception as exc:  # anything else is a failed request too
                    with lock:
                        errors.append(repr(exc))
                    continue
                dt = perf_counter() - t0
                with lock:
                    latencies.append(dt)
                    replies.append((request, reply.rows))

        workers = [threading.Thread(target=client, args=(i,)) for i in range(self.cfg["clients"])]
        t0 = perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = perf_counter() - t0
        return {
            "latencies": latencies,
            "replies": replies,
            "errors": errors,
            "wall": wall,
        }

    def reference(self, request) -> str:
        """Rows of ``request`` run through an in-process ``Session``."""
        import dataclasses

        from repro.client.session import Session

        key = request.content_key()
        if key not in self.expected_rows:
            rows = Session().run(dataclasses.replace(request, client="anonymous")).rows
            self.expected_rows[key] = digest(json.loads(json.dumps(list(rows), default=float)))
        return self.expected_rows[key]

    def facts(self) -> Dict[str, Any]:
        shared = [self.reference(self.request(self.seed * 1000 + j)) for j in range(self.cfg["shared"])]
        return {"shared": digest(shared)}

    def mismatches(self, replies, errors) -> Tuple[int, int]:
        """``(checked, failed)`` over every reply and every error."""
        failed = len(errors)
        for request, rows in replies:
            if digest(list(rows)) != self.reference(request):
                failed += 1
        return len(replies) + len(errors), failed

    def close(self) -> None:
        while self.servers:
            self.servers.pop().stop()
        self.live = None
        self._obs.__exit__(None, None, None)


class LiveServer:
    """A backend plus HTTP server on an event-loop thread, with one
    ``/v1/health`` probe, as ``repro serve --port 0`` starts it."""

    def __init__(self, root: Path) -> None:
        import asyncio
        import threading

        from repro.client.session import HttpSession
        from repro.exec.checkpoint import RunCheckpoint
        from repro.service.backend import ServiceBackend, ServiceQuota
        from repro.service.server import ServiceServer

        cache = root / "cache"
        self.checkpoint = RunCheckpoint.start(
            ["service"], {"serve": True, "jobs": 1, "cache_dir": str(cache)}, root=root / "runs", run_id="service"
        )
        self.backend = ServiceBackend(
            jobs=1, cache=True, cache_dir=cache, checkpoint=self.checkpoint, quota=ServiceQuota()
        )
        self.server = ServiceServer(self.backend, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(30)
        HttpSession(self.url, timeout=30.0).health()

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self) -> None:
        import asyncio

        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()
        self.backend.shutdown(timeout=30)
        self.checkpoint.mark_status("complete")


WORKLOADS = {cls.name: cls for cls in (StreamSkewed, BatchPooled, Hunt, ServiceBurst)}
