"""Which calls the traced run times, and the per-layer metrics it reports.

Each site names the module, the class (empty for a module-level name)
and the attribute to wrap.  A name that a caller binds at import time
(``from .x import f``) is wrapped where that caller looks it up, which
is why some functions appear under two modules.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

from tracer import Stat, Tracer


def _box(tracer: Tracer, st: Stat, args, kwargs, run) -> None:
    served = run.end - run.start
    st.add("served", served)
    if served == 0:
        st.add("empty", 1)


def _units(tracer: Tracer, st: Stat, args, kwargs, result) -> None:
    st.add("units", len(args[1]))


def _segments(tracer: Tracer, st: Stat, args, kwargs, result) -> None:
    st.add("shm", len(args[0]._segments))


def _hit(tracer: Tracer, st: Stat, args, kwargs, result) -> None:
    if result[0]:
        st.add("hits", 1)


def _cache_bytes(tracer: Tracer, st: Stat, args, kwargs, result) -> None:
    cache, key = args[0], args[1]
    try:
        st.add("bytes", cache._path(key).stat().st_size)
    except OSError:
        pass


def _store_bytes(tracer: Tracer, st: Stat, args, kwargs, store) -> None:
    try:
        st.add("bytes", store.path.stat().st_size)
    except OSError:
        pass


def _submitted(tracer: Tracer, st: Stat, args, kwargs, status) -> None:
    if status.coalesced:
        st.add("coalesced", 1)
    else:
        tracer.marks.setdefault(status.job_id, perf_counter())


def _job_done(tracer: Tracer, st: Stat, args, kwargs, reply) -> None:
    submitted = tracer.marks.pop(kwargs.get("job_id", ""), None)
    if submitted is not None:
        # the job started ``elapsed_s`` before it returned; the queue
        # wait is everything between its submission and that start
        st.add("queue_wait", max(0.0, perf_counter() - reply.elapsed_s - submitted))


#: (module, class or "", attribute, stat name, "call" or "gen", hook)
SITES: Tuple[Tuple[str, str, str, str, str, Optional[Callable]], ...] = (
    # box kernel
    ("repro.paging.kernel", "StreamKernel", "box", "kernel.box", "call", _box),
    ("repro.paging.kernel", "SequenceKernel", "box", "kernel.box", "call", _box),
    ("repro.paging.kernel", "StreamKernel", "append", "kernel.append", "call", None),
    ("repro.paging.kernel", "StreamKernel", "compact", "kernel.compact", "call", None),
    ("repro.paging.kernel", "SequenceKernel", "__init__", "kernel.sweep", "call", None),
    # trace feed and store
    ("repro.parallel.streaming", "BoxFeed", "serve", "feed.serve", "call", None),
    ("repro.parallel.streaming", "BoxFeed", "ensure", "feed.ensure", "call", None),
    ("repro.traces.store", "TraceStore", "iter_chunks", "store.chunks", "gen", None),
    ("repro.traces.store", "TraceStore", "__init__", "store.open", "call", None),
    ("repro.traces.store", "StoreWriter", "close", "store.write", "call", _store_bytes),
    # scheduler and admission
    ("repro.parallel.events", "EventScheduler", "schedule", "events.schedule", "call", None),
    ("repro.parallel.events", "EventScheduler", "pop", "events.pop", "call", None),
    ("repro.core.det_par", "DetPar", "run", "sim.run", "call", None),
    ("repro.core.rand_par", "RandPar", "run", "sim.run", "call", None),
    ("repro.parallel.timestep", "GlobalLRU", "run", "sim.run", "call", None),
    ("repro.parallel.streaming", "BoxServer", "serve", "sim.serve", "call", None),
    ("repro.paging.lru", "LRUCache", "touch", "lru.touch", "call", None),
    # offline bounds
    ("repro.green.offline", "", "optimal_box_profile", "dp", "call", None),
    ("repro.parallel.opt", "", "optimal_box_profile", "dp", "call", None),
    ("repro.parallel.opt", "", "makespan_lower_bound", "lb", "call", None),
    # pool and handoff
    ("repro.exec.engine", "ExecutionEngine", "run", "engine.run", "call", _units),
    ("repro.exec.engine", "ExecutionEngine", "_run_pooled", "engine.wait", "call", None),
    ("repro.exec.handoff", "HandoffManager", "prepare_batch", "handoff.prepare", "call", _segments),
    ("repro.exec.handoff", "HandoffManager", "close", "handoff.close", "call", None),
    ("repro.traces.store", "", "spill_workload", "handoff.spill", "call", None),
    # result cache
    ("repro.exec.cache", "ResultCache", "load", "cache.load", "call", _hit),
    ("repro.exec.cache", "ResultCache", "store", "cache.store", "call", _cache_bytes),
    ("repro.exec.units", "WorkUnit", "key", "unit.key", "call", None),
    # HTTP and service
    ("repro.client.session", "HttpSession", "run", "http.roundtrip", "call", None),
    ("repro.service.backend", "ServiceBackend", "submit", "backend.submit", "call", _submitted),
    ("repro.service.backend", "", "execute_request", "backend.job", "call", _job_done),
    # adversary search
    ("repro.search.loop", "", "random_config", "search.propose", "call", None),
    ("repro.search.loop", "", "mutate", "search.propose", "call", None),
    ("repro.search.loop", "", "crossover", "search.propose", "call", None),
    ("repro.search.loop", "", "coordinate_probes", "search.propose", "call", None),
    ("repro.search.loop", "AdversarySearch", "_evaluate", "search.eval", "call", None),
    ("repro.search.loop", "", "commit_hard_instance", "search.commit", "call", None),
    ("repro.search.loop", "AdversarySearch", "save_state", "search.state_save", "call", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every site; :meth:`Tracer.restore` takes the wrappers out."""
    for module, cls, attr, name, mode, hook in SITES:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        if mode == "gen":
            wrapper = tracer.wrap_generator(name, original)
        else:
            wrapper = tracer.wrap(name, original, hook)
        tracer.replace(owner, attr, wrapper)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Counts, seconds and bytes are per traced operation; fractions and
    means are over all calls.  A layer the workload never enters reads 0.
    """
    per = 1.0 / max(1, ops)
    empty = Stat()

    def g(name: str) -> Stat:
        return tracer.stats.get(name, empty)

    box, feed, ensure = g("kernel.box"), g("feed.serve"), g("feed.ensure")
    pop, run, serve = g("events.pop"), g("sim.run"), g("sim.serve")
    load, store, write = g("cache.load"), g("cache.store"), g("store.write")
    trip, job, submit = g("http.roundtrip"), g("backend.job"), g("backend.submit")
    queue_wait = job.extra.get("queue_wait", 0.0)
    out: Dict[str, Tuple[float, str]] = {}
    for prefix, name in (
        ("kernel.append", "kernel.append"),
        ("kernel.compact", "kernel.compact"),
        ("kernel.sweep", "kernel.sweep"),
        ("feed.serve", "feed.serve"),
        ("feed.ensure", "feed.ensure"),
        ("store.open", "store.open"),
        ("store.write", "store.write"),
        ("sim.serve", "sim.serve"),
        ("lru.touch", "lru.touch"),
        ("dp", "dp"),
        ("lb", "lb"),
        ("engine.run", "engine.run"),
        ("cache.load", "cache.load"),
        ("cache.store", "cache.store"),
        ("search.commit", "search.commit"),
    ):
        out[f"{prefix}.calls"] = (g(name).calls * per, "count")
        out[f"{prefix}.s"] = (g(name).total * per, "s")
    out.update(
        {
            "kernel.box.calls": (box.calls * per, "count"),
            "kernel.box.s": (box.total * per, "s"),
            "kernel.box.served_mean": (_ratio(box.extra.get("served", 0.0), box.calls), "count"),
            "kernel.box.empty_frac": (_ratio(box.extra.get("empty", 0.0), box.calls), "fraction"),
            "feed.self_s": ((feed.self_s + ensure.self_s) * per, "s"),
            "store.chunks": (g("store.chunks").calls * per, "count"),
            "store.chunks.s": (g("store.chunks").total * per, "s"),
            "store.write.bytes": (write.extra.get("bytes", 0.0) * per, "B"),
            "events.schedule.calls": (g("events.schedule").calls * per, "count"),
            "events.pop.calls": (pop.calls * per, "count"),
            "events.s": ((g("events.schedule").total + pop.total) * per, "s"),
            "events.useful_frac": (_ratio(serve.calls, pop.calls), "fraction"),
            "sim.run.s": (run.total * per, "s"),
            "sim.self_s": (run.self_s * per, "s"),
            "engine.units": (g("engine.run").extra.get("units", 0.0) * per, "count"),
            "engine.wait_s": (g("engine.wait").total * per, "s"),
            "handoff.prepare.s": (g("handoff.prepare").total * per, "s"),
            "handoff.close.s": (g("handoff.close").total * per, "s"),
            "handoff.spilled": (g("handoff.spill").calls * per, "count"),
            "handoff.shm": (g("handoff.prepare").extra.get("shm", 0.0) * per, "count"),
            "cache.hit_frac": (_ratio(load.extra.get("hits", 0.0), load.calls), "fraction"),
            "cache.store.bytes": (store.extra.get("bytes", 0.0) * per, "B"),
            "unit.key.s": (g("unit.key").total * per, "s"),
            "http.roundtrip.s": (trip.total * per, "s"),
            "backend.submit.s": (submit.total * per, "s"),
            "backend.queue_wait.s": (queue_wait * per, "s"),
            "backend.job.s": (job.total * per, "s"),
            "http.overhead.s": (max(0.0, trip.total - queue_wait - job.total) * per, "s"),
            "service.coalesced": (submit.extra.get("coalesced", 0.0) * per, "count"),
            "search.propose.s": (g("search.propose").total * per, "s"),
            "search.eval.s": (g("search.eval").total * per, "s"),
            "search.state_save.s": (g("search.state_save").total * per, "s"),
        }
    )
    return out
