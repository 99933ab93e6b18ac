"""Call timing for the traced benchmark run.

Each wrapper times one public function of a layer and keeps a
per-thread stack, so a call's *self* time leaves out the timed calls
nested inside it.  The wrappers are put in place for the traced run
only and taken out after it; the program itself is not changed.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Stat:
    """Totals for one timed call site."""

    __slots__ = ("calls", "total", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.extra: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


class Tracer:
    """Per-site stats plus the wall time covered on the load threads."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.lock = threading.Lock()
        self.local = threading.local()
        self.load_threads: set = set()
        self.covered = 0.0
        self.marks: Dict[str, float] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _stack(self) -> List[float]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _close(self, st: Stat, stack: List[float], dt: float) -> None:
        child = stack.pop()
        with self.lock:
            st.calls += 1
            st.total += dt
            st.self_s += dt - child
            if stack:
                stack[-1] += dt
            elif threading.get_ident() in self.load_threads:
                self.covered += dt

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Time ``fn``; ``hook(tracer, stat, args, kwargs, result)`` may
        record extra facts from the arguments or the return value."""
        st = self.stat(name)
        tracer = self

        def timed(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(st, stack, perf_counter() - t0)
            if hook is not None:
                with tracer.lock:
                    hook(tracer, st, args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time every ``next()`` on the generator ``fn`` returns."""
        st = self.stat(name)
        tracer = self

        def timed(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    stack.pop()
                    return
                except BaseException:
                    tracer._close(st, stack, perf_counter() - t0)
                    raise
                tracer._close(st, stack, perf_counter() - t0)
                yield item

        timed.__wrapped__ = fn
        return timed

    def replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr`` to ``wrapper`` until :meth:`restore`."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
