"""Benchmark command: one workload, end to end or layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream-skewed --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` first runs the workload untraced, then again with every
layer's public calls timed, and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program runs with its defaults: no ``REPRO_*`` backend switch is
set here, and the resolved backends are printed as provenance.

End-to-end times are host-calibrated (see :class:`HostSpeed`); each run
also prints its median operation in wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) while
#: the set-ups so far took under SETUP_BUDGET seconds, so that a cheap
#: set-up is reported as the median of many.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 7, 15, 0.25
#: One reference pass on an unloaded 2-vCPU host, so that calibrated
#: times read as wall times on such a host.
REFERENCE_S = 0.008
#: Seconds of reference passes at each calibration point; a neighbour on
#: the shared host slowed passes in cycles of about 0.25 s.
CALIBRATION_S = 0.25
#: Operations are calibrated in groups of at least this many seconds.
GROUP_S = 2.0
#: The service's closed loop runs in segments this long, with a
#: calibration point between segments.
SEGMENT_S = 4.0

#: name -> (unit, better) for the untraced run, in print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Tracers whose wrappers a forked pool worker must take out again.
_ACTIVE: List[Any] = []


def _restore_in_child() -> None:
    for tracer in _ACTIVE:
        tracer.restore()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


class Checker:
    """Compares each operation's facts with the expected ones.

    With no committed values for the seed, the first operation's facts
    become the expected values for the rest of the invocation.
    """

    def __init__(self, expected: Optional[Dict[str, Any]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def compare(self, facts_of: Callable[[], Dict[str, Any]]) -> None:
        try:
            facts = json.loads(json.dumps(facts_of(), default=float))
        except AssertionError as exc:  # ParallelRunResult.validate()
            self.attempted += 1
            self.failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
            return
        if self.expected is None:
            self.expected = facts
        for key in sorted(set(facts) | set(self.expected)):
            self.attempted += 1
            if facts.get(key) != self.expected.get(key):
                self.failed += 1
                print(
                    f"check failed: {key}: got {facts.get(key)!r}, expected {self.expected.get(key)!r}",
                    file=sys.stderr,
                )

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


class HostSpeed:
    """Calibrates wall times against a fixed reference loop.

    On the shared host the benchmark was written on, the same stream pass
    took 1.5 s or 2.7 s minutes apart, with the process's CPU time
    tracking its wall time.  A reference loop (Python dict and integer
    work plus NumPy sorts, as the program mixes per-box Python with array
    kernels) slowed with it: over 50 passes, the pass time varied by 23%
    (IQR over median) and the pass time over the loop's time at its two
    ends by 8%.  So a span between two calibration points is scaled by
    ``REFERENCE_S`` over the loop's mean pass time at both points.  The
    loop does not run the program, so a slower program still reads
    slower.
    """

    def __init__(self) -> None:
        self.data = np.random.default_rng(0).integers(0, 1 << 30, size=40_000)
        self.last = self._point()

    def _pass(self) -> float:
        t0 = perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(40_000):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        for _ in range(6):
            np.sort(self.data)
        return perf_counter() - t0

    def _point(self) -> List[float]:
        passes = []
        end = perf_counter() + CALIBRATION_S
        while perf_counter() < end:
            passes.append(self._pass())
        return passes

    def scale(self) -> float:
        """Take a calibration point; return the factor for the span since the previous one."""
        before, self.last = self.last, self._point()
        return REFERENCE_S / statistics.fmean(before + self.last)


def run_ops(wl, seconds: float, checker: Checker, setups: List[float]) -> Dict[str, Any]:
    """Run operations until their wall time reaches ``seconds``.

    A calibration point follows each group of operations that took at
    least ``GROUP_S`` of wall time; the group's operations, and any set-up
    made among them, share its factor.
    """
    speed = HostSpeed()
    latencies: List[float] = []
    raw: List[float] = []
    group: List[float] = []
    group_setups: List[float] = []
    while True:
        if getattr(wl, "needs_prepare", lambda: False)():
            t0 = perf_counter()
            wl.prepare(len(setups) + len(group_setups))
            group_setups.append(perf_counter() - t0)
        t0 = perf_counter()
        out = wl.op()
        group.append(perf_counter() - t0)
        checker.compare(lambda: wl.facts(out))
        del out  # not alive during the next operation, so peak memory is one operation's
        done = sum(raw) + sum(group) >= seconds
        if done or sum(group) >= GROUP_S:
            factor = speed.scale()
            raw += group
            latencies += [dt * factor for dt in group]
            setups += [dt * factor for dt in group_setups]
            group, group_setups = [], []
        if done:
            break
    return {"latencies": latencies, "raw": raw, "wall": sum(raw), "calibrated_wall": sum(latencies)}


def run_burst(wl, seconds: float, checker: Checker, threads: set, after: Callable[[], None]) -> Dict[str, Any]:
    """The service workload's closed loop, in calibrated segments; its
    operations are requests."""
    speed = HostSpeed()
    latencies: List[float] = []
    raw: List[float] = []
    replies: List[Tuple[Any, Any]] = []
    errors: List[str] = []
    wall = calibrated_wall = 0.0
    while wall < seconds:
        burst = wl.burst(min(SEGMENT_S, seconds - wall), threads)
        factor = speed.scale()
        raw += burst["latencies"]
        latencies += [dt * factor for dt in burst["latencies"]]
        wall += burst["wall"]
        calibrated_wall += burst["wall"] * factor
        replies += burst["replies"]
        errors += burst["errors"]
    after()  # checks run untraced
    checker.count(*wl.mismatches(replies, errors))
    checker.compare(wl.facts)
    if not latencies:
        raise RuntimeError(f"no request completed: {errors[:3]}")
    return {"latencies": latencies, "raw": raw, "wall": wall, "calibrated_wall": calibrated_wall}


def measure(wl, seconds: float, checker: Checker, setups: List[float], threads: set, after=lambda: None):
    if hasattr(wl, "burst"):
        return run_burst(wl, seconds, checker, threads, after)
    result = run_ops(wl, seconds, checker, setups)
    after()
    return result


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(run: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    lat = run["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": percentile(lat, 90) * 1000.0,
        "ops_per_s": len(lat) / run["calibrated_wall"],
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(wl, seconds: float, checker: Checker, setups: List[float]) -> Dict[str, Tuple[float, str]]:
    """Untraced reference, then the traced run; per-layer metrics per operation."""
    from layers import install, layer_metrics
    from tracer import Tracer

    ref = measure(wl, seconds, checker, setups, set())
    split = {f"untraced.{name.replace('-', '')}_req_per_s": s for name, s in getattr(wl, "split", {}).items()}
    tracer = Tracer()
    if hasattr(wl, "burst"):
        wl.prepare(len(setups))  # a cold server again, as the reference had
        wl.trim()
    else:
        tracer.load_threads.add(threading.get_ident())
    install(tracer)
    _ACTIVE.append(tracer)

    def untrace() -> None:
        tracer.restore()
        _ACTIVE.clear()

    try:
        traced = measure(wl, seconds, checker, setups, tracer.load_threads, after=untrace)
    finally:
        untrace()
    # layer seconds are wall time, so trace.op_s and unattributed_s are too;
    # the overhead compares calibrated times
    ops = len(traced["raw"])
    metrics = layer_metrics(tracer, ops)
    metrics["trace.op_s"] = (traced["wall"] / ops, "s")
    if hasattr(wl, "burst"):  # requests: compare mean time per request
        overhead = (traced["calibrated_wall"] / ops) / (ref["calibrated_wall"] / len(ref["raw"])) - 1.0
        busy = wl.cfg["clients"] * traced["wall"]
    else:
        overhead = statistics.median(traced["latencies"]) / statistics.median(ref["latencies"]) - 1.0
        busy = traced["wall"]
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["unattributed_s"] = (max(0.0, busy - tracer.covered) / ops, "s")
    total = getattr(wl, "store", None)
    for name in ("untraced.detpar_req_per_s", "untraced.randpar_req_per_s", "untraced.globallru_req_per_s"):
        seconds_used = split.get(name)
        value = total.total_requests / seconds_used if seconds_used else 0.0
        metrics[name] = (value, "1/s")
    return metrics


def provenance() -> Dict[str, Any]:
    """What ran: resolved backends, machine, versions, commit, ``src/`` size."""
    import platform

    import numpy

    from repro.paging.kernel import kernel_backend, native_flavor
    from repro.parallel.events import sim_backend

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "kernel_backend": kernel_backend(),
        "native_flavor": native_flavor(),
        "sim_backend": sim_backend(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def load_expected(path: Path, size: str, workload: str, seed: int) -> Optional[Dict[str, Any]]:
    data = json.loads(path.read_text())
    return data.get(size, {}).get(workload, {}).get(str(seed))


def run(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    from workloads import WORKLOADS

    checker = Checker(load_expected(args.expected, args.size, args.workload, args.seed))
    wl = WORKLOADS[args.workload](args.seed, args.size, work)
    setups: List[float] = []
    try:
        # the stream's set-up ends in an fsync; flush what earlier runs left
        # dirty (their deleted scratch files) so that it is not timed here
        os.sync()
        speed = HostSpeed()
        raw_setups: List[float] = []
        while len(raw_setups) < SETUP_MIN or (len(raw_setups) < SETUP_MAX and sum(raw_setups) < SETUP_BUDGET):
            t0 = perf_counter()
            wl.prepare(len(raw_setups))
            raw_setups.append(perf_counter() - t0)
            getattr(wl, "trim", lambda: None)()
        factor = speed.scale()  # one factor for all set-ups, from points before and after them
        setups += [dt * factor for dt in raw_setups]
        if not hasattr(wl, "burst"):
            # one untimed, checked operation first, so that imports and the
            # first pool start are not timed
            out = wl.op()
            checker.compare(lambda: wl.facts(out))
            del out
        if args.trace:
            values = per_layer(wl, args.seconds, checker, setups)
        else:
            run_ = measure(wl, args.seconds, checker, setups, set())
            e2e = end_to_end(run_, setups)
            values = {name: (e2e[name], unit) for name, (unit, _) in END_TO_END.items()}
            raw = run_["raw"]
            print(f"{args.workload}: {len(raw)} operations in {run_['wall']:.2f} s wall, {len(setups)} set-ups; "
                  f"median operation {statistics.median(raw) * 1000:.1f} ms wall, "
                  f"{e2e['op_p50_ms']:.1f} ms calibrated (fastest {min(raw):.3f} s, slowest {max(raw):.3f} s wall)")
    finally:
        wl.close()
    for name, (value, unit) in values.items():
        better = END_TO_END.get(name, (unit, ""))[1]
        print(f"  {name:32s} {value:14.6g} {unit:9s} {better + ' is better' if better else ''}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream-skewed", "batch-pooled", "hunt", "service-burst"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs are built from it)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured operation time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    # scratch files (pool handoff spills, the native build cache) stay
    # inside the checkout
    work_root = HERE / "_work"
    tmp = work_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path[:0] = [str(src), str(HERE)]
    os.register_at_fork(after_in_child=_restore_in_child)

    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        print(json.dumps({"provenance": provenance()}, sort_keys=True))
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
