#!/usr/bin/env python
"""Multicore cache scheduling: heterogeneous programs, every algorithm.

The scenario the paper's introduction motivates: a multicore runs programs
with wildly different cache appetites — a streaming scan (no reuse), a
Zipf-skewed key-value lookup loop, tight compute kernels cycling over
moderate working sets, and a phase-changing analytics job.  The scheduler
must decide *dynamically* who gets how much of the shared cache.

The script:

1. characterizes each program with its LRU miss-ratio curve (the marginal
   benefit of cache the scheduler has to reason about);
2. runs all six algorithms on the shared cache;
3. reports makespan and mean completion against certified lower bounds.

Run:  python examples/multicore_scheduling.py
"""

import numpy as np

from repro import ParallelWorkload, RunSpec, make_algorithm, makespan_lower_bound, mean_completion_lower_bound, miss_ratio_curve, summarize
from repro.analysis import render_table
from repro.workloads import cyclic, mixed_locality, phased_working_sets, scan, zipf

K_OPT = 64
XI = 2
S = 48
SEED = 7

ALGORITHMS = [
    "det-par",
    "rand-par",
    "black-box-green",
    "equal-partition",
    "best-static-partition",
    "global-lru",
]


def build_workload(rng: np.random.Generator) -> ParallelWorkload:
    n = 800
    programs = {
        "stream-backup": scan(n),
        "kv-lookup": zipf(n, 4 * K_OPT, 1.2, rng),
        "stencil-kernel": cyclic(n, K_OPT // 2),
        "fft-kernel": cyclic(n, K_OPT // 8),
        "analytics": phased_working_sets(8, n // 8, K_OPT // 2, rng),
        "web-cache": mixed_locality(n, rng, hot_pages=K_OPT // 4, cold_pages=8 * K_OPT),
        "compiler": phased_working_sets(4, n // 4, K_OPT // 4, rng, overlap=0.5),
        "telemetry": scan(n),
    }
    wl = ParallelWorkload.from_local(list(programs.values()), name="multicore-mix")
    wl.meta["programs"] = list(programs)
    return wl


def characterize(wl: ParallelWorkload) -> None:
    print("per-program cache appetite (LRU miss ratio at increasing cache):")
    rows = []
    for name, seq in zip(wl.meta["programs"], wl.sequences):
        curve = miss_ratio_curve(seq, max_capacity=K_OPT)
        rows.append(
            {
                "program": name,
                "distinct_pages": int(len(np.unique(seq))),
                **{f"mr@{c}": round(curve.miss_ratio(c), 2) for c in (4, 16, 64)},
            }
        )
    print(render_table(rows))


def main() -> None:
    rng = np.random.default_rng(SEED)
    wl = build_workload(rng)
    characterize(wl)

    lb = makespan_lower_bound(wl, k=K_OPT, miss_cost=S)
    mean_lb = mean_completion_lower_bound(wl, k=K_OPT, miss_cost=S)
    print(f"lower bounds: makespan >= {lb.value}, mean completion >= {mean_lb:.0f}\n")

    rows = []
    for name in ALGORITHMS:
        alg = make_algorithm(RunSpec(name, cache_size=XI * K_OPT, miss_cost=S, xi=XI, seed=SEED))
        rows.append(summarize(alg.run(wl), makespan_lb=lb, mean_lb=mean_lb).as_dict())
    print(
        render_table(
            rows,
            columns=["algorithm", "makespan", "makespan_ratio", "mean_completion", "mean_completion_ratio", "utilization"],
            title="shared-cache scheduling, 8 heterogeneous programs",
        )
    )
    print(
        "DET-PAR and RAND-PAR are oblivious: they never look at hits/misses,\n"
        "yet stay within the paper's O(log p) guardrail on every workload —\n"
        "including ones (see examples/adversarial_lower_bound.py) where the\n"
        "naive baselines degrade badly."
    )


if __name__ == "__main__":
    main()
