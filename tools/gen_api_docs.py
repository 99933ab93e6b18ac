#!/usr/bin/env python
"""Generate docs/API.md: the public surface, one line per item.

Walks the package, collects every public function/class defined in repro
(with its signature and first docstring line), and writes a browsable
index.  Run after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

PACKAGES = [
    "repro.paging",
    "repro.green",
    "repro.core",
    "repro.parallel",
    "repro.workloads",
    "repro.traces",
    "repro.analysis",
    "repro.exec",
    "repro.obs",
    "repro.search",
    "repro.client",
    "repro.service",
]

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"

# Hand-maintained prose that the generator re-emits verbatim, so narrative
# docs survive regeneration.
PREAMBLE = """\
## Execution engine & caching

Every experiment decomposes into independent **work units** — one
`(algorithm, workload, seed)` simulation, one lower-bound DP, one
green-paging replicate — that `repro.exec` runs through an
`ExecutionEngine`:

- **Stable runner API.** Configure a run with a frozen
  `RunSpec(algorithm, cache_size, miss_cost, xi, seed)` and pass it (or a
  list of them) to `make_algorithm` / `run_experiment`; `sweep_p` builds
  the specs for you.  Rows come back as `ExperimentRow`, whose `as_dict()`
  carries a `schema_version` field so CSV/Markdown exports are
  self-describing.  Both take `RunSpec`s only: the historical
  positional signatures (`make_algorithm(name, cache_size, miss_cost,
  seed)`, `run_experiment(workload, names, k, miss_cost, ...)`) are
  gone.
- **Parallelism.** `repro <exp> --jobs N` (or
  `with execution(jobs=N): ...` in code) fans units out over a
  `ProcessPoolExecutor`; results are collected in input order, so tables
  are row-for-row identical to serial runs.  Pool start-up failures
  degrade to serial execution with a warning.
- **Content-addressed result cache.** With caching enabled (the CLI
  default; `--no-cache` opts out), each unit's outcome is pickled under
  `.repro_cache/<key[:2]>/<key>.pkl`, where the key is a SHA-256 over the
  unit kind, a `CACHE_VERSION`, and a canonical encoding of its
  parameters (request sequences are hashed by content).  Any change to
  the workload, seed, or parameters changes the key; bumping
  `CACHE_VERSION` invalidates everything at once.  Override the location
  with `--cache-dir` or `$REPRO_CACHE_DIR`; inspect or empty it with
  `repro cache stats` / `repro cache clear`.
- **Telemetry.** Every executed (or cache-served) cell is recorded —
  kind, key, cache hit/miss, duration, simulated steps.  A one-line
  summary is appended to each experiment report, and
  `--telemetry runs.jsonl` dumps the raw records as JSON lines.

Library calls outside any `execution(...)` scope stay serial and
cache-less, so tests and ad-hoc experiments are hermetic by default.

## Failure semantics & resume

Long sweeps survive crashing, hanging, and flaky cells instead of losing
hours of compute to one bad unit:

- **Execution policy.** `ExecutionPolicy(timeout_s, retries, backoff_s,
  backoff_multiplier, jitter, keep_going)` governs each unit: a
  per-attempt wall-clock budget, bounded retries with exponential
  backoff, and jitter that is *deterministic per unit key* so reruns
  back off identically.  The CLI exposes the knobs as `--timeout`,
  `--retries`, and `--backoff`.  Serial and pooled execution share the
  same retry loop, so failure behavior does not depend on `--jobs`.
- **Crash & hang recovery.** A worker that dies (`BrokenProcessPool`)
  costs the in-flight units one attempt each; the pool is rebuilt and
  only the lost units are resubmitted.  A unit that exceeds
  `timeout_s` is failed with `UnitTimeoutError`, its hung worker is
  terminated, and innocent in-flight units are resubmitted *without*
  burning an attempt.
- **Graceful degradation.** Under `--keep-going` a cell that exhausts
  its retries becomes a typed `FailedCell` instead of aborting the
  sweep: telemetry records it (`failed=True`, attempts, error), tables
  render the cell as `FAIL` with a per-row `failed` count, and reports
  append an itemized "failed cells" block.  The default `--fail-fast`
  raises `UnitExecutionError` on the first exhausted cell.  Failed
  cells are never cached, so a rerun recomputes them.
- **Checkpoint & resume.** Every CLI run (unless `--no-checkpoint`)
  writes `.repro_runs/<run-id>/manifest.json` — the full run config,
  status, and completed experiments, written atomically — plus
  `units.jsonl`, an append-only journal of finished unit keys written
  as each cell completes.  Ctrl-C / SIGTERM mark the manifest
  `interrupted` and exit 130 with a hint; `repro resume <run-id>`
  replays the stored config, skips completed experiments, and serves
  already-finished cells from the result cache.  `repro runs` lists
  checkpoints; `--runs-dir` / `$REPRO_RUNS_DIR` relocate them.
- **Cache quarantine.** A corrupt cache entry (torn write, bad disk) is
  treated as a miss and renamed to `<key>.pkl.bad` for post-mortem
  rather than deleted; `repro cache stats` counts quarantined files and
  `repro cache clear` removes them.
- **Fault injection.** `repro.exec.faults` drives the chaos tests:
  `inject_faults("kill:e1/rand-green:1")` (modes `crash`, `flaky`,
  `kill`, `hang`, `interrupt`) injects failures by unit label — across
  process boundaries via `$REPRO_FAULTS`, with atomic claim files
  bounding how many executions trigger — so every recovery path above
  is exercised deterministically in CI.

## Trace corpus & streaming

`repro.traces` turns workloads from in-process objects into durable,
content-addressed experiment inputs — real traces included — without
ever requiring a whole trace in memory:

- **Binary trace store.** A `.trc` file holds one int64 column per
  processor, chunked, behind a JSON header carrying the schema version,
  per-chunk digests, and workload metadata.  `write_store(path, workload)`
  writes atomically (temp file + `os.replace`); `TraceStore(path)` opens
  one, validating the header up front and raising typed errors
  (`TraceFormatError`, `TraceVersionError`, `TraceCorruptError`) instead
  of handing back garbage.  `store.workload()` returns a `StoredWorkload`
  whose columns are zero-copy `np.memmap` views — a drop-in
  `ParallelWorkload` that pickles as its path, so pool workers re-open
  the mmap instead of shipping arrays.  `StoreWriter` builds a store
  incrementally (spool directory, bounded memory) for imports too large
  to hold.
- **One identity everywhere.** A store's `content_digest` is computed
  with the *same framing* as `repro.exec.workload_fingerprint`, and the
  fingerprint short-circuits to it.  The same requests therefore key
  identically in the result cache whether they arrive as an in-memory
  workload, an mmap-backed store, or a fresh re-import — warm cache
  entries survive every representation change.  `ExperimentRow` carries
  the digest in its `trace` column (`schema_version` 4; `""` for ad-hoc
  workloads), so every result row names its exact input bytes.
- **Adapters.** `import_trace(src, dest)` sniffs the format
  (`sniff_format`: suffix first, then first-line content) and converts:
  sequence/parallel text, hex or decimal address traces (`--page-size`
  folding), CSV/TSV key-value traces (`read_kv_trace`: dense first-seen
  key relabeling, optional processor field), `.npz` workloads, and
  existing stores (re-chunking preserves the digest).  Gzip/xz inputs
  decompress transparently; everything streams in bounded blocks
  (`stream_trace_blocks`).
- **Registry.** `TraceRegistry` keeps a corpus under `.repro_traces/`
  (override: `--registry` / `$REPRO_TRACES_DIR`): objects live at
  `objects/<digest[:2]>/<digest>.trc`, names are mutable labels in an
  atomically-rewritten `catalog.json`, imports deduplicate by content,
  and `remove` drops the object only when its last name goes.  Refs
  resolve by name, full digest, or unique ≥8-char prefix.
  `run_experiment` accepts a ref string anywhere it accepts a workload
  (`resolve_workload`).
- **Streaming execution.** `execute_store_profile` /
  `characterize_store` feed the paging engine and the workload
  statistics chunk-by-chunk from the store — byte-identical results to
  the in-memory paths with only the active window resident
  (`benchmarks/bench_traces.py` proves the bound with `tracemalloc`).
- **CLI.** `repro trace import|export|ls|info|sample|rm` manages the
  corpus; `repro run --trace <ref> --algorithms det-par,rand-par
  --cache-size K --miss-cost S` runs the standard harness on a
  registered trace, with the digest in the report and in `--csv` rows.

## Fast box kernel

`repro.paging.kernel` is the box engine: a per-sequence reuse-distance
precompute plus vectorized box evaluation that is **bit-identical** to
the reference dict-LRU loop in `repro.paging.engine.run_box` at a
fraction of the cost (≥5× on `repro run e1 --scale quick` and on the
offline green DP; `benchmarks/bench_kernel.py` measures and enforces it
in CI).  Its numpy form is the `fast` tier, the no-compiler fallback;
the compiled `native` tier below is the default:

- **Precompute once, probe cheaply.** `SequenceKernel(seq)` computes
  `prev_occ[i]` (previous occurrence of the same page) and
  `reuse_dist[i]` (distinct pages since then) — a chunked vectorized
  pass for typical lengths, an O(n log n) Fenwick sweep beyond it.  By
  LRU's inclusion property, request `i` hits in a cold box
  `(start, height)` iff `prev_occ[i] >= start` and
  `reuse_dist[i] < height`, so `run_box_fast(kernel, start, height,
  budget, miss_cost)` evaluates a whole box with a handful of array
  ops (short boxes take a scalar walk — RAND-GREEN draws mostly tiny
  boxes).  `SequenceKernel` and `StreamKernel` share that one walk and
  differ only in the window base.  On the numpy tier `ladder_plan`
  batches the offline DP's probes: one blocked windowed pass yields
  every lattice height's endpoint for 32 consecutive starts at once.
  `repro.paging.stack.stack_distances` reads its distances off the
  same precompute, so the kernel's sweep is the package's only
  reuse-distance sweep.
- **Shared and bounded.** `get_kernel(seq)` serves kernels from an
  LRU-bounded cache keyed on array identity
  (weakref-guarded) or an explicit key (trace `content_digest` +
  processor), so DP solves, schedulers, and replicated experiment
  cells on the same sequence share one precompute.  `StreamKernel`
  extends the sweep incrementally for chunked trace streaming, with
  `compact()` keeping only the active window resident and `seal()`
  dropping what only appends need once the stream has ended.
- **One module picks the walk.** `box_walk(seq)` returns the tier's
  box walk, `walk(start, height, budget, miss_cost)`: the cached
  kernel, which is callable as `run_box_fast` over itself, or under
  `REPRO_KERNEL=reference` the dict-LRU `run_box`, retained as the
  cross-check oracle.  `ladder_ends` does the same for the offline
  DP's endpoints.  Every box call site runs the walk it gets, without
  a branch of its own; `tests/paging/test_kernel.py` pins
  bit-identical `BoxRun`s, DP impacts, result rows, and `sim.*` metrics
  between the backends.

## Native kernel

The `native` kernel tier compiles seven inner loops — the
reuse-distance sweep, the per-box service walk, the offline DP
relaxation, GLOBAL-LRU's shared-cache event loop, DET-PAR's event
loop, RAND-PAR's chunk schedule and Belady's MIN — to machine code, keeping the numpy fast path
(for the event loops and MIN, the python loops) and the dict-LRU
reference as bit-identical oracles below it:

- **The default, with one fallback.** With `$REPRO_KERNEL` unset,
  `kernel_backend()` resolves to `native` whenever
  `repro.paging._native` can build its small C shared library with the
  system compiler (`cc`, or `$CC`), and to `fast` (numpy) when it
  cannot.  `kernel_backend()` and kernel construction read the same
  default, so the tier reported is the tier that runs.  Whether the
  library builds is observed, not configured (`native_flavor()` reports
  `"cc"` or `None`): `REPRO_KERNEL=fast` pins the numpy tier, and
  `REPRO_KERNEL=reference` the dict-LRU oracle.
- **Build cache.** The library is built once per user and cached under
  `$REPRO_NATIVE_CACHE` (default `$TMPDIR/repro-native-<uid>`, created
  with mode 0700) as `repro_kernel_<sha256 of the C source>.so`.  The
  source is public, so the name is predictable: before writing into the
  directory or loading from it, an `lstat` check requires that the
  directory and the library are not symlinks, are owned by the current
  user, and are not group- or other-writable.  If a check fails, the
  library is built in a fresh `tempfile.mkdtemp()` directory instead,
  with a `RuntimeWarning`, and nothing in the rejected directory is
  loaded.  Builds compile in a private scratch directory and land with
  an atomic rename, so concurrent builds never see a torn file.
- **One sweep, in place.** The compiled sweep is one per-row step
  under two entries.  The streaming window's append: a `StreamKernel`
  keeps its prev, reuse and page columns, a Fenwick tree and a page
  table in one block it owns and grows in place, appends a chunk in
  O(chunk) work (amortized), and compacts in O(1).  And
  `repro_sweep_columns`, which sweeps whole columns of one payload into
  one arena in one call: a `SequenceKernel` is its one-column case.  Box
  probes read the columns in place, with no per-call marshalling.
- **Resumable event loops.** GLOBAL-LRU and DET-PAR run as C loops over
  state arrays their python callers own, taking the compiled path when
  the tier is native.  DET-PAR's loop covers
  segment ends and strip slots in `(time, push order)`, stale skips,
  round-robin strips and the phase-end finalize; it hands back to
  python, before it changes any state of the step, when a box runs past
  a processor's stream window (python pulls chunks), when a phase
  ends (python plans the next one) and when its record buffer
  fills.  The C code keeps no static state, so threads may run loops
  side by side.
- **Box traces as columns.** DET-PAR's and RAND-PAR's compiled loops
  write each box as a ten-column int64 record row; their drivers keep
  each full record buffer as one block and concatenate the blocks once,
  so a run's `BoxTrace` is those rows, with no python per box.  The
  python loops' `BoxRecord` lists are converted once, so every
  `ParallelRunResult` carries this one representation.  `BoxTrace` is
  an immutable sequence of `BoxRecord`s built on first access (the
  trace verifier and the audits iterate them); `capacity_profile`, and
  through it `summarize`, the impact sums, `validate` and
  `save_result`/`load_result` read the columns with numpy.
  `tests/parallel/test_box_trace.py` holds every one of those to the
  per-record code it replaced.
- **MIN in one call.** `belady_faults`, and with it `min_service_time`,
  both certified lower bounds, `fairness_report` and
  `BestStaticPartition`, is one `repro_min_run` call on the native
  tier: a backward pass over an open-addressing page table finds each
  request's next use, and a forward pass keeps the resident pages in a
  max-heap keyed by next use (O(n log n), O(n) scratch words per call).
  `REPRO_KERNEL=fast`, `reference` and a failed build run the python
  `BeladySimulation`, which stays the step-through API and the oracle.
- **Exactness is the only contract.** Box endpoints, hit/fault splits,
  DP distances and parents (including tie-breaks),
  GLOBAL-LRU completion times, hits, faults and evictions,
  DET-PAR completions, box traces and phases, and MIN fault counts
  must equal the fast and reference tiers bit for bit;
  `tests/paging/test_native.py` pins the three-way equivalence
  property-style on random boxes, streamed chunked appends with
  compaction (column by column against the numpy window), and the
  offline DP on non-power-of-two `(k, p)` lattices;
  `tests/parallel/test_timestep.py` holds the compiled GLOBAL-LRU
  loop to the python loop and the rescan on drawn workloads, streamed
  in chunks as small as one row, and
  `tests/parallel/test_det_par_native.py` does the same for DET-PAR,
  and `tests/paging/test_belady_native.py` holds the compiled MIN to
  the python MIN and to brute force, on hostile columns and from two
  threads at once.
  A CI job runs the kernel, simulator, green and core suites against a
  build with AddressSanitizer and UBSan.
  `benchmarks/bench_kernel.py` times all three tiers on the same arms
  and fails if the compiled tier loses to numpy (`BENCH_kernel.json`
  records the measured ratios; the DP arm runs ~34× faster under the
  native tier on the reference machine).  CI fails unless the tier
  resolves to `native` on its image, and runs the whole tier-1 suite a
  second time with `CC=false` and an empty build cache — a host with no
  compiler — to keep the fallback covered.
- **Zero-copy worker handoff.** `repro.exec.handoff.HandoffManager`
  keeps pool workers off the pickle highway: workloads of at least
  `DEFAULT_SPILL_ROWS` (64 Ki) requests spill to a digest-named `.trc`
  store (a `StoredWorkload` pickles as its path, and spilled twins keep
  the in-memory cache key), request arrays of at least
  `DEFAULT_SHM_ROWS` (16 Ki) rows travel as
  `multiprocessing.shared_memory` names, and when several
  units share one sequence the parent ships the kernel's
  `prev_occ`/`reuse_dist` precompute once through the same segments.
  The pickled payload per task stays bounded (a name plus a length) as
  traces grow; `tests/exec/test_handoff.py` holds payload size, worker
  materialization identity, and release-on-close.

## Event-driven parallel simulation

`repro.parallel` runs every parallel-paging algorithm — RAND-PAR,
DET-PAR, the black-box packing construction, GLOBAL-LRU — on one
deterministic event scheduler, streamed from the trace store in bounded
memory, with the historical per-timestep loops retained as a
byte-identical oracle:

- **One event queue.** `EventScheduler` is a min-heap of
  `(time, priority, sequence)`-ordered events with O(1) lazy `cancel`.
  `priority` defaults to the push sequence (FIFO among same-time
  events — DET-PAR's historical `(t, counter)` order); passing it
  explicitly pins a domain tie-break such as a processor index.
  Ordering can never depend on event payloads, and
  `tests/parallel/test_events.py` holds the invariant under hypothesis.
  GLOBAL-LRU, one event per simulated request, keeps a bare heap of
  `(time, processor)` keys instead — the same order with the
  processor as priority — and keeps serving the popped processor while
  its next completion is still the earliest key.  On the native tier
  that loop runs compiled (`repro_lru_run`, with the shared LRU in an
  open-addressing table); `REPRO_KERNEL=fast|reference`, or a host
  without a compiler, run it in python over `LRUCache`.
- **Arbitrary `k >= p >= 1`.** `HeightLattice` is a doubling ladder
  from `max(1, k // p)` clamped at `k` — identical to the paper's
  lattice on power-of-two inputs, well-defined on everything else, with
  `round_up` as the explicit ceil-to-lattice policy.  Validation is one
  function, `validate_lattice(k, p)`, raising a typed `LatticeError`
  that carries the offending value and the nearest valid rounding
  (`.param`, `.value`, `.rounded`).
- **Streaming in bounded memory.** `open_streaming(store)` wraps a
  `TraceStore` as a `StreamingWorkload` — the structural surface of a
  `ParallelWorkload` (and its exact cache fingerprint) without
  materializing any column.  Box algorithms consume it through
  `make_box_server`, which feeds per-processor `StreamKernel`s
  chunk-by-chunk just ahead of the execution position and compacts the
  served prefix behind it: resident rows per processor are bounded by
  the largest box budget plus one store chunk, independent of trace
  length (`benchmarks/bench_stream.py` proves it with `tracemalloc` on
  a million-request, 1024-processor run).  On the native tier the
  columns the store holds as one chunk skip the feed: the server sweeps
  them all in one compiled call, straight from the store's memory map,
  into one arena of their `SequenceKernel` rows, which holds what their
  windows held.  GLOBAL-LRU's compiled loop starts with every
  processor's first chunk installed and returns only to fetch a later
  one, and DET-PAR's and RAND-PAR's return only when a box runs past a
  multi-chunk column's window; their python loops stream through
  `request_feed` and the box server.  `TraceStore` checks at open that
  its columns tile the payload exactly, and hands out their row
  offsets, rows and first-chunk rows as int64 arrays.
  `write_store` hands in-memory columns to the writer whole, so it
  opens no file per processor.
  `repro run --trace <ref> --stream` selects the path from the CLI;
  `sim.traces.*` counters record the chunk traffic.
- **Differential lockdown.** `REPRO_KERNEL` is the one backend switch
  (`native`, `fast` or `reference`).  `reference` routes every
  simulator back to the retained oracles (per-timestep full rescan for
  GLOBAL-LRU, per-request `run_box` for the box algorithms, over the
  memory-mapped column when streamed), and every box walk to the
  dict-LRU; `sim_backend()` reports `reference` then and `event`
  otherwise.  No
  per-cell heuristic picks between them.  Every tier — and streamed vs
  in-memory forms — produces byte-identical completion times, box
  traces, and (wall-stripped) `sim.*` snapshots across the
  `(k, p, algorithm, workload-family)` matrix, powers of two or not;
  `tests/parallel/test_differential.py` is the harness and CI's
  `stream` job replays it end-to-end through the CLI on all three
  tiers.

## Observability

`repro.obs` is a determinism-first metrics and tracing layer: simulation
counters are a pure function of the simulated work, so two runs of the
same experiment — serial or `--jobs N`, cold or warm cache — produce
byte-identical metrics snapshots and canonical traces:

- **Metrics registry.** `MetricsRegistry` holds counters, max-gauges,
  and fixed-bucket histograms, addressed by name plus sorted labels
  (`sim.policy.faults{policy=LRUCache}`).  When no registry is
  collecting, the ambient `counter()/gauge()/histogram()` helpers hand
  back a shared no-op cell, so instrumentation in hot paths costs
  nothing (`benchmarks/bench_obs.py` holds the enabled path under 5% on
  E1 quick).  `snapshot()` is sorted and canonical; `merge()` is
  commutative, so pooled completion order cannot change results.
- **Metric namespaces.** `sim.*` counters (per-box progress, faults,
  stalls, box-height transitions, the §3.2 primary/secondary split,
  green impact) depend only on the simulated work and are byte-identical
  across reruns, worker counts, and cache states.  `exec.*` records
  run-local facts (computed vs cache-served cells, retries, failed
  cells); `wall.*` is wall-clock and is stripped by `strip_wall` before
  any determinism comparison.
- **Span tracing.** `Tracer` emits Chrome-trace/Perfetto JSON (open in
  `chrome://tracing` or https://ui.perfetto.dev): nested spans across
  the exec engine (`exec.batch`, `exec.unit`), trace streaming, and the
  paging/scheduler layer (`algorithm.run`).  `canonical_events` strips
  wall-clock fields for comparison; `aggregate_spans` / `slowest_spans`
  power `repro profile`.
- **Determinism across execution modes.** Each work unit records into a
  scoped registry/tracer; the deltas ride back in its `CellOutcome` and
  are merged on the main process (`absorb_outcome`).  Cache hits replay
  the stored deltas, and failed attempts' scoped registries are
  discarded with the raise, so retried cells count exactly once.
- **Surfacing.** `repro <exp> --metrics out.json --trace-events
  out.trace.json` writes snapshot and trace (flushed even on Ctrl-C);
  reports append a `[metrics]` delta block; `repro profile <exp>` runs
  one experiment fully instrumented and prints span and counter tables
  (see EXPERIMENTS.md for a worked example).  In code, wrap anything in
  `with observability(metrics=True, trace=True) as scope:` and read
  `scope.metrics_snapshot()` / `scope.tracer`.

## Adversary search

`repro.search` closes the loop between the paper's hand-built lower
bounds and the measured algorithms: a propose → execute → score → refine
search that hunts for workloads with the worst *measured* competitive
ratio and feeds every record-beater into a CI-replayed regression
corpus.

- **Workload families.** `repro.workloads.families` registers five
  parameterized generators — the §4 `adversarial` construction plus
  `polluted-cycles`, `random-order`, `biased-random`, and `multiscale` —
  each a `WorkloadFamily` of typed, bounded `ParamSpec`s (`quick` bounds
  are a strict subset of `full`).  `build_candidate(family, config,
  workload_seed)` deterministically rebuilds the workload *and* its
  evaluation geometry (`k`, miss cost, green lattice height) from
  scalars, so a candidate is fully described by its recipe.
- **Scoring through the engine.** Each candidate becomes one
  `adversary-eval` work unit (`repro.search.scorers.candidate_unit`)
  executed by the shared `ExecutionEngine` — cached, pooled, and
  fault-injectable like every other unit.  The score is the measured
  competitive ratio: DET-PAR/RAND-PAR makespan against the
  `makespan_lower_bound` DP, RAND-GREEN mean impact against the offline
  `optimal_box_profile`.  The bar to beat is `hand_built_baseline`: the
  best hand-built §4 instance, measured the same way.
- **The hunt loop.** `AdversarySearch` (`repro.search.loop`) runs
  seeded rounds: mutate the per-algorithm elite population, cross over
  top pairs, probe one coordinate of the record holder, and inject
  fresh random configs.  Per-round RNG is derived from
  `(seed, round_index)`, floats are canonicalized before serialization,
  and state is saved atomically at round boundaries — so the same seed
  yields byte-identical records, and an interrupted hunt resumes to the
  exact state of an uninterrupted one (`repro hunt resume <run-id>`,
  riding the PR-2 checkpoint manifest).
- **Hard-instance corpus.** Every candidate that strictly beats the
  record is committed to the trace registry as
  `hard/<algorithm>/<digest12>` — content addressed, recipes keyed by
  algorithm in the catalog meta since one workload can be hard for
  several.  `replay_corpus` rebuilds each instance from scalars, checks
  the bytes still hash to the committed digest, re-measures the ratio,
  and demands float-exact agreement; `repro hunt corpus --replay` exits
  nonzero on any drift, which is the CI regression gate.  The repo's
  committed corpus lives in `corpus/` and is replayed on every push.
- **Surfacing.** `repro hunt` drives a search from the CLI (`--rounds`,
  `--scale quick|full`, `--seed`, `--algorithms`, `--families`, plus the
  standard engine flags); `search.*` metrics (rounds, candidates,
  commits, best-ratio gauges) and `search.round` spans ride the
  `repro.obs` layer; `examples/adversarial_lower_bound.py` replays the
  committed corpus next to the hand-built Theorem 4 table.

## Service & Session API

`repro.client` + `repro.service` turn the batch runner into a
long-running, multi-tenant system: one typed request/reply API, spoken
in-process or over HTTP, against one shared engine.

- **One facade over every entry point.** `Session` consolidates the
  historical surfaces — `run_experiment`, `sweep_p`, `repro run
  --trace`, named experiments, raw `ExecutionEngine.run(units)` — behind
  four methods: `run(RunRequest)`, `experiment(name_or_request)`,
  `sweep(SweepRequest)`, `submit_units([...])` (plus
  `upload_trace` / `metrics`).  The facade *delegates* to the historical
  code paths rather than forking them, so its rows are byte-identical to
  the legacy API's; `tests/client/test_legacy_api.py` pins the
  signatures and the row identity.  Row `schema_version` is unchanged:
  no row field changed.
- **Shared protocol dataclasses.** Requests (`RunRequest`,
  `ExperimentRequest`, `SweepRequest`, `TraceUpload`) and replies
  (`RunReply`, `JobStatus`, `TraceReply`, `MetricsReply`) are frozen
  dataclasses used *verbatim* by the in-process `Session`, the HTTP
  `HttpSession`, and the server — `to_dict()` / `request_from_dict`
  carry a `type` tag plus `PROTOCOL_VERSION`, and mixed-version pairs
  fail loudly.  `WorkloadSpec(p, n_requests, k, kind, workload_seed)`
  describes generated workloads by recipe with `sweep_p`'s exact
  seeding, so client and server construct byte-identical sequences and
  share cache keys.  `open_session(url_or_none)` picks the right world.
- **The service.** `repro serve` boots a handcrafted stdlib-asyncio
  HTTP/1.1 frontend (`repro.service.server`, no third-party deps) over a
  `ServiceBackend`: a bounded admission queue (typed `queue-full` → 503),
  per-client live-job quotas (`quota-exceeded` → 429), request
  coalescing (identical in-flight requests share one job; the content
  key excludes client identity), and one worker draining jobs through
  the shared `ExecutionEngine` — cells inside a job still fan out over
  the engine's process pool, and the content-addressed cache serves
  identical cells across clients.  Errors travel as typed
  `ServiceError(code, message, status)` on both sides of the wire.
  SIGTERM mid-run marks the checkpoint manifest `interrupted` and exits
  130; a restarted server on the same `--cache-dir` serves the journaled
  cells from cache (PR 2 semantics, now network-visible).
- **Endpoints.** `GET /v1/health`, `GET /v1/metrics` (deterministic
  `repro.obs` snapshot), `GET /v1/jobs[/<id>][?wait=s]` (poll or
  long-poll), `POST /v1/jobs|runs|experiments|sweeps[?wait=1]`,
  `POST /v1/traces` (the `repro.traces` import path over the wire).
- **Clients.** `repro submit <exp> --url ...` / `repro submit --trace
  ... --url ...` render tables and `--csv` rows byte-identical to the
  local CLI.  `python -m repro.service.loadgen --clients N` drives a
  server with concurrent clients (duplicate-cell, unique-cell, and
  experiment scenarios) and reports p50/p99 latency, throughput, and the
  cross-client cache-hit rate — committed per-PR as `BENCH_service.json`
  next to `BENCH_kernel.json`.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


#: The memory address in a default value's repr, e.g. a function-valued
#: default prints as ``<function f at 0x7f...>``; it changes every run.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def signature_of(obj) -> str:
    """``obj``'s signature, with no memory address in any default."""
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def render() -> str:
    """The text of docs/API.md."""
    lines = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "One line per public item: signature and docstring summary.",
        "",
        PREAMBLE,
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        lines.append(f"## `{pkg_name}`")
        lines.append("")
        module_names = [pkg_name] + [
            f"{pkg_name}.{m.name}" for m in pkgutil.iter_modules(pkg.__path__)
        ]
        for mod_name in module_names:
            mod = importlib.import_module(mod_name)
            items = []
            for name in sorted(vars(mod)):
                if name.startswith("_"):
                    continue
                obj = vars(mod)[name]
                if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    continue
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                kind = "class" if inspect.isclass(obj) else "def"
                items.append(f"- `{kind} {name}{signature_of(obj)}` — {first_line(obj)}")
                if inspect.isclass(obj):
                    for mname in sorted(vars(obj)):
                        meth = vars(obj)[mname]
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        items.append(
                            f"  - `.{mname}{signature_of(meth)}` — {first_line(meth)}"
                        )
            if items:
                lines.append(f"### `{mod_name}`")
                lines.append("")
                lines.append((inspect.getdoc(mod) or "").splitlines()[0])
                lines.append("")
                lines.extend(items)
                lines.append("")
    for extra in ("repro.experiments", "repro.cli"):
        mod = importlib.import_module(extra)
        lines.append(f"## `{extra}`")
        lines.append("")
        lines.append((inspect.getdoc(mod) or "").splitlines()[0])
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    text = render()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT} ({text.count(chr(10))} lines)")


if __name__ == "__main__":
    main()
