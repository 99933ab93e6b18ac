"""Sequential paging substrate: caches, offline MIN, box engine, profiling.

This package is the foundation everything else stands on:

* :mod:`~repro.paging.lru`, :mod:`~repro.paging.fifo` — online replacement
  policies with O(1) request handling;
* :mod:`~repro.paging.belady` — Belady's offline-optimal MIN, used for
  certified makespan lower bounds;
* :mod:`~repro.paging.engine` — the compartmentalized-box execution engine
  shared by every algorithm in :mod:`repro.core`;
* :mod:`~repro.paging.kernel` — the compiled reuse-distance box kernel
  (``run_box_fast``) that serves every hot path, and ``box_walk``, which
  picks it or the engine's dict-LRU, the cross-checked reference
  (``REPRO_KERNEL=reference``, or a host without a C compiler);
* :mod:`~repro.paging.stack` — Mattson stack distances / miss-ratio curves
  for workload characterization and test oracles.
"""

from .clock import ClockCache
from .lfu import LFUCache
from .belady import BeladySimulation, belady_faults, min_service_time, next_use_indices
from .engine import BoxRun, ProfileRun, box_budget, execute_profile, execute_profile_streaming, run_box
from .engine_policy import run_box_min, run_box_policy
from .kernel import (
    SequenceKernel,
    StreamKernel,
    box_walk,
    clear_kernel_cache,
    get_kernel,
    kernel_backend,
    run_box_fast,
)
from .fifo import FIFOCache
from .lru import LRUCache
from .marking import MarkingCache, RandomMarkCache, phase_partition
from .policies import POLICY_REGISTRY, ReplacementPolicy, count_faults, make_policy, register_policy
from .stack import Fenwick, MissRatioCurve, lru_faults_all_sizes, miss_ratio_curve, stack_distances

__all__ = [
    "BeladySimulation",
    "belady_faults",
    "min_service_time",
    "next_use_indices",
    "BoxRun",
    "ProfileRun",
    "box_budget",
    "execute_profile",
    "execute_profile_streaming",
    "run_box",
    "run_box_fast",
    "box_walk",
    "run_box_min",
    "run_box_policy",
    "SequenceKernel",
    "StreamKernel",
    "clear_kernel_cache",
    "get_kernel",
    "kernel_backend",
    "ClockCache",
    "LFUCache",
    "FIFOCache",
    "LRUCache",
    "MarkingCache",
    "RandomMarkCache",
    "phase_partition",
    "POLICY_REGISTRY",
    "ReplacementPolicy",
    "count_faults",
    "make_policy",
    "register_policy",
    "Fenwick",
    "MissRatioCurve",
    "lru_faults_all_sizes",
    "miss_ratio_curve",
    "stack_distances",
]
