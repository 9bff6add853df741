"""Cache substrate: set-associative caches and stack-distance profiling.

This package provides the building blocks that both the detailed
simulators (:mod:`repro.simulators`) and the single-core profiler use:

* :class:`SetAssociativeCache` — a set-associative cache with pluggable
  replacement policy (LRU by default, as in the paper's Table 1),
* :func:`replay_private_levels` and :func:`stack_distances` — the
  batched replay of a whole trace through the private levels and the
  LLC that the single-core simulator runs on,
* :class:`StackDistanceCounters` and :class:`StackDistanceProfiler` —
  the per-set LRU stack-distance counters (SDCs) of Mattson et al. that
  the paper collects per 20M-instruction interval and feeds to the
  cache-contention model.
"""

from repro.caches.replacement import (
    ReplacementPolicy,
    LRUPolicy,
    FIFOPolicy,
    RandomPolicy,
    make_policy,
)
from repro.caches.set_associative import AccessOutcome, SetAssociativeCache
from repro.caches.stack_distance import (
    StackDistanceCounters,
    StackDistanceProfiler,
)
from repro.caches.vectorized import (
    lru_hit_mask,
    replay_private_levels,
    stack_distances,
)

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "make_policy",
    "AccessOutcome",
    "SetAssociativeCache",
    "StackDistanceCounters",
    "StackDistanceProfiler",
    "lru_hit_mask",
    "replay_private_levels",
    "stack_distances",
]
