"""Sharded parallel execution plane: multi-process continuous top-k.

This package scales the push-based engine across CPU cores:
:class:`ShardedStreamEngine` places each subscription on one of N worker
processes (each hosting a full :class:`repro.StreamEngine`), fans the
stream out in slide-aligned chunks over multiprocessing queues, merges
per-shard answers and statistics, and rebalances live subscriptions
between shards through the serialization layer (:mod:`repro.core.state`).
The pool is elastic by hand: ``spawn_shard`` adds a worker,
``retire_shard`` drains the highest-numbered one onto the rest and stops
it, and ``rebalance`` moves one subscription at a slide boundary.

See :mod:`repro.cluster.sharded` for the facade,
:mod:`repro.cluster.placement` for the placement policies,
:mod:`repro.cluster.router` / :mod:`repro.cluster.worker` for the process
plumbing, and :mod:`repro.cluster.merge` for result/statistics merging.
"""

from .merge import merged_latency_stats
from .placement import (
    PLACEMENT_POLICIES,
    HashWindowPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    make_placement,
)
from .router import ShardError, ShardRouter
from .sharded import ShardedStreamEngine, ShardSubscription

__all__ = [
    "ShardedStreamEngine",
    "ShardSubscription",
    "PlacementPolicy",
    "HashWindowPlacement",
    "LeastLoadedPlacement",
    "PLACEMENT_POLICIES",
    "make_placement",
    "merged_latency_stats",
    "ShardError",
    "ShardRouter",
]
