"""Reproduction of "SAP: Improving Continuous Top-K Queries over Streaming Data".

The public API mirrors the paper's structure:

* :class:`repro.StreamEngine` -- the push-based execution facade: subscribe
  continuous queries, push stream objects one at a time, consume answers
  via callbacks or result buffers (O(window) memory on unbounded streams);
* :class:`repro.QuerySpec` / :class:`repro.TopKQuery` -- the continuous
  query ``(n, k, s, F)``, as a fluent builder or an immutable tuple;
* :mod:`repro.registry` -- the single algorithm registry: SAP with its
  partitioner variants plus the competitors (MinTopK, k-skyband, SMA,
  brute-force), extensible with :func:`repro.register_algorithm`;
* :class:`repro.SAPTopK` -- the SAP framework (the paper's contribution),
  configurable with the equal, dynamic, or enhanced dynamic partitioner;
* :class:`repro.cluster.ShardedStreamEngine` -- the sharded execution
  plane: the same subscribe/push API across N worker processes, with
  placement policies, merged statistics, and live rebalancing;
* :mod:`repro.streams` -- synthetic equivalents of the paper's datasets.

Quickstart (push-based, works on unbounded streams)::

    from repro import QuerySpec, StreamEngine
    from repro.streams import UncorrelatedStream

    engine = StreamEngine()
    watch = engine.subscribe(
        "watch", QuerySpec(n=1000, k=10, s=10), algorithm="SAP"
    )
    UncorrelatedStream(seed=1).feed(engine, 5000)
    print(watch.latest().scores)
    print(watch.stats())
    engine.close()

Several algorithms over one stream (each subscription measures its own
per-slide latency, candidate count and memory)::

    from repro import StreamEngine, TopKQuery, results_agree
    from repro.streams import UncorrelatedStream

    query = TopKQuery(n=1000, k=10, s=10)
    engine = StreamEngine()
    sap = engine.subscribe("sap", query, algorithm="SAP")
    oracle = engine.subscribe("oracle", query, algorithm="brute-force")
    engine.push_many(UncorrelatedStream(seed=1).take(5000))
    engine.close()
    assert results_agree(sap.results(), oracle.results())
    print(sap.metrics.latency_total, sap.metrics.average_candidates)
"""

from .core import (
    AlgorithmStateError,
    ContinuousTopKAlgorithm,
    InvalidPartitionError,
    InvalidQueryError,
    ReproError,
    SAPTopK,
    SlideEvent,
    StreamObject,
    TopKQuery,
    TopKResult,
    results_agree,
    top_k,
)
from .baselines import BruteForceTopK, KSkybandTopK, MinTopK, SMATopK
from .partitioning import (
    DynamicPartitioner,
    EnhancedDynamicPartitioner,
    EqualPartitioner,
    Partitioner,
)
from .registry import (
    AlgorithmInfo,
    algorithm_factories,
    algorithm_names,
    create_algorithm,
    register_algorithm,
)
from .engine import EngineCore, QueryGroup, QuerySpec, StreamEngine, Subscription
from .cluster import ShardedStreamEngine, ShardSubscription

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "ReproError",
    "InvalidQueryError",
    "InvalidPartitionError",
    "AlgorithmStateError",
    "StreamObject",
    "TopKQuery",
    "TopKResult",
    "results_agree",
    "top_k",
    "SlideEvent",
    "ContinuousTopKAlgorithm",
    "SAPTopK",
    "BruteForceTopK",
    "KSkybandTopK",
    "MinTopK",
    "SMATopK",
    "Partitioner",
    "EqualPartitioner",
    "DynamicPartitioner",
    "EnhancedDynamicPartitioner",
    "EngineCore",
    "StreamEngine",
    "ShardedStreamEngine",
    "ShardSubscription",
    "QueryGroup",
    "QuerySpec",
    "Subscription",
    "AlgorithmInfo",
    "register_algorithm",
    "create_algorithm",
    "algorithm_names",
    "algorithm_factories",
]
