"""Regression tests pinning the one stats schema (:data:`STATS_KEYS`).

Three surfaces report per-subscription/cluster statistics: the embedded
engine's :meth:`Subscription.stats`, the engine-wide
:meth:`StreamEngine.aggregate_stats`, and the sharded plane's
:func:`merged_latency_stats` (fed by worker telemetry).  They drifted
apart once — sharded reports missing candidate/memory aggregates — so
these tests assert key parity across all of them against the declared
schema.
"""

from repro.cluster.merge import merged_latency_stats
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.engine.subscription import STATS_KEYS
from repro.streams import make_dataset


def run_local_engine(objects=600):
    engine = StreamEngine(keep_results=False, return_results=False)
    subscription = engine.subscribe("watch", TopKQuery(n=200, k=5, s=20))
    engine.push_many(make_dataset("STOCK").take(objects))
    engine.flush()
    return engine, subscription


class TestSchemaParity:
    def test_subscription_stats_emits_exactly_the_schema(self):
        _, subscription = run_local_engine()
        assert tuple(subscription.stats()) == STATS_KEYS

    def test_engine_aggregate_stats_matches_schema(self):
        engine, _ = run_local_engine()
        assert set(engine.aggregate_stats()) == set(STATS_KEYS)

    def test_merged_latency_stats_matches_schema(self):
        _, subscription = run_local_engine()
        telemetry = {
            "watch": {
                "stats": subscription.stats(),
                "latencies": subscription.metrics.latency_buckets,
                "shard": 0,
            }
        }
        merged = merged_latency_stats([telemetry])
        assert set(merged) == set(STATS_KEYS)

    def test_merged_stats_agree_with_the_single_subscription(self):
        # With exactly one subscription the merged sketch is that
        # subscription's sketch, so the cluster merge must reproduce the
        # local report, percentiles included.
        _, subscription = run_local_engine()
        stats = subscription.stats()
        telemetry = {
            "watch": {
                "stats": stats,
                "latencies": subscription.metrics.latency_buckets,
                "shard": 0,
            }
        }
        merged = merged_latency_stats([telemetry])
        assert merged["slides"] == stats["slides"]
        assert merged["results_delivered"] == stats["results_delivered"]
        assert merged["average_candidates"] == stats["average_candidates"]
        assert merged["candidate_max"] == stats["candidate_max"]
        assert merged["average_memory_kb"] == stats["average_memory_kb"]
        assert merged["max_latency"] == stats["max_latency"]
        for key in ("p50_latency", "p95_latency", "p99_latency", "latency_samples"):
            assert merged[key] == stats[key]

    def test_merge_tolerates_legacy_partial_stats(self):
        # Older workers (or a crashed one's cached report) may ship only
        # the core keys; the merge must still emit the full schema.
        telemetry = {
            "old": {
                "stats": {
                    "slides": 10,
                    "results_delivered": 10,
                    "max_latency": 0.5,
                },
                "latencies": {-115: 10},  # ten latencies of about 0.1 s
            }
        }
        merged = merged_latency_stats([telemetry])
        assert set(merged) == set(STATS_KEYS)
        assert merged["average_candidates"] == 0.0

    def test_empty_cluster_emits_zeroed_schema(self):
        merged = merged_latency_stats([{}])
        assert set(merged) == set(STATS_KEYS)
        assert all(value == 0.0 for value in merged.values())


class TestSubscriptionPercentiles:
    def test_subscription_stats_expose_percentiles(self):
        _, subscription = run_local_engine(500)
        stats = subscription.stats()
        assert stats["p50_latency"] == stats["median_latency"]
        assert stats["p50_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
        assert stats["p99_latency"] <= stats["max_latency"]

    def test_engine_stats_pass_through(self):
        engine, subscription = run_local_engine(300)
        assert engine.stats()["watch"] == subscription.stats()
