"""Unit tests for the cluster merge layer."""

import pytest

from repro.cluster.merge import merge_disjoint, merged_latency_stats
from repro.core.metrics import MetricsCollector


class TestMergeDisjoint:
    def test_union_of_disjoint_maps(self):
        merged = merge_disjoint([{"a": 1}, {"b": 2}, {}])
        assert merged == {"a": 1, "b": 2}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="several shards"):
            merge_disjoint([{"a": 1}, {"a": 2}])


def sketch(latencies):
    """The bucket counts a subscription's collector ships for ``latencies``."""
    collector = MetricsCollector()
    for latency in latencies:
        collector.record(0, 0, latency)
    return collector.latency_buckets


def telemetry(latencies, max_latency=None):
    return {
        "stats": {
            "slides": len(latencies),
            "results_delivered": len(latencies),
            "max_latency": max_latency if max_latency is not None else max(latencies, default=0.0),
        },
        "latencies": sketch(latencies),
        "shard": 0,
    }


class TestMergedLatency:
    def test_decimated_samples_weighted_by_slides_represented(self):
        # A long-running slow subscription (1000 slides) must dominate a
        # quiet fast one (10 slides): its sketch counts every slide, so
        # the merged p50 is the slow value, not a 50/50 mix of the two.
        slow = telemetry([1.0] * 1000)
        fast = telemetry([0.001] * 10)
        merged = merged_latency_stats([{"slow": slow}, {"fast": fast}])
        assert merged["p50_latency"] == pytest.approx(1.0, rel=0.01)
        assert merged["slides"] == 1010
        assert merged["latency_samples"] == 1010

    def test_percentiles_from_combined_samples_not_averaged(self):
        # Shard A: 99 fast slides; shard B: 1 slow slide.  Averaging the
        # per-shard p50s would give ~0.5005s; the true merged p50 is fast.
        fast = telemetry([0.001] * 99)
        slow = telemetry([1.0])
        merged = merged_latency_stats([{"a": fast}, {"b": slow}])
        assert merged["p50_latency"] == pytest.approx(0.001, rel=0.01)
        naive_average = (0.001 + 1.0) / 2
        assert merged["p50_latency"] < naive_average / 100
        assert merged["max_latency"] == pytest.approx(1.0)
        assert merged["slides"] == 100
        assert merged["latency_samples"] == 100

    def test_empty_cluster(self):
        merged = merged_latency_stats([])
        assert merged["p50_latency"] == 0.0
        assert merged["slides"] == 0

    def test_median_alias(self):
        merged = merged_latency_stats([{"a": telemetry([0.2, 0.4, 0.6])}])
        assert merged["median_latency"] == merged["p50_latency"]

