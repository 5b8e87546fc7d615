"""Unit tests for the per-slide latency metrics."""

import pytest

from repro.core.framework import SAPTopK
from repro.core.metrics import MetricsCollector, percentile
from repro.core.query import TopKQuery
from repro.engine import StreamEngine

from ..conftest import make_objects, random_scores


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLatencyCollection:
    def test_collector_tracks_latency_distribution(self):
        metrics = MetricsCollector()
        for latency in [0.001, 0.002, 0.010]:
            metrics.record(candidate_count=1, memory_bytes=1, latency_seconds=latency)
        assert metrics.median_latency == pytest.approx(0.002, rel=0.01)
        assert metrics.max_latency == 0.010
        assert metrics.p95_latency <= metrics.max_latency

    def test_latency_optional(self):
        metrics = MetricsCollector()
        metrics.record(candidate_count=1, memory_bytes=1)
        assert metrics.latency_buckets == {}
        assert metrics.latency_count == 0
        assert metrics.median_latency == 0.0
        assert metrics.max_latency == 0.0

    def test_subscription_records_one_latency_per_slide(self):
        query = TopKQuery(n=60, k=3, s=6)
        objects = make_objects(random_scores(300, seed=1))
        engine = StreamEngine()
        subscription = engine.subscribe("run", algorithm=SAPTopK(query))
        engine.push_many(objects)
        metrics = subscription.metrics
        assert metrics.latency_count == metrics.slides == 1 + (300 - 60) // 6
        assert metrics.latency_total > 0.0
        assert metrics.p95_latency >= metrics.median_latency

