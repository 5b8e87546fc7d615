"""The metrics collector: per-slide latencies in a bounded, accurate
sketch with exact totals, and the percentile helper."""

import math
import random

import pytest

from repro.core.framework import SAPTopK
from repro.core.metrics import MetricsCollector, percentile
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.obs.quantiles import (
    SKETCH_ALPHA,
    SKETCH_GAMMA,
    ZERO_BUCKET,
    nearest_ranks,
)

from ..conftest import make_objects, random_scores


def record_all(latencies):
    metrics = MetricsCollector()
    for latency in latencies:
        metrics.record(candidate_count=1, memory_bytes=1, latency_seconds=latency)
    return metrics


class TestSketchCollector:
    def test_sketch_stays_bounded_and_totals_stay_exact(self):
        rng = random.Random(3)
        latencies = [rng.uniform(2e-5, 5e-3) for _ in range(30_000)]
        metrics = record_all(latencies)
        # At most one bucket per factor gamma across the values' range,
        # however many latencies were recorded ...
        span = math.log(5e-3 / 2e-5) / math.log(SKETCH_GAMMA)
        assert len(metrics.latency_buckets) <= span + 2
        assert metrics.latency_count == len(latencies)
        # ... while totals and maxima remain exact.
        assert metrics.latency_total == pytest.approx(math.fsum(latencies))
        assert metrics.max_latency == max(latencies)

    def test_percentiles_within_alpha_of_exact_nearest_rank(self):
        rng = random.Random(5)
        latencies = [rng.lognormvariate(-9, 1.5) for _ in range(5_000)]
        metrics = record_all(latencies)
        fractions = (0.0, 0.25, 0.5, 0.95, 0.99, 1.0)
        exact = nearest_ranks(latencies, fractions)
        for estimate, truth in zip(metrics.latency_percentiles(fractions), exact):
            assert abs(estimate - truth) <= SKETCH_ALPHA * truth * (1 + 1e-9)

    def test_bucket_index_rule(self):
        # Bucket i holds (gamma**(i-1), gamma**i]; anything <= 0 the zero bucket.
        metrics = record_all([1.0, 1.0, SKETCH_GAMMA * 1.001, 0.0, -1e-9])
        assert metrics.latency_buckets == {0: 2, 2: 1, ZERO_BUCKET: 2}
        assert metrics.latency_percentiles((0.0,)) == [0.0]
        assert metrics.latency_count == 5

    def test_copy_does_not_share_the_sketch(self):
        metrics = record_all([0.001, 0.002])
        snapshot = metrics.copy()
        metrics.record(1, 1, 0.5)
        assert snapshot.latency_count == 2
        assert snapshot.latency_buckets != metrics.latency_buckets
        assert snapshot.max_latency == 0.002

    def test_slides_without_latency_leave_the_sketch_empty(self):
        metrics = MetricsCollector()
        metrics.record(candidate_count=3, memory_bytes=10)
        assert metrics.slides == 1 and metrics.latency_count == 0
        assert metrics.latency_percentiles((0.5, 0.99)) == [0.0, 0.0]


class TestMerged:
    def test_merged_equals_one_collector_recording_both(self):
        rng = random.Random(4)
        samples = [
            (rng.randrange(50), rng.randrange(4096), rng.randrange(1, 64) / 1024)
            for _ in range(40)
        ]
        first, later, both = MetricsCollector(), MetricsCollector(), MetricsCollector()
        for index, sample in enumerate(samples):
            (first if index < 25 else later).record(*sample)
            both.record(*sample)
        merged = first.merged(later)
        assert merged == both
        assert merged.latency_buckets is not first.latency_buckets
        assert first.slides == 25 and later.slides == 15


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

