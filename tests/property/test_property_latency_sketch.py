"""The latency sketch: accurate, exactly mergeable, and durable.

Every subscription keeps its per-slide latencies in a log-bucket sketch
(:mod:`repro.obs.quantiles`).  For any recorded latencies in
``[1e-7, 1e3]`` seconds, zeros included:

* ``Subscription.stats()`` reports p50/p95/p99 within 1% relative of the
  exact nearest-rank percentile of every recorded value, and never above
  the exact maximum;
* merging two subscriptions' telemetry gives the buckets and stats of one
  collector fed both sequences;
* a ``GroupState`` round trip through ``dumps``/``loads`` keeps the sketch.

``REPRO_SKETCH_EXAMPLES`` raises the example count (CI runs it high).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.merge import merged_latency_stats
from repro.core.metrics import MetricsCollector
from repro.core.state import dumps, loads
from repro.engine import QuerySpec, StreamEngine
from repro.obs.quantiles import SKETCH_ALPHA, merge_sketches, nearest_ranks

EXAMPLES = int(os.environ.get("REPRO_SKETCH_EXAMPLES", "60"))
#: The percentile keys of the stats schema, with their fractions.
PERCENTILES = (("p50_latency", 0.5), ("p95_latency", 0.95), ("p99_latency", 0.99))

latency = st.one_of(
    st.floats(min_value=1e-7, max_value=1e3, allow_nan=False), st.just(0.0)
)
latencies = st.lists(latency, min_size=1, max_size=300)


def _subscription(name="q"):
    """A subscription that has seen no slides (its collector is empty)."""
    return StreamEngine().subscribe(name, QuerySpec(n=12, k=2, s=6))


def _record(metrics, values):
    for value in values:
        metrics.record(1, 1, value)


def _telemetry(subscription):
    return {
        "stats": subscription.stats(),
        "latencies": subscription.metrics.latency_buckets,
        "shard": 0,
    }


@settings(max_examples=EXAMPLES, deadline=None)
@given(latencies)
def test_stats_percentiles_are_within_one_percent(values):
    subscription = _subscription()
    _record(subscription.metrics, values)
    stats = subscription.stats()
    exact = nearest_ranks(values, [fraction for _, fraction in PERCENTILES])
    for (key, _), truth in zip(PERCENTILES, exact):
        # 1e-9 allows for rounding at a bucket's edge.
        assert abs(stats[key] - truth) <= SKETCH_ALPHA * truth * (1 + 1e-9)
    assert stats["p50_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
    assert stats["p99_latency"] <= stats["max_latency"] == max(values)
    assert stats["latency_samples"] == len(values)


@settings(max_examples=EXAMPLES, deadline=None)
@given(latencies, latencies)
def test_merged_telemetry_equals_one_collector_fed_both(first, second):
    a, b = _subscription("a"), _subscription("b")
    _record(a.metrics, first)
    _record(b.metrics, second)
    both = MetricsCollector()
    _record(both, first + second)
    assert (
        merge_sketches([a.metrics.latency_buckets, b.metrics.latency_buckets])
        == both.latency_buckets
    )
    merged = merged_latency_stats([{"a": _telemetry(a)}, {"b": _telemetry(b)}])
    for (key, _), value in zip(PERCENTILES, both.latency_percentiles([0.5, 0.95, 0.99])):
        assert merged[key] == value
    assert merged["latency_samples"] == both.latency_count
    assert merged["max_latency"] == both.max_latency


@settings(max_examples=EXAMPLES, deadline=None)
@given(latencies)
def test_group_state_round_trip_keeps_the_sketch(values):
    engine = StreamEngine()
    subscription = engine.subscribe("q", QuerySpec(n=12, k=2, s=6))
    _record(subscription.metrics, values)
    state = engine.capture_subscription("q")
    copied = loads(dumps(state))
    assert copied.members[0].metrics == subscription.metrics
    restored = StreamEngine().restore_subscription(copied)
    assert restored.metrics.latency_buckets == subscription.metrics.latency_buckets
    assert restored.stats() == subscription.stats()
