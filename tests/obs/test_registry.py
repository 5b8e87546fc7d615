"""The metrics registry: instruments, buckets, cardinality, collectors."""

import threading

import pytest

from repro.obs.registry import (
    LATENCY_BUCKETS,
    MAX_SERIES_PER_FAMILY,
    NOOP,
    SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
    log_linear_buckets,
    set_registry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"x": "1"})
        b = registry.counter("c_total", labels={"x": "1"})
        c = registry.counter("c_total", labels={"x": "2"})
        assert a is b
        assert a is not c

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"x": "1", "y": "2"})
        b = registry.counter("c_total", labels={"y": "2", "x": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestBuckets:
    def test_log_linear_125_per_decade(self):
        assert log_linear_buckets(1.0, 100.0) == (
            1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
        )

    def test_boundaries_render_cleanly(self):
        # Built by parsing decimal literals, not multiplying floats, so
        # the exposition prints 5e-06 rather than 4.999...e-06.
        assert 5e-06 in log_linear_buckets(1e-6, 10.0)
        assert all(b == float(f"{b:g}") for b in LATENCY_BUCKETS)

    def test_default_ranges(self):
        assert LATENCY_BUCKETS[0] == 1e-6 and LATENCY_BUCKETS[-1] == 10.0
        assert SIZE_BUCKETS[0] == 1.0 and SIZE_BUCKETS[-1] == 1e9

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            log_linear_buckets(10.0, 1.0)
        with pytest.raises(ValueError):
            log_linear_buckets(0.0, 1.0)

    def test_observation_lands_in_correct_bucket(self):
        # counts[i] holds values <= boundaries[i] (exclusive of the one
        # below); a value on a boundary belongs to that boundary's bucket.
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 5.0, 99.0):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 2, 1]
        assert histogram.count == 7
        assert histogram.sum == pytest.approx(113.0)

    def test_weighted_observation_equals_repeated_ones(self):
        weighted = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        repeated = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 5.0))
        weighted.observe(1.5, 4)
        weighted.observe(7.0)
        for value in (1.5, 1.5, 1.5, 1.5, 7.0):
            repeated.observe(value)
        assert weighted.counts == repeated.counts == [0, 4, 0, 1]
        assert weighted.count == repeated.count == 5
        assert weighted.sum == pytest.approx(repeated.sum)
        NOOP.observe(1.0, 3)

    def test_unsorted_buckets_raise(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_quantile_interpolates_within_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            histogram.observe(1.5)  # all in the (1, 2] bucket
        assert 1.0 <= histogram.quantile(0.5) <= 2.0
        assert histogram.quantile(0.0) == 1.0

    def test_quantile_of_overflow_clamps_to_top_boundary(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 2.0

    def test_quantile_empty_is_zero(self):
        assert MetricsRegistry().histogram("h").quantile(0.95) == 0.0


class TestCardinality:
    def test_series_cap_routes_to_overflow(self):
        registry = MetricsRegistry()
        for index in range(MAX_SERIES_PER_FAMILY):
            registry.counter("fam_total", labels={"id": str(index)})
        spill_a = registry.counter("fam_total", labels={"id": "way-too-many"})
        spill_b = registry.counter("fam_total", labels={"id": "another-one"})
        assert spill_a is spill_b
        assert dict(spill_a.labels) == {"overflow": "true"}
        snapshot = registry.snapshot()
        family = [r for r in snapshot if r["name"] == "fam_total"]
        assert len(family) == MAX_SERIES_PER_FAMILY + 1

    def test_existing_series_survive_the_cap(self):
        registry = MetricsRegistry()
        first = registry.counter("fam_total", labels={"id": "0"})
        for index in range(1, MAX_SERIES_PER_FAMILY + 10):
            registry.counter("fam_total", labels={"id": str(index)})
        assert registry.counter("fam_total", labels={"id": "0"}) is first


class TestDisabledRegistry:
    def test_disabled_hands_out_noop(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c_total") is NOOP
        assert registry.gauge("g") is NOOP
        assert registry.histogram("h") is NOOP

    def test_noop_absorbs_everything(self):
        NOOP.inc()
        NOOP.dec()
        NOOP.set(5)
        NOOP.observe(1.0)
        assert NOOP.value == 0.0
        assert NOOP.quantile(0.95) == 0.0

    def test_disabled_snapshot_is_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c_total").inc()
        registry.add_collector(lambda reg: reg.counter("x_total").inc())
        assert registry.snapshot() == []


class TestCollectors:
    def test_collector_runs_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"occupancy": 17}

        def collect(reg):
            reg.gauge("occ").set(state["occupancy"])

        registry.add_collector(collect)
        assert registry.snapshot()[0]["value"] == 17.0
        state["occupancy"] = 3
        records = {r["name"]: r for r in registry.snapshot()}
        assert records["occ"]["value"] == 3.0

    def test_remove_collector(self):
        registry = MetricsRegistry()
        calls = []
        collector = calls.append
        registry.add_collector(collector)
        registry.remove_collector(collector)
        registry.snapshot()
        assert calls == []
        registry.remove_collector(collector)  # idempotent


class TestSnapshotAndDefault:
    def test_snapshot_wire_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "counts things", {"k": "v"}).inc(2)
        registry.histogram("h_seconds", buckets=(1.0, 2.0)).observe(1.5)
        records = {r["name"]: r for r in registry.snapshot()}
        counter = records["c_total"]
        assert counter["type"] == "counter"
        assert counter["help"] == "counts things"
        assert counter["labels"] == {"k": "v"}
        assert counter["value"] == 2.0
        histogram = records["h_seconds"]
        assert histogram["boundaries"] == [1.0, 2.0]
        assert histogram["buckets"] == [0, 1, 0]
        assert histogram["count"] == 1

    def test_set_registry_swaps_process_default(self):
        replacement = MetricsRegistry(enabled=False)
        previous = set_registry(replacement)
        try:
            assert get_registry() is replacement
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_concurrent_creation_is_safe(self):
        registry = MetricsRegistry()
        errors = []

        def worker(tag):
            try:
                for index in range(200):
                    registry.counter("c_total", labels={"i": str(index % 20)}).inc()
            except Exception as error:  # pragma: no cover - failure path
                errors.append((tag, error))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = sum(
            r["value"] for r in registry.snapshot() if r["name"] == "c_total"
        )
        assert total == 4 * 200
