"""Cluster-side observability: the merged metrics snapshot.

One sharded run feeds every case: ``metrics_snapshot()`` merges the
worker registries with the facade's and stamps each worker series with
its shard, and ``repro_stage_seconds{stage}`` times every pipeline stage
from inside the program.
"""

import pytest

from repro.cluster import ShardedStreamEngine
from repro.core.query import TopKQuery
from repro.obs import find_series, render_prometheus, snapshot_value
from repro.streams import make_dataset


@pytest.fixture(scope="module")
def sharded_snapshot():
    with ShardedStreamEngine(2, placement="least-loaded", transport="queue") as engine:
        engine.subscribe("a", TopKQuery(n=200, k=5, s=20), keep_results=False)
        engine.subscribe("b", TopKQuery(n=100, k=5, s=10), keep_results=False)
        engine.push_many(make_dataset("STOCK").take(2000))
        engine.synchronize()
        return engine.metrics_snapshot()


class TestMetricsSnapshot:
    def test_cluster_instruments_present(self, sharded_snapshot):
        snapshot = sharded_snapshot
        names = {record["name"] for record in snapshot}
        assert {
            "repro_events_ingested_total",
            "repro_slides_total",
            "repro_results_delivered_total",
            "repro_deliver_latency_seconds",
            "repro_stage_seconds",
            "repro_transport_bytes_total",
        } <= names

    def test_worker_series_carry_shard_labels(self, sharded_snapshot):
        snapshot = sharded_snapshot
        shards = {
            (record.get("labels") or {}).get("shard")
            for record in find_series(snapshot, "repro_events_ingested_total")
        }
        assert {"0", "1"} <= shards

    def test_counts_match_the_workload(self, sharded_snapshot):
        # Every shard hosting a subscription receives the full stream, so
        # each shard-labelled ingest series counts exactly the workload.
        snapshot = sharded_snapshot
        for shard in ("0", "1"):
            assert (
                snapshot_value(
                    snapshot, "repro_events_ingested_total", {"shard": shard}
                )
                == 2000.0
            )
        assert snapshot_value(snapshot, "repro_slides_total") > 0

    def test_snapshot_renders_as_prometheus_text(self, sharded_snapshot):
        snapshot = sharded_snapshot
        text = render_prometheus(snapshot)
        assert "# TYPE repro_events_ingested_total counter" in text
        assert "repro_stage_seconds_bucket" in text


class TestStageTimings:
    def test_every_pipeline_stage_is_timed(self, sharded_snapshot):
        # encode/send in the router, decode/push in the workers, seal in
        # the SAP framework and merge in each query group.
        for stage in ("encode", "send", "decode", "push", "seal", "merge"):
            series = find_series(sharded_snapshot, "repro_stage_seconds", {"stage": stage})
            assert any(record["count"] > 0 for record in series), stage
