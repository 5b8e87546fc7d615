"""The serving layer's metrics exposition: /v1/metrics and /v1/metrics.json."""

import http.client
import json
import time

import pytest

from repro.serve import ServeConfig, run_in_thread


@pytest.fixture()
def server():
    with run_in_thread(ServeConfig(port=0)) as handle:
        yield handle


def fetch(handle, path):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


def post(handle, path, body):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
    try:
        conn.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def load(handle, events=200):
    assert post(handle, "/v1/subscriptions", {"name": "w", "n": 50, "k": 3, "s": 10})[0] == 201
    status, _ = post(
        handle,
        "/v1/events",
        {"events": [{"id": f"e{i}", "score": float(i % 13)} for i in range(events)]},
    )
    assert status in (200, 202)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        status, body, _ = fetch(handle, "/v1/metrics")
        if b"repro_slides_total" in body:
            return
        time.sleep(0.02)
    raise AssertionError("engine metrics never appeared on /v1/metrics")


class TestPrometheusEndpoint:
    def test_content_type_is_text_format_004(self, server):
        status, _, headers = fetch(server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"

    def test_serving_and_engine_instruments_exposed(self, server):
        load(server)
        _, body, _ = fetch(server, "/v1/metrics")
        text = body.decode()
        for name in (
            "repro_ingested_total",      # serving: ingest batcher
            "repro_dedupe_admitted_total",
            "repro_sessions",
            "repro_events_ingested_total",  # engine, behind the facade
            "repro_slides_total",
            "repro_deliver_latency_seconds_bucket",
        ):
            assert name in text, f"{name} missing from /v1/metrics"
        assert "# TYPE repro_ingested_total counter" in text

    def test_counters_are_monotone_across_scrapes(self, server):
        load(server, events=100)

        def value(text, name):
            for line in text.splitlines():
                if line.startswith(name + " ") or line.startswith(name + "{"):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        first = fetch(server, "/v1/metrics")[1].decode()
        post(
            server,
            "/v1/events",
            {"events": [{"id": f"x{i}", "score": 1.0} for i in range(100)]},
        )
        time.sleep(0.3)
        second = fetch(server, "/v1/metrics")[1].decode()
        for name in ("repro_ingested_total", "repro_dedupe_admitted_total"):
            assert value(second, name) >= value(first, name)
        assert value(second, "repro_ingested_total") == 200.0


class TestJsonEndpoint:
    def test_snapshot_document_shape(self, server):
        load(server)
        status, body, headers = fetch(server, "/v1/metrics.json")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        document = json.loads(body)
        assert set(document) == {"ts", "metrics"}
        assert isinstance(document["ts"], float)
        names = {record["name"] for record in document["metrics"]}
        assert "repro_ingested_total" in names
        histogram = next(
            record
            for record in document["metrics"]
            if record["name"] == "repro_deliver_latency_seconds"
        )
        assert {"buckets", "boundaries", "sum", "count"} <= set(histogram)
