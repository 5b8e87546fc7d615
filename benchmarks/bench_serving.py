"""Serving layer — sustained HTTP ingestion and subscription churn.

Trajectory benchmark: the headline numbers are recorded in
``BENCH_serving.json`` at the repository root to track the serving
layer's overhead across PRs.

Two measurements, both over real sockets against ``repro.serve``:

* **Sustained ingestion** — events/second through ``POST /v1/events`` with
  mixed-window subscriptions attached, batched the way a real producer
  would batch (hundreds of events per request, keep-alive connection).
  The answers the server delivers are checked byte-for-byte against an
  embedded :class:`StreamEngine` fed the same admitted sequence, so the
  measured number is for *exact* service, not best-effort.
* **Subscription churn** — subscribe/unsubscribe cycles per second while
  the service stays up, the control-plane cost of a multi-tenant server.
"""

import http.client
import json
import os
import time

from repro import StreamEngine, StreamObject, TopKQuery
from repro.bench.reporting import format_table, write_results
from repro.bench.workloads import dataset_stream
from repro.serve import ServeConfig, run_in_thread

from conftest import run_sweep

#: Events per POST /v1/events request: large enough to amortise HTTP
#: round-trips, small enough to stay far under the body limit.
BATCH = 500

#: Window shapes served while ingesting (n, k, s).
SHAPES = [(1000, 10, 50), (500, 5, 25), (2000, 20, 100)]

#: Trajectory file recorded at the repository root.
TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serving.json")


class Client:
    """One keep-alive HTTP connection to the served API."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method, path, body=None):
        payload = json.dumps(body) if body is not None else None
        self.conn.request(
            method, path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None

    def close(self):
        self.conn.close()


def reference_answers(scores, shapes):
    """The embedded-engine ground truth for the same admitted sequence."""
    engine = StreamEngine(keep_results=True)
    for index, (n, k, s) in enumerate(shapes):
        engine.subscribe(f"q{index}", TopKQuery(n=n, k=k, s=s))
    engine.push_many(
        [StreamObject(score=score, t=t) for t, score in enumerate(scores)],
        chunk_size=len(scores),
    )
    produced = engine.drain_results()
    engine.close()
    return {
        name: [
            (r.slide_index, r.window_end, tuple((o.score, o.t) for o in r.objects))
            for r in results
        ]
        for name, results in produced.items()
    }


def scale_shapes(scale):
    """Shrink the window shapes to the scale's stream length."""
    factor = max(1, 12_000 // max(1, scale.stream_length))
    return [
        (max(20, n // factor), min(k, max(2, n // factor // 2)), max(5, s // factor))
        for n, k, s in SHAPES
    ]


def measure_serving(scale):
    scores = [obj.score for obj in dataset_stream("STOCK", scale.stream_length)]
    shapes = scale_shapes(scale)

    with run_in_thread(ServeConfig(port=0, linger_ms=20)) as handle:
        client = Client(handle.port)
        try:
            for index, (n, k, s) in enumerate(shapes):
                status, _ = client.request(
                    "POST",
                    "/v1/subscriptions",
                    {"name": f"q{index}", "n": n, "k": k, "s": s},
                )
                assert status == 201, f"subscribe q{index} failed with {status}"

            # Sustained ingestion: every event carries an id, so the
            # measured path includes the dedupe window.
            started = time.perf_counter()
            accepted = 0
            for begin in range(0, len(scores), BATCH):
                events = [
                    {"id": f"e{begin + i}", "score": score}
                    for i, score in enumerate(scores[begin : begin + BATCH])
                ]
                status, body = client.request("POST", "/v1/events", {"events": events})
                assert status == 200
                accepted += body["accepted"]
            ingest_seconds = time.perf_counter() - started
            assert accepted == len(scores)

            # Exactness: drain each subscription's history and compare
            # identities against the embedded run (same t origin — this
            # server saw no events before the subscriptions existed).
            deadline = time.monotonic() + 30
            expected = reference_answers(scores, shapes)
            served = {}
            while time.monotonic() < deadline:
                served = {}
                for index in range(len(shapes)):
                    _, body = client.request(
                        "GET", f"/v1/subscriptions/q{index}/results"
                    )
                    served[f"q{index}"] = [
                        (
                            r["slide_index"],
                            r["window_end"],
                            tuple((o["score"], o["t"]) for o in r["objects"]),
                        )
                        for r in body["results"]
                    ]
                if all(
                    len(served[name]) >= len(expected.get(name, []))
                    for name in served
                ):
                    break
                time.sleep(0.05)
            exact = served == expected

            # Subscription churn: create/destroy cycles on a live server.
            cycles = max(20, scale.stream_length // 100)
            started = time.perf_counter()
            for cycle in range(cycles):
                status, _ = client.request(
                    "POST",
                    "/v1/subscriptions",
                    {"name": f"churn-{cycle}", "n": 100, "k": 5, "s": 10},
                )
                assert status == 201
                status, _ = client.request(
                    "DELETE", f"/v1/subscriptions/churn-{cycle}"
                )
                assert status == 204
            churn_seconds = time.perf_counter() - started

            _, stats = client.request("GET", "/v1/stats")
        finally:
            client.close()

    return [
        {
            "events": len(scores),
            "subscriptions": len(shapes),
            "ingest_seconds": round(ingest_seconds, 4),
            "events_per_second": round(len(scores) / ingest_seconds, 1),
            "churn_cycles": cycles,
            "churn_seconds": round(churn_seconds, 4),
            "churn_per_second": round(cycles / churn_seconds, 1),
            "exact": exact,
            "answers_delivered": stats["sessions"]["results_pushed"],
            "dedupe": stats["ingest"]["dedupe"],
        }
    ]


def write_trajectory(rows, scale) -> None:
    row = rows[0]
    payload = {
        "benchmark": "serving",
        "scale": scale.name,
        "rows": rows,
        "headline": {
            "events_per_second": row["events_per_second"],
            "churn_per_second": row["churn_per_second"],
            "exact": row["exact"],
        },
    }
    try:
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass  # read-only checkout; the results dir copy still exists


def test_serving(benchmark, scale):
    rows = run_sweep(benchmark, measure_serving, scale)
    assert rows
    row = rows[0]
    table = format_table(
        f"Serving ({scale.name} scale): {row['events']} events into "
        f"{row['subscriptions']} subscriptions over HTTP",
        ["events/s", "ingest s", "churn/s", "answers", "exact"],
        [
            [
                row["events_per_second"],
                row["ingest_seconds"],
                row["churn_per_second"],
                row["answers_delivered"],
                str(row["exact"]),
            ]
        ],
    )
    print("\n" + table)
    write_results("serving", table, raw={"rows": rows})
    write_trajectory(rows, scale)

    # The serving layer is only worth its overhead if it is exact: the
    # answers pushed over the network must match the embedded engine.
    assert row["exact"], "served answers differ from the embedded engine"
    assert row["answers_delivered"] > 0
