"""Serving layer walkthrough: a producer and a consumer over real HTTP.

This example boots ``repro serve`` in-process (the same server the CLI
command runs), then plays both sides of the network:

* the **producer** POSTs stock ticks to ``/v1/events`` in at-least-once
  style — every batch is sent *twice*, and the server's idempotent
  dedupe window collapses the redeliveries before the engine sees them;
* the **consumer** opens the SSE stream of a subscription and prints the
  continuous top-k answers as the server pushes them.

At the end, the answers received over the network are checked
byte-for-byte against an embedded :class:`repro.StreamEngine` fed the
same admitted events — the serving layer adds a network surface, not an
approximation.  This script doubles as the CI serving smoke test: it
exits non-zero unless the results match exactly and the server shuts
down cleanly.

Run with::

    PYTHONPATH=src python examples/serving_client.py
"""

import json
import socket
import threading
import urllib.request

from repro import StreamEngine, StreamObject, TopKQuery
from repro.serve import ServeConfig, run_in_thread
from repro.streams import make_dataset

STREAM_LENGTH = 2_000
QUERY = {"name": "hot-stocks", "n": 200, "k": 5, "s": 25}
BATCH = 100


def request(base_url, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base_url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        raw = response.read()
        return json.loads(raw) if raw else None


def consume_sse(port, path, records, ready):
    """A minimal SSE consumer on a raw socket (no client library needed)."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: local\r\n\r\n".encode())
    buffer = b""
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
            if b": subscribed" in buffer:
                ready.set()
            while b"\n\n" in buffer:
                frame, _, buffer = buffer.partition(b"\n\n")
                event, data = None, []
                for line in frame.splitlines():
                    if line.startswith(b"event: "):
                        event = line[7:].decode()
                    elif line.startswith(b"data: "):
                        data.append(line[6:])
                if event == "result":
                    records.append(json.loads(b"\n".join(data)))
                elif event == "end":
                    return
    finally:
        sock.close()


def embedded_answers(scores):
    """Ground truth: the same admitted events through an embedded engine."""
    engine = StreamEngine(keep_results=True)
    engine.subscribe(
        "ref", TopKQuery(n=QUERY["n"], k=QUERY["k"], s=QUERY["s"])
    )
    engine.push_many(
        [StreamObject(score=score, t=t) for t, score in enumerate(scores)],
        chunk_size=len(scores),
    )
    produced = engine.drain_results().get("ref", [])
    engine.close()
    return [
        (r.slide_index, r.window_end, tuple((o.score, o.t) for o in r.objects))
        for r in produced
    ]


def main() -> int:
    scores = [obj.score for obj in make_dataset("STOCK").take(STREAM_LENGTH)]

    with run_in_thread(ServeConfig(port=0)) as handle:
        print(f"server    : {handle.base_url}")
        created = request(handle.base_url, "POST", "/v1/subscriptions", QUERY)
        print(
            f"subscribed: {created['name']} "
            f"(n={QUERY['n']}, k={QUERY['k']}, s={QUERY['s']})"
        )

        records, ready = [], threading.Event()
        consumer = threading.Thread(
            target=consume_sse,
            args=(handle.port, f"/v1/subscriptions/{QUERY['name']}/stream", records, ready),
            daemon=True,
        )
        consumer.start()
        ready.wait(5)

        duplicates = 0
        for begin in range(0, len(scores), BATCH):
            events = [
                {"id": f"tick-{begin + i}", "score": score}
                for i, score in enumerate(scores[begin : begin + BATCH])
            ]
            # At-least-once producer: every batch is delivered twice.
            request(handle.base_url, "POST", "/v1/events", {"events": events})
            reply = request(handle.base_url, "POST", "/v1/events", {"events": events})
            duplicates += reply["duplicates"]
        print(f"produced  : {len(scores)} ticks, {duplicates} redeliveries deduped")

        expected = embedded_answers(scores)
        polled = request(
            handle.base_url, "GET", f"/v1/subscriptions/{QUERY['name']}/results"
        )["results"]
        stats = request(handle.base_url, "GET", f"/v1/subscriptions/{QUERY['name']}")
        print(
            f"delivered : {stats['results_pushed']} answers "
            f"({stats['clients']} streaming client)"
        )
        for record in polled[-3:]:
            top = ", ".join(f"{o['score']:.2f}" for o in record["objects"])
            print(f"  slide {record['slide_index']:>3}: top-{QUERY['k']} = [{top}]")

    consumer.join(5)  # the server's shutdown ends the SSE stream

    served = [
        (r["slide_index"], r["window_end"], tuple((o["score"], o["t"]) for o in r["objects"]))
        for r in polled
    ]
    streamed = [
        (r["slide_index"], r["window_end"], tuple((o["score"], o["t"]) for o in r["objects"]))
        for r in records
    ]
    if served != expected:
        print("FAIL: polled answers differ from the embedded engine")
        return 1
    if streamed != expected:
        print("FAIL: streamed answers differ from the embedded engine")
        return 1
    if consumer.is_alive():
        print("FAIL: the SSE stream did not end on server shutdown")
        return 1
    print(f"exact     : {len(expected)} answers byte-identical to the embedded engine")
    print("shutdown  : clean (stream ended, server thread joined)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
