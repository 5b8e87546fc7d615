"""End-to-end tests of the serving layer over real sockets.

One server per test class (module-scoped fixtures would leak state
between tests that mutate subscriptions), driven with
:mod:`http.client` — the stdlib client exercises keep-alive, chunk-free
bodies, and status codes exactly the way external producers will.
"""

import json
import socket
import time

import pytest

from repro import QuerySpec, StreamEngine, StreamObject
from repro.serve import (
    DISCONNECT,
    ServeConfig,
    run_in_thread,
)

@pytest.fixture()
def server():
    with run_in_thread(ServeConfig(port=0)) as handle:
        yield handle


def request(handle, method, path, body=None):
    """One request; a ``bytes`` body is sent as given (``json.dumps``
    cannot write ``1e400``)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
    try:
        payload = body if body is None or isinstance(body, bytes) else json.dumps(body)
        conn.request(
            method, path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        raw = response.read()
        decoded = json.loads(raw) if raw else None
        return response.status, decoded, dict(response.getheaders())
    finally:
        conn.close()


def subscribe(handle, name, *, n=10, k=3, s=5, **extra):
    body = {"name": name, "n": n, "k": k, "s": s, **extra}
    return request(handle, "POST", "/v1/subscriptions", body)


def ingest(handle, events):
    return request(handle, "POST", "/v1/events", {"events": events})


def wait_for_results(handle, name, minimum=1, timeout=5.0):
    """Poll (without draining) until the subscription has answers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = request(handle, "GET", f"/v1/subscriptions/{name}/results")
        assert status == 200
        if len(body["results"]) >= minimum:
            return body["results"]
        time.sleep(0.02)
    raise AssertionError(f"no results for {name!r} within {timeout}s")


class TestSubscriptionLifecycle:
    def test_create_list_inspect_unsubscribe(self, server):
        status, body, _ = subscribe(server, "alpha", n=20, k=5, s=10)
        assert status == 201
        assert body["query"] == {"n": 20, "k": 5, "s": 10, "time_based": False}
        assert body["algorithm"] == "SAP"

        status, body, _ = request(server, "GET", "/v1/subscriptions")
        assert status == 200
        assert [s["name"] for s in body["subscriptions"]] == ["alpha"]

        status, body, _ = request(server, "GET", "/v1/subscriptions/alpha")
        assert status == 200
        assert body["name"] == "alpha"
        assert "engine" in body  # engine-side stats merged in

        status, _, _ = request(server, "DELETE", "/v1/subscriptions/alpha")
        assert status == 204
        status, _, _ = request(server, "GET", "/v1/subscriptions/alpha")
        assert status == 404

    def test_duplicate_name_conflicts(self, server):
        assert subscribe(server, "dup")[0] == 201
        status, body, _ = subscribe(server, "dup")
        assert status == 409
        assert "exists" in body["error"]

    def test_bad_bodies_are_400(self, server):
        for body in [
            {"name": "x"},  # missing n/k
            {"name": "x", "n": 10, "k": 30, "s": 5},  # k exceeds the window
            {"name": "x", "n": 10, "k": 3, "s": 5, "algorithm": "nope"},
            {"name": "", "n": 10, "k": 3, "s": 5},
        ]:
            status, _, _ = request(server, "POST", "/v1/subscriptions", body)
            assert status == 400, body

    def test_non_integral_shapes_are_400_and_create_nothing(self, server):
        # int() once truncated these to n=10, k=2, s=1 and subscribed.
        for body in [
            {"name": "x", "n": 10.9, "k": 2.5, "s": 1.7},
            {"name": "x", "n": 10, "k": 2, "s": True},
            {"name": "x", "n": 10, "k": 2, "preference": [1.0], "cluster_id": 0.5},
        ]:
            status, reply, _ = request(server, "POST", "/v1/subscriptions", body)
            assert status == 400, (body, reply)
            assert "must be an integer" in reply["error"]
        _, reply, _ = request(server, "GET", "/v1/subscriptions")
        assert reply["subscriptions"] == []

    def test_unknown_routes_and_methods(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        subscribe(server, "q")
        assert request(server, "PUT", "/v1/subscriptions/q")[0] == 405

    def test_unversioned_path_is_404(self, server):
        subscribe(server, "q")
        status, body, headers = request(server, "GET", "/subscriptions")
        assert status == 404
        assert "no route" in body["error"]
        assert "Deprecation" not in headers

    def test_health_and_stats(self, server):
        status, body, _ = request(server, "GET", "/v1/health")
        assert (status, body["status"]) == (200, "ok")
        status, body, _ = request(server, "GET", "/v1/stats")
        assert status == 200
        assert body["engine"] == "local"
        assert {"ingest", "admission", "sessions"} <= set(body)


class TestAdmissionControl:
    def test_429_with_retry_after_past_the_cap(self):
        config = ServeConfig(port=0, max_subscriptions=2, retry_after=9)
        with run_in_thread(config) as handle:
            assert subscribe(handle, "a")[0] == 201
            assert subscribe(handle, "b")[0] == 201
            status, body, headers = subscribe(handle, "c")
            assert status == 429
            assert headers["Retry-After"] == "9"
            assert "limit" in body["error"]
            # Unsubscribing frees the slot for a newcomer.
            assert request(handle, "DELETE", "/v1/subscriptions/a")[0] == 204
            assert subscribe(handle, "c")[0] == 201


class TestIngestion:
    def test_duplicates_counted_and_ignored(self, server):
        subscribe(server, "q")
        events = [{"id": f"e{i}", "score": float(i), "payload": i} for i in range(15)]
        status, body, _ = ingest(server, events + events[:4])
        assert status == 200
        assert body["accepted"] == 15
        assert body["duplicates"] == 4

        results = wait_for_results(server, "q", minimum=2)
        # 15 admitted events, n=10, s=5: windows close at t=9 and t=14.
        # The four redelivered events produced nothing — with them, the
        # second window would have closed early with different members.
        assert [r["slide_index"] for r in results] == [0, 1]
        assert results[1]["objects"][0]["score"] == 14.0
        status, body, _ = request(server, "GET", "/v1/stats")
        assert body["ingest"]["dedupe"]["duplicates"] == 4

    def test_single_event_and_array_bodies(self, server):
        subscribe(server, "q")
        status, body, _ = request(server, "POST", "/v1/events", {"score": 1.5})
        assert (status, body["accepted"]) == (200, 1)
        status, body, _ = request(server, "POST", "/v1/events", [{"score": 2.0}])
        assert (status, body["accepted"]) == (200, 1)

    def test_invalid_event_rejects_the_request(self, server):
        subscribe(server, "q")
        status, body, _ = ingest(server, [{"score": "not-a-number"}])
        assert status == 400

    def test_events_without_subscribers_are_dropped(self, server):
        status, body, _ = ingest(server, [{"score": 1.0}, {"score": 2.0}])
        assert status == 200
        _, stats, _ = request(server, "GET", "/v1/stats")
        assert stats["ingest"]["dropped_no_subscribers"] == 2

    def test_partial_slides_are_pushed_at_once(self, server):
        subscribe(server, "q", n=10, k=2, s=5)
        # 12 events: all are pushed at once and the window buffers the
        # 2-event partial slide; the next 3 complete the second window.
        _, body, _ = ingest(server, [{"score": float(i)} for i in range(12)])
        assert body["pending"] == 0
        results = wait_for_results(server, "q", minimum=1)
        assert results[0]["slide_index"] == 0
        ingest(server, [{"score": float(i)} for i in range(12, 15)])
        results = wait_for_results(server, "q", minimum=2)
        assert results[1]["slide_index"] == 1
        assert results[1]["window_end"] == 14

    def test_drain_empties_history(self, server):
        subscribe(server, "q")
        ingest(server, [{"score": float(i)} for i in range(15)])
        wait_for_results(server, "q", minimum=2)
        _, body, _ = request(server, "GET", "/v1/subscriptions/q/results?drain=true")
        assert len(body["results"]) >= 2
        _, body, _ = request(server, "GET", "/v1/subscriptions/q/results")
        assert body["results"] == []


def embedded_answers(scores, *, n, k, s):
    """The answers of an embedded engine fed ``scores`` at t = 0, 1, ..."""
    engine = StreamEngine(keep_results=True, return_results=False)
    engine.subscribe("q", QuerySpec(n=n, k=k, s=s))
    engine.push_many([StreamObject(score=v, t=t) for t, v in enumerate(scores)])
    return [
        (r.slide_index, [(o.score, o.t) for o in r.objects])
        for r in engine.results("q")
    ]


def served_answers(records):
    return [
        (r["slide_index"], [(o["score"], o["t"]) for o in r["objects"]])
        for r in records
    ]


class TestNonFiniteNumbers:
    """NaN, the infinities, numbers past float64 and ints float64 would
    round get a 400 for their own request, never a 500, and leave the
    served answers as an embedded twin's."""

    HOSTILE_EVENTS = [
        b'{"events": [{"id": "a", "score": NaN}]}',
        b'{"events": [{"score": Infinity}]}',
        b'{"events": [{"score": -Infinity}]}',
        b'{"events": [{"score": 1e400}]}',
        b'{"events": [{"score": 1' + b"0" * 400 + b'}]}',
        b'{"events": [{"score": 9007199254740993}]}',
        # One bad event refuses the whole request, good events included.
        b'{"events": [{"id": "b", "score": 1.0}, {"score": 2.0}, {"score": -1e400}]}',
    ]

    HOSTILE_SUBSCRIPTIONS = [
        b'{"name": "h", "n": Infinity, "k": 3, "s": 5}',
        b'{"name": "h", "n": 10, "k": NaN, "s": 5}',
        b'{"name": "h", "n": 10, "k": 3, "s": 1e400}',
        b'{"name": "h", "n": 10, "k": 3, "s": 5, "preference": [1.0, 1e400]}',
        b'{"name": "h", "n": 10, "k": 3, "s": 5, "preference": [1.0], "pad_factor": 1e400}',
        b'{"name": "h", "n": 10, "k": 3, "s": 5, "preference": [1.0], "cluster_id": 1e400}',
    ]

    def test_hostile_events_are_refused(self, server):
        scores = [float((t * 7) % 11) for t in range(20)]
        subscribe(server, "q", n=10, k=3, s=5)
        ingest(server, [{"score": v} for v in scores[:10]])
        for raw in self.HOSTILE_EVENTS:
            status, body, _ = request(server, "POST", "/v1/events", raw)
            assert status == 400, (raw, body)
        status, body, _ = ingest(server, [{"id": "b", "score": scores[10]}])
        assert (status, body["accepted"]) == (200, 1)  # "b" was never admitted
        ingest(server, [{"score": v} for v in scores[11:]])
        results = wait_for_results(server, "q", minimum=3)
        assert served_answers(results) == embedded_answers(scores, n=10, k=3, s=5)

    def test_hostile_subscriptions_are_refused(self, server):
        for raw in self.HOSTILE_SUBSCRIPTIONS:
            status, body, _ = request(server, "POST", "/v1/subscriptions", raw)
            assert status == 400, (raw, body)
        _, body, _ = request(server, "GET", "/v1/subscriptions")
        assert body["subscriptions"] == []
        scores = [float((t * 5) % 13) for t in range(15)]
        subscribe(server, "q", n=10, k=2, s=5)
        ingest(server, [{"score": v} for v in scores])
        results = wait_for_results(server, "q", minimum=2)
        assert served_answers(results) == embedded_answers(scores, n=10, k=2, s=5)


class TestStreamingDelivery:
    def read_until(self, sock, marker, timeout=5.0):
        sock.settimeout(timeout)
        buf = b""
        while marker not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
        return buf

    def test_sse_stream_delivers_results(self, server):
        subscribe(server, "q")
        sse = socket.create_connection(("127.0.0.1", server.port))
        try:
            sse.sendall(
                b"GET /v1/subscriptions/q/stream HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            head = self.read_until(sse, b": subscribed q")
            assert b"text/event-stream" in head
            ingest(server, [{"score": float(i)} for i in range(10)])
            frame = self.read_until(sse, b"event: result")
            data = [
                line[len(b"data: "):]
                for line in frame.splitlines()
                if line.startswith(b"data: ")
            ]
            record = json.loads(b"\n".join(data))
            assert record["subscription"] == "q"
            assert len(record["objects"]) == 3  # k=3
        finally:
            sse.close()

    def test_disconnecting_sse_client_is_detached(self, server):
        subscribe(server, "q")
        sse = socket.create_connection(("127.0.0.1", server.port))
        sse.sendall(b"GET /v1/subscriptions/q/stream HTTP/1.1\r\nHost: t\r\n\r\n")
        self.read_until(sse, b": subscribed q")
        _, body, _ = request(server, "GET", "/v1/subscriptions/q")
        assert body["clients"] == 1
        sse.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            _, body, _ = request(server, "GET", "/v1/subscriptions/q")
            if body["clients"] == 0:
                break
            time.sleep(0.02)
        assert body["clients"] == 0


class TestSlowClients:
    """Deterministic backpressure tests against server internals: a
    channel is attached directly (no TCP buffering races), then the
    delivery path is driven through real ingestion."""

    def attach_channel(self, handle, name, maxlen, policy):
        import asyncio

        from repro.serve.backpressure import ClientChannel

        session = handle.server.registry.get(name)

        async def attach():
            channel = ClientChannel(maxlen=maxlen, policy=policy)
            session.attach(channel)
            return channel

        future = asyncio.run_coroutine_threadsafe(attach(), handle.loop)
        return future.result(timeout=5)

    def test_drop_oldest_accounting_reaches_session_stats(self, server):
        subscribe(server, "q", n=10, k=2, s=5)
        channel = self.attach_channel(server, "q", maxlen=2, policy="drop-oldest")
        # 30 events, n=10, s=5: windows close at t=9..29 -> 5 answers
        # offered to a 2-slot queue nobody reads -> 3 drops.
        ingest(server, [{"score": float(i)} for i in range(30)])
        deadline = time.monotonic() + 5
        body = {}
        while time.monotonic() < deadline:
            _, body, _ = request(server, "GET", "/v1/subscriptions/q")
            if body["results_dropped"] >= 3:
                break
            time.sleep(0.02)
        assert body["results_dropped"] == 3
        assert body["results_pushed"] == 5
        assert channel.stats()["queue"] == 2

    def test_disconnect_policy_closes_the_channel(self, server):
        subscribe(server, "q", n=10, k=2, s=5)
        channel = self.attach_channel(server, "q", maxlen=1, policy=DISCONNECT)
        ingest(server, [{"score": float(i)} for i in range(30)])
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if channel.closed:
                break
            time.sleep(0.02)
        assert channel.closed
        assert channel.close_reason == "slow-client"
        _, body, _ = request(server, "GET", "/v1/subscriptions/q")
        assert body["clients_disconnected"] == 1
        assert body["clients"] == 0  # the dead channel was discarded


class TestGracefulShutdown:
    def test_shutdown_pushes_the_buffered_tail(self):
        # Admitted events are pushed with their request; a partial slide
        # waits in the engine's window, not in the server, and the
        # shutdown drain leaves nothing buffered.
        handle = run_in_thread(ServeConfig(port=0))
        try:
            subscribe(handle, "q", n=10, k=2, s=5)
            ingest(handle, [{"score": float(i)} for i in range(12)])
            wait_for_results(handle, "q", minimum=1)
            assert handle.server.batcher.stats()["pending"] == 0
        finally:
            handle.stop()
        assert handle.server.batcher.stats()["pending"] == 0
        session = handle.server.registry.get("q")
        assert list(session.history)[0]["slide_index"] == 0

    def test_shutdown_delivers_final_time_based_report(self):
        # Time-based windows emit an end-of-stream report on close; the
        # shutdown drain must deliver it to the subscription history.
        config = ServeConfig(port=0)
        handle = run_in_thread(config)
        try:
            subscribe(handle, "t", n=10, k=2, s=5, time_based=True)
            ingest(handle, [{"score": float(i)} for i in range(12)])
            wait_for_results(handle, "t", minimum=1)
        finally:
            handle.stop()
        records = list(handle.server.registry.get("t").history)
        # Slide 0 closed in-stream at t=10; slide 1 is the final report.
        assert [r["slide_index"] for r in records] == [0, 1]
        assert records[1]["window_end"] == 15

    def test_stop_is_idempotent(self):
        handle = run_in_thread(ServeConfig(port=0))
        handle.stop()
        handle.stop()  # second stop is a no-op


class TestSharded:
    def test_serves_from_the_sharded_plane(self):
        config = ServeConfig(port=0, engine="sharded", shards=2)
        with run_in_thread(config) as handle:
            subscribe(handle, "a", n=10, k=3, s=5)
            subscribe(handle, "b", n=20, k=4, s=10)
            events = [{"id": f"e{i}", "score": float(i)} for i in range(40)]
            _, body, _ = ingest(handle, events + events[:7])
            assert body["duplicates"] == 7
            results_a = wait_for_results(handle, "a", minimum=7)
            results_b = wait_for_results(handle, "b", minimum=3)
            assert [r["slide_index"] for r in results_a] == list(range(7))
            assert [r["slide_index"] for r in results_b] == list(range(3))
            # Top scores are the stream maxima within each window.
            assert results_a[-1]["objects"][0]["score"] == 39.0
