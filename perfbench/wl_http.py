"""http-ingest: ``repro serve`` (default local engine) in its own process.

Two subscriptions, (1000, 10, 50) and (2000, 20, 100).  One producer
connection POSTs id-carrying JSON batches to ``/v1/events``, about 5% of
each batch being redelivered ids of the batch before; one SSE connection
streams the first subscription.  The second subscription's answers are
drained from ``/v1/subscriptions/{name}/results`` between segments.

Phases after a warm-up:

* open loop -- POSTs are due on a fixed schedule at :data:`OPEN_RATE`
  events/s, in blocks of :data:`OPEN_BLOCK` events.  A POST that goes out
  late is late for every event in it: answer latency is the SSE frame's
  arrival minus the due time of the POST carrying the event that
  completed the slide, and the generator's lag behind its schedule and
  the server's ``pending`` backlog are reported;
* closed loop -- segments of :data:`SEGMENT` events POSTed back to back;
  a segment ends when the SSE answer to its last event arrives.

The server and the load generator share one CPU, so no hand-off waits
for the host to wake another virtual CPU.  Times are calibrated to that
CPU's speed (``calibrate``), probed between blocks and segments while
the server is idle; the open-loop schedule restarts after each probe.
The traced run times the server's calls inside the server process
(``serve_host.py``) over the closed-loop phase.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import calibrate
import instruments
from common import (BENCH_DIR, OUT_DIR, child_env, median, peak_mb, percentile,
                    reset_peak)
from inputs import ScoreStream
from oracle import Oracle
from tracing import per_layer_rows

STREAMED = ("s1", 1000, 10, 50)
POLLED = ("s2", 2000, 20, 100)
#: Fresh events per POST (a multiple of every slide, so each POST is
#: pushed through the engine before its response).
BATCH = 200
#: Redelivered ids per POST (5% of the batch).
DUPLICATES = 10
#: Offered rate of the open-loop phase, events/s: a quarter or less of the
#: closed-loop capacity on one x86 CPU, so latency is mostly service time
#: and a slower host does not tip it into queueing.
OPEN_RATE = 6_000
#: Events between drains of the polled subscription's answers (it keeps
#: the last 1024; this leaves 400).
POLL_EVERY = 40_000
#: Closed-loop events per segment; throughput is the median over segments.
SEGMENT = 4_000
#: Open-loop events between calibration probes.
OPEN_BLOCK = 4_000
WARMUP = 4_000
OPEN_SHARE = 0.5
SETUP_REPEATS = 5
SAMPLE_EVERY = 8
TIMEOUT_S = 30.0
SWITCH_INTERVAL_S = 0.0005
#: Seconds before a POST is due that the generator stops sleeping and spins.
SPIN_S = 0.002


class SseReader(threading.Thread):
    """Reads one subscription's SSE stream; records each answer with the
    time its frame arrived."""

    def __init__(self, port: int, name: str) -> None:
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.sock.sendall(f"GET /v1/subscriptions/{name}/stream HTTP/1.1\r\n"
                          f"Host: 127.0.0.1\r\n\r\n".encode())
        self.stream = self.sock.makefile("rb")
        status = self.stream.readline()
        if b" 200 " not in status:
            raise RuntimeError(f"SSE stream of {name} answered {status!r}")
        while self.stream.readline().strip():
            pass  # headers
        self.stream.readline()  # the ": subscribed" comment: ready
        self.stream.readline()
        self.answers: List[Tuple[float, int, int, list]] = []
        self.last_end = -1
        self.changed = threading.Condition()

    def run(self) -> None:
        readline = self.stream.readline
        event = None
        try:
            while True:
                line = readline()
                if not line:
                    return
                if line.startswith(b"event:"):
                    event = line[6:].strip()
                elif line.startswith(b"data:") and event == b"result":
                    arrived = time.perf_counter()
                    record = json.loads(line[5:])
                    with self.changed:
                        self.answers.append((arrived, record["slide_index"],
                                             record["window_end"], record["objects"]))
                        self.last_end = record["window_end"]
                        self.changed.notify_all()
        except OSError:
            return

    def wait_for(self, window_end: int) -> float:
        """Block until the answer ending at ``window_end`` arrived; returns
        its arrival time."""
        with self.changed:
            if not self.changed.wait_for(lambda: self.last_end >= window_end, TIMEOUT_S):
                raise TimeoutError(f"no SSE answer ending at t={window_end}")
        for arrived, _, end, _ in reversed(self.answers):
            if end == window_end:
                return arrived
        raise LookupError(f"no SSE answer ending at t={window_end}")

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed by the server
        self.stream.close()
        self.sock.close()


class Server:
    """One server process and the benchmark's connections to it."""

    def __init__(self, traced: bool) -> None:
        if traced:
            command = [sys.executable, "-u", str(BENCH_DIR / "serve_host.py")]
        else:
            command = [sys.executable, "-u", "-m", "repro"]
        command += ["serve", "--port", "0"]
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, env=child_env(), text=True)
        port = None
        for line in self.process.stdout:
            if line.startswith("serving"):
                port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if port is None:
            self.stop()
            raise RuntimeError("the server exited before listening")
        self.port = port
        try:
            self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
            for name, n, k, s in (STREAMED, POLLED):
                self.call("POST", "/v1/subscriptions", {"name": name, "n": n, "k": k, "s": s})
            self.sse = SseReader(port, STREAMED[0])
            self.sse.start()
        except BaseException:
            self.stop()
            raise

    def call(self, method: str, path: str, body=None) -> Dict[str, object]:
        payload = None if body is None else json.dumps(body)
        self.http.request(method, path, payload,
                          {"Content-Type": "application/json"} if payload else {})
        response = self.http.getresponse()
        data = response.read()
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path} answered {response.status}: {data[:200]!r}")
        return json.loads(data) if data else {}

    def control(self, line: str) -> None:
        """A command to ``serve_host.py`` (traced runs only)."""
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        if line.startswith("dump"):
            for reply in self.process.stdout:
                if reply.strip() == "dumped":
                    return
            raise RuntimeError("the traced server did not write its spans")

    def stop(self) -> None:
        # Close the benchmark's connections first: a graceful shutdown
        # waits for open client connections.
        if hasattr(self, "sse"):
            self.sse.close()
            self.sse.join(timeout=TIMEOUT_S)
        if hasattr(self, "http"):
            self.http.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=TIMEOUT_S)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


class Producer:
    """Builds the POST bodies: fresh ids in order, plus redeliveries."""

    def __init__(self, seed: int) -> None:
        self.stream = ScoreStream(seed)
        self.position = 0

    def body(self) -> bytes:
        start, stop = self.position, self.position + BATCH
        scores = self.stream.ensure(stop)
        redelivered = range(max(0, start - DUPLICATES), start)
        events = [{"id": f"e{t}", "score": scores[t]} for t in redelivered]
        events += [{"id": f"e{t}", "score": scores[t]} for t in range(start, stop)]
        self.position = stop
        return json.dumps({"events": events}).encode()


class Client:
    """The load generator's state over one measured server."""

    def __init__(self, server: Server, producer: Producer) -> None:
        self.server = server
        self.producer = producer
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.pending: List[int] = []
        self.polled: Dict[int, tuple] = {}

    def post(self, body: Optional[bytes] = None) -> None:
        if body is None:
            body = self.producer.body()
        self.attempted += 1
        connection = self.server.http
        try:
            connection.request("POST", "/v1/events", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
        except OSError as exc:
            self.fail(f"POST /v1/events: {exc!r}")
            connection.close()
            return
        if not 200 <= response.status < 300:
            self.fail(f"POST /v1/events answered {response.status}")
            return
        self.pending.append(json.loads(data)["pending"])
        if self.producer.position % POLL_EVERY == 0:
            self.poll()

    def poll(self) -> None:
        name = POLLED[0]
        self.attempted += 1
        try:
            records = self.server.call("GET", f"/v1/subscriptions/{name}/results?drain=1")
        except (OSError, RuntimeError) as exc:
            self.fail(f"poll {name}: {exc!r}")
            return
        for record in records["results"]:
            if record["slide_index"] % SAMPLE_EVERY == 0:
                self.polled[record["slide_index"]] = (record["window_end"], record["objects"])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def _last_end(position: int) -> int:
    """``window_end`` of the streamed subscription's last answer once
    ``position`` events have arrived."""
    _, n, _, s = STREAMED
    return ((position - n) // s) * s + n - 1


def _wait_until(due: float) -> None:
    """Sleep until shortly before ``due``, then spin: a timer wake-up of an
    idle virtual CPU can be late by milliseconds, and by a different amount
    from host to host."""
    ahead = due - time.perf_counter() - SPIN_S
    if ahead > 0:
        time.sleep(ahead)
    while time.perf_counter() < due:
        pass


def _open_loop(client: Client, seconds: float):
    """POSTs on a fixed schedule; returns the calibrated answer latencies
    and the lag of each POST behind its due time."""
    interval = BATCH / OPEN_RATE
    sse = client.server.sse
    latencies: List[float] = []
    lags: List[float] = []
    deadline = time.perf_counter() + seconds
    probe = calibrate.probe()
    while time.perf_counter() < deadline or not latencies:
        due_of: Dict[int, float] = {}  # first event of a POST -> its due time
        first = client.producer.position
        seen = len(sse.answers)
        begun = time.perf_counter()
        for index in range(OPEN_BLOCK // BATCH):
            due = begun + index * interval
            due_of[client.producer.position] = due
            body = client.producer.body()  # built before it is due
            _wait_until(due)
            lags.append(time.perf_counter() - due)
            client.post(body)
        stop = client.producer.position
        sse.wait_for(_last_end(stop))
        after = calibrate.probe()
        factor = calibrate.factor(probe, after)
        probe = after
        for arrived, _, end, _ in sse.answers[seen:]:
            if first <= end < stop:
                latencies.append((arrived - due_of[end - end % BATCH]) * factor)
    return latencies, lags


def _closed_loop(client: Client, seconds: float):
    """Segments POSTed back to back; returns each segment's calibrated
    and measured throughput."""
    throughputs: List[float] = []
    raw: List[float] = []
    deadline = time.perf_counter() + seconds
    probe = calibrate.probe()
    while time.perf_counter() < deadline or not throughputs:
        begun = time.perf_counter()
        for _ in range(SEGMENT // BATCH):
            client.post()
        took = client.server.sse.wait_for(_last_end(client.producer.position)) - begun
        after = calibrate.probe()
        raw.append(SEGMENT / took)
        throughputs.append(SEGMENT / (took * calibrate.factor(probe, after)))
        probe = after
    return throughputs, raw


def _registry_counters(server: Server) -> Dict[str, float]:
    """The server's own instruments, as ``/v1/metrics.json`` exports them."""
    return instruments.registry_counters(server.call("GET", "/v1/metrics.json")["metrics"])


def _check(client: Client) -> Oracle:
    """Oracle check of the sampled answers of both subscriptions."""
    position = client.producer.position
    oracle = Oracle(client.producer.stream.ensure(position))
    streamed = {slide: (end, objects) for _, slide, end, objects in client.server.sse.answers
                if slide % SAMPLE_EVERY == 0}
    for (name, n, k, s), got in ((STREAMED, streamed), (POLLED, client.polled)):
        answers = {slide: (end, [(record["score"], record["t"]) for record in objects])
                   for slide, (end, objects) in got.items()}
        oracle.check_sampled(name, 0, n, k, s, position, answers, SAMPLE_EVERY)
    return oracle


def run(repro, seed: int, seconds: float, tracer=None) -> Dict[str, object]:
    traced = tracer is not None
    # The SSE reader stamps a frame when it holds the interpreter lock
    # again; a short switch interval keeps the producer thread from
    # delaying that stamp by up to the default 5 ms.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    home = calibrate.pin_one_cpu()  # the server process inherits it
    try:
        return _run(seed, seconds, traced)
    finally:
        sys.setswitchinterval(switch)
        os.sched_setaffinity(0, home)


def _run(seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    setups = []
    server: Optional[Server] = None
    probe = calibrate.probe()
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        begun = time.perf_counter()
        server = Server(traced)
        took = time.perf_counter() - begun
        after = calibrate.probe()
        setups.append(took * calibrate.factor(probe, after))
        probe = after
    try:
        return _measure(server, seed, seconds, setups, traced)
    finally:
        server.stop()


def _measure(server: Server, seed: int, seconds: float, setups: List[float],
             traced: bool) -> Dict[str, object]:
    client = Client(server, Producer(seed))
    for _ in range(WARMUP // BATCH):
        client.post()
    server.sse.wait_for(_last_end(client.producer.position))

    rss_start = reset_peak(server.process.pid)
    warm_posts = len(client.pending)
    latencies, lags = _open_loop(client, seconds * OPEN_SHARE)
    open_pending = client.pending[warm_posts:]
    closed_start = client.producer.position
    if traced:
        counters_before = _registry_counters(server)
        server.control("reset")
    throughputs, raw = _closed_loop(client, seconds * (1 - OPEN_SHARE))
    trace = None
    if traced:
        counters = instruments.delta(_registry_counters(server), counters_before)
        path = OUT_DIR / f"serve-{os.getpid()}.json"
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        server.control(f"dump {path}")
        with open(path) as handle:
            trace = json.load(handle)
        path.unlink()
    rss_growth = peak_mb(server.process.pid) - rss_start
    client.poll()
    stats = server.call("GET", "/v1/stats")
    oracle = _check(client)

    quarter = max(1, len(lags) // 4)
    client_rows = {
        "serve.client.lag_p99_ms": percentile(lags, 0.99) * 1e3,
        "serve.client.lag_trend_ms": (sum(lags[-quarter:]) - sum(lags[:quarter])) / quarter * 1e3,
        "serve.client.pending_max": max(open_pending),
        "serve.client.pending_trend": open_pending[-1] - open_pending[0],
        "serve.client.non_2xx": client.failed,
        "serve.client.sse_dropped": stats["sessions"]["results_dropped"],
    }
    dedupe = stats["ingest"]["dedupe"]
    client_rows["serve.dedupe_admit.admitted_ratio"] = dedupe["admitted"] / max(
        1, dedupe["admitted"] + dedupe["duplicates"])
    result = {
        "metrics": {
            "setup_s": median(setups),
            "throughput_eps": median(throughputs),
            "answer_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "answer_latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        },
        "extra": {
            "raw_throughput_eps": median(raw),
            "rss_growth_mb": rss_growth,
            "latency_samples": len(latencies),
            "open_rate_eps": OPEN_RATE,
            **client_rows,
        },
        "attempted": client.attempted + oracle.checked,
        "failed": client.failed + oracle.failed,
        "messages": client.messages + oracle.messages,
    }
    if trace is not None:
        layers = per_layer_rows(trace["aggregate"], trace["wall"])
        layers.update(client_rows)
        layers.update(counters)
        layers["trace.events"] = client.producer.position - closed_start
        result["layers"] = layers
        result["spans"] = trace["spans"]
    return result
