"""sharded-queue: ShardedStreamEngine(2, transport="queue"), 8 SAP queries.

Eight queries over four window shapes are placed by window-shape hash,
so each shape keeps its shared plan on one worker.  This is the only
workload that runs ``repro.cluster`` and the ``encode_chunk`` wire path.
The measured phase alternates two kinds of piece:

* a throughput segment -- :data:`SEGMENT` events in one pipelined
  ``push_many`` finished by ``synchronize`` and ``drain_results``, one
  segment in flight (a closed loop);
* a latency block -- :data:`LATENCY_BLOCK` events, :data:`CHUNK` at a
  time, each chunk a ``push_many`` + ``synchronize`` + ``drain_results``
  round trip.  A push to the sharded engine is asynchronous, so a round
  trip that brings back at least one answer is one answer latency sample.

The benchmark process and both workers share one CPU: a round trip
between processes on different virtual CPUs waits for the host to wake
the idle one, which on a shared host varies from run to run far more
than the work does.  On one CPU the throughput is the cluster plane's
total cost per event (routing, encode, send, decode, the shard engines),
the quantity the wire-path work aims to cut.  Every piece is timed in
seconds calibrated to that CPU's speed (``calibrate``), probed while the
workers are idle.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import calibrate
import instruments
from common import SHARED_SAP, child_pids, median, peak_mb, percentile, reset_peak
from inputs import ScoreStream
from oracle import Oracle
from tracing import Tracer, per_layer_rows

SHAPES = ((1000, 50), (2000, 100), (4000, 200), (1600, 40))
KS = (10, 50)
QUERIES = [(f"w{n}-k{k}", n, k, s) for n, s in SHAPES for k in KS]
SHARDS = 2
#: Events per pipelined segment, big enough that a round trip is mostly
#: work rather than process wake-ups.
SEGMENT = 4_000
#: Events per latency round trip, and per latency block.
CHUNK = 50
LATENCY_BLOCK = 2_000
WARMUP = 4_000
SETUP_REPEATS = 15
SAMPLE_EVERY = 8


def _build(repro):
    engine = repro.ShardedStreamEngine(
        SHARDS, transport="queue", placement="hash-window", keep_results=True
    )
    for name, n, k, s in QUERIES:
        engine.subscribe(name, repro.QuerySpec(n=n, k=k, s=s), SHARED_SAP)
    engine.synchronize()  # every worker has registered its subscriptions
    return engine


def run(repro, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    home = calibrate.pin_one_cpu()  # the workers inherit it
    try:
        return _run(repro, seed, seconds, tracer)
    finally:
        os.sched_setaffinity(0, home)


def _run(repro, seed: int, seconds: float, tracer: Optional[Tracer]) -> Dict[str, object]:
    setups = []
    engine = None
    probe = calibrate.probe()
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        started = time.perf_counter()
        engine = _build(repro)
        took = time.perf_counter() - started
        after = calibrate.probe()
        setups.append(took * calibrate.factor(probe, after))
        probe = after
    workers = child_pids(os.getpid())

    stream = ScoreStream(seed)
    make = repro.StreamObject
    sampled: Dict[str, Dict[int, tuple]] = {name: {} for name, *_ in QUERIES}

    def collect(produced) -> int:
        count = 0
        for name, results in produced.items():
            count += len(results)
            for result in results:
                if result.slide_index % SAMPLE_EVERY == 0:
                    sampled[name][result.slide_index] = (result.window_end,
                                                         result.identity())
        return count

    def objects(start: int, stop: int):
        scores = stream.ensure(stop)
        return [make(scores[t], t) for t in range(start, stop)]

    def round_trip(batch) -> Tuple[float, int]:
        started = time.perf_counter()
        engine.push_many(batch)
        engine.synchronize()
        produced = engine.drain_results()
        took = time.perf_counter() - started
        return took, collect(produced)

    round_trip(objects(0, WARMUP))
    pos = WARMUP

    if tracer is not None:
        tracer.install()
        tracer.reset()
    rss_start = sum(reset_peak(pid) for pid in workers)
    attempted = failed = 0
    throughputs: List[float] = []
    raw: List[float] = []
    latencies: List[float] = []
    wall = 0.0
    deadline = time.perf_counter() + seconds
    probe = calibrate.probe()
    try:
        while time.perf_counter() < deadline or not throughputs:
            block: List[float] = []
            for start in range(pos, pos + LATENCY_BLOCK, CHUNK):
                attempted += 1
                took, answers = round_trip(objects(start, start + CHUNK))
                wall += took
                if answers:
                    block.append(took)
            pos += LATENCY_BLOCK
            after = calibrate.probe()
            factor = calibrate.factor(probe, after)
            latencies.extend(took * factor for took in block)

            batch = objects(pos, pos + SEGMENT)
            attempted += 1
            took, _ = round_trip(batch)
            wall += took
            probe = calibrate.probe()
            raw.append(SEGMENT / took)
            throughputs.append(SEGMENT / (took * calibrate.factor(after, probe)))
            pos += SEGMENT
    except Exception:  # a failed push is counted; the stream cannot go on
        failed += 1
    rss_growth = sum(peak_mb(pid) for pid in workers) - rss_start

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = per_layer_rows(tracer.aggregate(), wall)
        layers.update(_cluster_rows(engine))
        layers["trace.events"] = pos - WARMUP
    engine.close()

    oracle = Oracle(stream.scores)
    for name, n, k, s in QUERIES:
        oracle.check_sampled(name, 0, n, k, s, pos, sampled[name], SAMPLE_EVERY)

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
        },
        "attempted": attempted + oracle.checked,
        "failed": failed + oracle.failed,
        "messages": oracle.messages,
    }
    if layers is not None:
        result["layers"] = layers
        result["spans"] = list(tracer.spans)
    return result


def _cluster_rows(engine) -> Dict[str, float]:
    """The cluster's own instruments: transport counters, backpressure,
    and per-worker push seconds (lifetime values of this engine)."""
    transport = engine.transport_stats()
    pressure = engine._router.pressure_stats()
    snapshot = engine.metrics_snapshot()
    push = instruments.shard_push_seconds(snapshot)
    rows = {
        "cluster.transport.encode_seconds": sum(
            float(entry.get("encode_seconds", 0.0)) for entry in transport.values()),
        "cluster.transport.send_seconds": sum(
            float(entry.get("send_seconds", 0.0)) for entry in transport.values()),
        "cluster.transport.decode_seconds": sum(
            float(entry.get("decode_seconds", 0.0)) for entry in transport.values()),
        "cluster.transport.bytes": sum(
            float(entry.get("bytes", 0.0)) for entry in transport.values()),
        "cluster.bp_waits": sum(entry["bp_waits"] for entry in pressure.values()),
        "cluster.worker_push_seconds": sum(push.values()),
    }
    mean = sum(push.values()) / len(push) if push else 0.0
    rows["cluster.shard_skew"] = max(push.values()) / mean if mean else 0.0
    rows.update(instruments.registry_counters(snapshot))
    return rows
