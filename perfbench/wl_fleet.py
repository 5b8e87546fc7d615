"""engine-fleet: one in-process StreamEngine fanned out to 13 SAP queries.

Twelve queries are three window shapes times four k, which form shared
k_max plans; one lone query runs the private path.  Events are pushed in
closed-loop chunks of :data:`CHUNK`; every answer arrives through an
``on_result`` callback.  No serve, durability or cluster code runs, so
this is the workload that bypasses those layers.  The run is pinned to
one CPU, and every time is calibrated to that CPU's speed (``calibrate``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import calibrate
import instruments
from common import SHARED_SAP, median, peak_mb, percentile, reset_peak
from inputs import ScoreStream
from oracle import Oracle
from tracing import CALLBACK_SPAN, Tracer, per_layer_rows

SHAPES = ((1000, 50), (2000, 100), (4000, 200))
KS = (5, 20, 50, 100)
LONE = (3000, 20, 150)
QUERIES = [(f"w{n}-k{k}", n, k, s, SHARED_SAP) for n, s in SHAPES for k in KS] + [
    ("lone", LONE[0], LONE[1], LONE[2], "SAP")
]
CHUNK = 50
#: Events per measured segment (one uniform and one trending phase);
#: throughput is the median over segments of calibrated events/s.
SEGMENT = 2_000
#: Events pushed before measuring, so every window is full.
WARMUP = 4_000
SETUP_REPEATS = 41
SAMPLE_EVERY = 8


def _build(repro, on_result):
    engine = repro.StreamEngine(keep_results=False, return_results=False)
    for name, n, k, s, algorithm in QUERIES:
        engine.subscribe(name, repro.QuerySpec(n=n, k=k, s=s), algorithm,
                         on_result=on_result)
    return engine


def run(repro, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    home = calibrate.pin_one_cpu()
    try:
        return _run(repro, seed, seconds, tracer)
    finally:
        os.sched_setaffinity(0, home)


def _run(repro, seed: int, seconds: float, tracer: Optional[Tracer]) -> Dict[str, object]:
    answers = [0]
    sampled: Dict[str, Dict[int, tuple]] = {name: {} for name, *_ in QUERIES}

    def on_result(name, result):
        answers[0] += 1
        if result.slide_index % SAMPLE_EVERY == 0:
            sampled[name][result.slide_index] = (result.window_end, result.identity())

    callback = on_result
    if tracer is not None:
        callback = tracer.wrap_callable(CALLBACK_SPAN, on_result)

    setups = []
    engine = None
    probe = calibrate.probe()
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        started = time.perf_counter()
        engine = _build(repro, callback)
        took = time.perf_counter() - started
        after = calibrate.probe()
        setups.append(took * calibrate.factor(probe, after))
        probe = after

    stream = ScoreStream(seed)
    scores = stream.ensure(WARMUP)
    make = repro.StreamObject
    engine.push_many([make(scores[t], t) for t in range(WARMUP)], chunk_size=CHUNK)
    pos = WARMUP

    if tracer is not None:
        tracer.install()
        tracer.reset()
    counters_before = instruments.engine_counters(engine, repro.obs.get_registry().snapshot())
    pid = os.getpid()
    rss_start = reset_peak(pid)
    throughputs: List[float] = []
    raw: List[float] = []
    latencies: List[float] = []
    attempted = failed = 0
    wall = 0.0
    deadline = time.perf_counter() + seconds
    probe = calibrate.probe()
    while time.perf_counter() < deadline or not throughputs:
        scores = stream.ensure(pos + SEGMENT)
        objects = [make(scores[t], t) for t in range(pos, pos + SEGMENT)]
        segment: List[float] = []
        begun = time.perf_counter()
        for offset in range(0, SEGMENT, CHUNK):
            before = answers[0]
            call = time.perf_counter()
            attempted += 1
            try:
                engine.push_many(objects[offset:offset + CHUNK], chunk_size=CHUNK)
            except Exception:  # a failed push is counted, not fatal
                failed += 1
                continue
            if answers[0] != before:
                segment.append(time.perf_counter() - call)
        elapsed = time.perf_counter() - begun
        after = calibrate.probe()
        factor = calibrate.factor(probe, after)
        probe = after
        wall += elapsed
        raw.append(SEGMENT / elapsed)
        throughputs.append(SEGMENT / (elapsed * factor))
        latencies.extend(took * factor for took in segment)
        pos += SEGMENT
    rss_growth = peak_mb(pid) - rss_start
    counters = instruments.delta(
        instruments.engine_counters(engine, repro.obs.get_registry().snapshot()),
        counters_before,
    )
    groups = len(engine.groups())
    if tracer is not None:
        tracer.uninstall()
    engine.close()

    oracle = Oracle(stream.scores)
    for name, n, k, s, _ in QUERIES:
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
    if tracer is not None:
        layers = per_layer_rows(tracer.aggregate(), wall)
        layers.update(instruments.finish_framework_rows(counters))
        layers["engine.groups.count"] = groups
        layers["trace.events"] = pos - WARMUP
        result["layers"] = layers
        result["spans"] = list(tracer.spans)
    return result
