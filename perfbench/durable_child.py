"""The engine host of durable-churn, run as its own process.

``ingest`` mode builds a durable :class:`StreamEngine` with
:data:`FLEET` SAP subscriptions, ingests with subscribe/unsubscribe
churn, then keeps going until a checkpoint commits and :data:`TAIL_CHUNKS`
more chunks sit in the write-ahead log behind it.  It reports, and then
blocks until the benchmark SIGKILLs it.

``recover`` mode times ``StreamEngine.recover(dir)`` on what the killed
process left, checks the replayed answers, and ingests the rest of the
stream with the same churn.

Each mode checks its own sampled answers against the independent oracle
and prints one JSON object per line on standard output; the last one
carries everything the benchmark reports.  Both modes pin themselves to
one CPU and time in seconds calibrated to its speed (``calibrate``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional

import calibrate
import instruments
from common import SHARED_SAP, import_program, peak_mb, reset_peak
from inputs import ScoreStream
from oracle import Oracle

SHAPES = ((400, 20), (800, 40), (1200, 50), (1600, 100))
KS = (5, 10, 15, 20, 25, 30, 35, 40)
#: Subscriptions live at any time (50 per shape).
FLEET = 200
CHUNK = 40
#: Every slide size divides this, so churn and checkpoints fall on slide
#: boundaries of every subscription.
ALIGN = 200
#: Events between churn steps (one unsubscribe plus one subscribe).  A
#: new subscription opens a fresh group whose window must fill before the
#: engine reaches a checkpointable slide boundary, so churn is spaced wider
#: than the longest window.
CHURN_EVERY = 10 * ALIGN
#: Subscriptions that joined mid-stream and are live at once.
CHURN_POOL = 4
CHECKPOINT_INTERVAL = 24
#: Events per measured segment, one churn step and one checkpoint each.
SEGMENT = CHURN_EVERY
#: Events between calibration probes within a segment.
PIECE = 2 * ALIGN
WARMUP = 2_000
TAIL_CHUNKS = 12
SETUP_REPEATS = 15
SAMPLE_EVERY = 8


def emit(message: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class Fleet:
    """The subscription table: name -> [n, k, s, join, leave]."""

    def __init__(self, table: Optional[Dict[str, list]] = None, serial: int = 0) -> None:
        self.table = table if table is not None else {}
        self.serial = serial

    def spec(self, index: int):
        n, s = SHAPES[index % len(SHAPES)]
        return n, KS[(index // len(SHAPES)) % len(KS)], s

    def subscribe(self, repro, engine, position: int) -> None:
        n, k, s = self.spec(self.serial)
        name = f"d{self.serial}"
        self.serial += 1
        engine.subscribe(name, repro.QuerySpec(n=n, k=k, s=s), SHARED_SAP,
                         keep_results=True)
        self.table[name] = [n, k, s, position, None]

    def churn(self, repro, engine, position: int) -> None:
        """Add a subscription and retire one: the oldest that joined
        mid-stream once :data:`CHURN_POOL` of them are live, else the
        oldest of the initial fleet.  Each newcomer opens a group of its
        own, so the pool bounds the number of groups."""
        live = sorted((int(name[1:]) for name, row in self.table.items() if row[4] is None))
        joined = [serial for serial in live if serial >= FLEET]
        oldest = f"d{joined[0] if len(joined) >= CHURN_POOL else live[0]}"
        engine.unsubscribe(oldest)
        self.table[oldest][4] = position
        self.subscribe(repro, engine, position)


class Answers:
    """Sampled answers of one process, checked against the oracle."""

    def __init__(self, stream: ScoreStream) -> None:
        self.stream = stream
        self.got: Dict[tuple, tuple] = {}
        self.count = 0

    def collect(self, produced) -> int:
        count = 0
        for name, results in produced.items():
            count += len(results)
            for result in results:
                if result.slide_index % SAMPLE_EVERY == 0:
                    self.got[(name, result.slide_index)] = (result.window_end,
                                                            result.identity())
        self.count += count
        return count

    def check(self, fleet: Fleet, low: int, high: int) -> Oracle:
        """Check every sampled answer; an answer whose window ends in
        ``[low, high)`` must be present."""
        oracle = Oracle(self.stream.ensure(high))
        got: Dict[str, Dict[int, tuple]] = {name: {} for name in fleet.table}
        for (name, slide), answer in self.got.items():
            got[name][slide] = answer
        for name, (n, k, s, join, leave) in fleet.table.items():
            stop = min(high, leave if leave is not None else high)
            oracle.check_sampled(name, join, n, k, s, stop, got[name], SAMPLE_EVERY, low)
        return oracle


def _checkpoints(repro) -> float:
    return sum(float(record["value"]) for record in repro.obs.get_registry().snapshot()
               if record["name"] == "repro_checkpoints_total")


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _ingest(repro, engine, fleet: Fleet, answers: Answers, stream: ScoreStream,
            start: int, stop: int, latencies: Optional[List[float]] = None) -> float:
    """Push events ``[start, stop)`` in chunks with churn; returns seconds."""
    make = repro.StreamObject
    scores = stream.ensure(stop)
    elapsed = 0.0
    for offset in range(start, stop, CHUNK):
        if offset % CHURN_EVERY == 0 and offset > 0:
            begun = time.perf_counter()
            fleet.churn(repro, engine, offset)
            elapsed += time.perf_counter() - begun
        chunk = [make(scores[t], t) for t in range(offset, min(stop, offset + CHUNK))]
        begun = time.perf_counter()
        engine.push_many(chunk, chunk_size=CHUNK)
        produced = answers.collect(engine.drain_results())
        took = time.perf_counter() - begun
        elapsed += took
        if latencies is not None and produced:
            latencies.append(took)
    return elapsed


def _segments(repro, engine, fleet, answers, stream, position: int, seconds: float):
    """Whole churn cycles until ``seconds`` pass, timed in pieces of
    :data:`PIECE` events between calibration probes.  Returns the new
    position, the measured and the calibrated wall, and the calibrated
    answer latencies."""
    raw = calibrated = 0.0
    latencies: List[float] = []
    deadline = time.perf_counter() + seconds
    probe = calibrate.probe()
    while time.perf_counter() < deadline or not raw:
        for start in range(position, position + SEGMENT, PIECE):
            piece: List[float] = []
            took = _ingest(repro, engine, fleet, answers, stream, start, start + PIECE, piece)
            after = calibrate.probe()
            factor = calibrate.factor(probe, after)
            probe = after
            raw += took
            calibrated += took * factor
            latencies.extend(latency * factor for latency in piece)
        position += SEGMENT
    return position, raw, calibrated, latencies


def run_ingest(args) -> None:
    repro = import_program()
    calibrate.pin_one_cpu()
    stream = ScoreStream(args.seed)
    setups = []
    engine = fleet = None
    probe = calibrate.probe()
    for attempt in range(SETUP_REPEATS):
        directory = os.path.join(args.dir, f"setup{attempt}")
        if engine is not None:
            engine.close()
        shutil.rmtree(directory, ignore_errors=True)
        begun = time.perf_counter()
        engine = repro.StreamEngine.durable(directory, checkpoint_interval=CHECKPOINT_INTERVAL,
                                            keep_results=True, return_results=False)
        fleet = Fleet()
        for _ in range(FLEET):
            fleet.subscribe(repro, engine, 0)
        took = time.perf_counter() - begun
        after = calibrate.probe()
        setups.append(took * calibrate.factor(probe, after))
        probe = after
    answers = Answers(stream)
    _ingest(repro, engine, fleet, answers, stream, 0, WARMUP)

    tracer = _tracer(args.trace)
    counters_before = _counters(repro, engine)
    pid = os.getpid()
    rss_start = reset_peak(pid)
    position, raw, wall, latencies = _segments(repro, engine, fleet, answers, stream, WARMUP,
                                               args.seconds)
    measured = position - WARMUP
    rss_growth = peak_mb(pid) - rss_start
    trace = None
    if tracer is not None:
        trace = {"aggregate": tracer.aggregate(), "wall": raw, "events": measured,
                 "counters": instruments.delta(_counters(repro, engine), counters_before),
                 "spans": tracer.spans}
        tracer.uninstall()

    # Go on until a checkpoint commits, then leave TAIL_CHUNKS behind it.
    committed = _checkpoints(repro)
    limit = position + 2 * CHURN_EVERY
    while _checkpoints(repro) == committed:
        if position >= limit:
            raise RuntimeError(f"no checkpoint committed by t={position}")
        _ingest(repro, engine, fleet, answers, stream, position, position + CHUNK)
        position += CHUNK
    _ingest(repro, engine, fleet, answers, stream, position,
            position + TAIL_CHUNKS * CHUNK)
    position += TAIL_CHUNKS * CHUNK

    oracle = answers.check(fleet, 0, position)
    emit({
        "setups": setups,
        "events": measured,
        "wall": wall,
        "raw_wall": raw,
        "latencies": latencies,
        "rss_growth_mb": rss_growth,
        "position": position,
        "directory": directory,
        "table": fleet.table,
        "serial": fleet.serial,
        "groups_before_crash": len(engine.groups()),
        "answers": answers.count,
        "checked": oracle.checked,
        "failed": oracle.failed,
        "messages": oracle.messages,
        "trace": trace,
    })
    sys.stdin.read()  # the benchmark SIGKILLs this process here


def run_recover(args) -> None:
    repro = import_program()
    calibrate.pin_one_cpu()
    with open(args.state) as handle:
        state = json.load(handle)
    stream = ScoreStream(args.seed)
    fleet = Fleet(state["table"], state["serial"])
    position = state["position"]
    answers = Answers(stream)

    tracer = _tracer(args.trace)
    counters_before = _counters(repro, None)
    pid = os.getpid()
    rss_start = reset_peak(pid)
    probe = calibrate.probe()
    begun = time.perf_counter()
    engine = repro.StreamEngine.recover(args.dir, checkpoint_interval=CHECKPOINT_INTERVAL,
                                        keep_results=True, return_results=False)
    recovery_raw = time.perf_counter() - begun
    recovery_s = recovery_raw * calibrate.factor(probe, calibrate.probe())
    begun = time.perf_counter()
    counters_before.update(instruments.framework_counters(engine))
    answers.collect(engine.drain_results())
    traced_wall = recovery_raw + time.perf_counter() - begun
    report = engine.recovery_report
    groups_after = len(engine.groups())
    messages = []
    failed = 0
    if report.next_t != position or sorted(engine.subscriptions()) != sorted(
            name for name, row in fleet.table.items() if row[4] is None):
        failed += 1
        messages.append(f"recovered next_t={report.next_t} and "
                        f"{len(engine.subscriptions())} subscriptions do not match "
                        f"the killed engine at t={position}")

    end, raw, wall, latencies = _segments(repro, engine, fleet, answers, stream, position,
                                          args.seconds)
    traced_wall += raw
    rss_growth = peak_mb(pid) - rss_start
    trace = None
    if tracer is not None:
        trace = {"aggregate": tracer.aggregate(), "wall": traced_wall, "events": end - position,
                 "counters": instruments.delta(_counters(repro, engine), counters_before),
                 "spans": tracer.spans}
        tracer.uninstall()
    engine.close()

    oracle = answers.check(fleet, position, end)
    emit({
        "recovery_s": recovery_s,
        "report": {key: getattr(report, key) for key in (
            "checkpoint_seq", "restored_subscriptions", "replayed_ops",
            "replayed_chunks", "replayed_objects", "skipped_chunks", "seconds")},
        "groups_after_recovery": groups_after,
        "events": end - position,
        "wall": wall,
        "raw_wall": raw,
        "latencies": latencies,
        "rss_growth_mb": rss_growth,
        "answers": answers.count,
        "checked": oracle.checked + 1,
        "failed": oracle.failed + failed,
        "messages": messages + oracle.messages,
        "trace": trace,
    })


def _counters(repro, engine) -> Dict[str, float]:
    snapshot = repro.obs.get_registry().snapshot()
    if engine is None:
        return instruments.registry_counters(snapshot)
    return instruments.engine_counters(engine, snapshot)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("ingest", "recover"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--state", help="the ingest report (recover mode)")
    args = parser.parse_args()
    if args.mode == "ingest":
        run_ingest(args)
    else:
        run_recover(args)


if __name__ == "__main__":
    main()
