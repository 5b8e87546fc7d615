"""durable-churn: a durable StreamEngine in a child process, SIGKILLed
mid-stream and recovered.

The child (``durable_child.py ingest``) hosts 200 SAP subscriptions over
four window shapes with subscribe/unsubscribe churn, checkpoints and the
write-ahead log on.  Once a write-ahead-log tail sits behind the last
checkpoint the benchmark SIGKILLs it, then times ``StreamEngine.recover``
in a second child (``durable_child.py recover``) that finishes the
stream.  Both children check their sampled answers against the oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Dict, List, Optional

import instruments
from common import BENCH_DIR, OUT_DIR, child_env, median, percentile
from tracing import merge_aggregates, per_layer_rows

#: Share of the run spent ingesting before the crash; the rest runs the
#: recovered engine.
INGEST_SHARE = 0.7
#: Longest a child may take beyond its measured seconds.
GRACE_S = 90


def _spawn(mode: str, directory: str, seed: int, seconds: float, traced: bool,
           state: Optional[str] = None) -> subprocess.Popen:
    command = [sys.executable, str(BENCH_DIR / "durable_child.py"), mode,
               "--dir", directory, "--seed", str(seed), "--seconds", f"{seconds:.3f}",
               "--trace", str(int(traced))]
    if state is not None:
        command += ["--state", state]
    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), text=True)


def _report(child: subprocess.Popen) -> Dict[str, object]:
    """The child's JSON report line (the child stays alive after it)."""
    line = child.stdout.readline()
    if not line:
        child.kill()
        child.wait(timeout=GRACE_S)
        raise RuntimeError(f"the durable child exited with {child.returncode} "
                           "before reporting")
    return json.loads(line)


def run(repro, seed: int, seconds: float, tracer=None) -> Dict[str, object]:
    traced = tracer is not None
    work = OUT_DIR / f"durable-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ingest = _spawn("ingest", str(work), seed, seconds * INGEST_SHARE, traced)
        try:
            before = _report(ingest)
        finally:
            ingest.send_signal(signal.SIGKILL)
            ingest.wait(timeout=GRACE_S)
            ingest.stdout.close()
            ingest.stdin.close()
        state = work / "killed.json"
        state.write_text(json.dumps(before))
        recover = _spawn("recover", before["directory"], seed,
                         seconds * (1 - INGEST_SHARE), traced, str(state))
        try:
            after, _ = recover.communicate(timeout=seconds + GRACE_S)
            after = json.loads(after.strip().splitlines()[-1])
        finally:
            if recover.poll() is None:
                recover.kill()
                recover.wait(timeout=GRACE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Latency is the pre-crash engine's only: the recovered engine runs a
    # different group layout and is reported apart.
    latencies: List[float] = before["latencies"]
    result = {
        "metrics": {
            "setup_s": median(before["setups"]),
            "throughput_eps": before["events"] / before["wall"],
            "answer_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
            "answer_latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        },
        "extra": {
            "raw_throughput_eps": before["events"] / before["raw_wall"],
            "recovery_s": after["recovery_s"],
            "post_recovery_throughput_eps": after["events"] / after["wall"],
            "post_recovery_latency_p50_ms": percentile(after["latencies"], 0.50) * 1e3,
            "rss_growth_mb": max(before["rss_growth_mb"], after["rss_growth_mb"]),
            "latency_samples": len(latencies),
        },
        "attempted": len(latencies) + len(after["latencies"]) + before["checked"]
        + after["checked"],
        "failed": before["failed"] + after["failed"],
        "messages": before["messages"] + after["messages"],
    }
    if traced:
        aggregate = merge_aggregates([before["trace"]["aggregate"],
                                      after["trace"]["aggregate"]])
        wall = before["trace"]["wall"] + after["trace"]["wall"]
        layers = per_layer_rows(aggregate, wall)
        counters = {key: before["trace"]["counters"].get(key, 0.0)
                    + after["trace"]["counters"].get(key, 0.0)
                    for key in set(before["trace"]["counters"]) | set(after["trace"]["counters"])}
        layers.update(instruments.finish_framework_rows(counters))
        layers["engine.groups_before_crash"] = before["groups_before_crash"]
        layers["engine.groups_after_recovery"] = after["groups_after_recovery"]
        layers["durability.recovery_s"] = after["recovery_s"]
        layers["trace.events"] = before["trace"]["events"] + after["trace"]["events"]
        for key, value in after["report"].items():
            if key != "seconds" and value is not None:
                layers[f"durability.recovery.{key}"] = value
        result["layers"] = layers
        result["spans"] = before["trace"]["spans"] + after["trace"]["spans"]
    return result
