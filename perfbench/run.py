"""The repository benchmark: four workloads, end-to-end metrics, and a
traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload engine-fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice for half the time each, untraced
and then traced, and reports the per-layer rows plus
``trace.overhead_ratio`` (traced seconds per event over untraced).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit, and the environment stamp.  Traced
runs also write their spans and every per-layer row to ``perfbench/out/``
and print the time rows per event on standard error.

Every workload runs on one CPU, and its end-to-end times are calibrated
to that CPU's speed (see ``calibrate.py``); ``raw_throughput_eps`` prints
the uncalibrated figure.  Span times of the traced run are not
calibrated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict

from common import HASH_SEED, OUT_DIR, SetupError, env_stamp, import_program

WORKLOADS = ("engine-fleet", "http-ingest", "durable-churn", "sharded-queue")

#: The end-to-end metrics of the result line (and of BENCHMARK.json), which
#: every workload reports.
END_TO_END = {
    "setup_s": "s",
    "throughput_eps": "events/s",
    "answer_latency_p50_ms": "ms",
}

#: End-to-end metrics printed, not in the result line.  Recovery exists
#: only in durable-churn, ``failed_ratio`` is 0 when the program is
#: correct, and p99 latency, recovery and the recovered engine's figures
#: move from run to run on a shared 2-CPU host by more than a regression
#: bound (interquartile range over ten runs: 0.17-0.33 of the median).
EXTRA_UNITS = {
    "answer_latency_p99_ms": "ms",
    "raw_throughput_eps": "events/s",
    "recovery_s": "s",
    "post_recovery_throughput_eps": "events/s",
    "post_recovery_latency_p50_ms": "ms",
    "rss_growth_mb": "MB",
    "failed_ratio": "ratio",
    "latency_samples": "count",
    "open_rate_eps": "events/s",
}

#: Spans whose call count is reported beside their self time.
COUNTED = (
    "engine.push_many", "core.window.push_batch", "core.shared.prepare",
    "partitioning.observe", "core.partition.build_partition",
    "core.framework.process_slide", "core.framework.process_shared_slide",
    "core.candidates.merge_partition_topk", "savl.build_batched", "savl.advance",
    "core.columnar.encode_chunk", "core.columnar.decode_chunk", "core.state.dumps",
    "durability.checkpoint", "durability.wal_append", "cluster.push_chunk",
    "serve.read_request", "serve.take_aligned", "serve.dispatch", "serve.sse_event",
)

#: Per-layer rows besides span times and counts, with their units.
LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.events": "count",
    "core.window.slides.items": "count",
    "core.window.expired.items": "count",
    "partitioning.seals.items": "count",
    "partitioning.forced_seals.items": "count",
    "core.framework.meaningful_formed": "count",
    "core.framework.meaningful_skipped": "count",
    "core.framework.promotions": "count",
    "core.framework.meaningful_skip_ratio": "ratio",
    "core.candidates.refine_removals": "count",
    "engine.groups.count": "count",
    "engine.groups_before_crash": "count",
    "engine.groups_after_recovery": "count",
    "core.columnar.encode_chunk.bytes": "bytes",
    "core.columnar.bytes_per_event": "bytes",
    "core.state.dumps.bytes": "bytes",
    "durability.wal_append.bytes": "bytes",
    "durability.recovery_s": "s",
    "durability.recovery.restored_subscriptions": "count",
    "durability.recovery.replayed_ops": "count",
    "durability.recovery.replayed_chunks": "count",
    "durability.recovery.replayed_objects": "count",
    "obs.stage_seconds.encode": "s",
    "obs.stage_seconds.send": "s",
    "obs.stage_seconds.decode": "s",
    "obs.stage_seconds.push": "s",
    "obs.stage_seconds.seal": "s",
    "obs.stage_seconds.merge": "s",
    "obs.wal_bytes_total": "bytes",
    "obs.checkpoints_total": "count",
    "cluster.transport.encode_seconds": "s",
    "cluster.transport.send_seconds": "s",
    "cluster.transport.decode_seconds": "s",
    "cluster.transport.bytes": "bytes",
    "cluster.bp_waits": "count",
    "cluster.worker_push_seconds": "s",
    "cluster.shard_skew": "ratio",
    "serve.dedupe_admit.items": "count",
    "serve.dedupe_admit.admitted_ratio": "ratio",
    "serve.take_aligned.items": "count",
    "serve.batch_mean_size": "count",
    "serve.dispatch.items": "count",
    "serve.client.lag_p99_ms": "ms",
    "serve.client.lag_trend_ms": "ms",
    "serve.client.pending_max": "count",
    "serve.client.pending_trend": "count",
    "serve.client.non_2xx": "count",
    "serve.client.sse_dropped": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric of the result line (BENCHMARK.json's
    ``per_layer``), in order, with its unit."""
    from tracing import WAIT_SPANS, span_names

    units: Dict[str, str] = {}
    for name in span_names():
        units[f"{name}.{'wait_s' if name in WAIT_SPANS else 'self_s'}"] = "s"
        if name in COUNTED:
            units[f"{name}.calls"] = "count"
    units.update(LAYER_UNITS)
    return units


def _module(workload: str):
    if workload == "engine-fleet":
        import wl_fleet as module
    elif workload == "http-ingest":
        import wl_http as module
    elif workload == "durable-churn":
        import wl_durable as module
    else:
        import wl_sharded as module
    return module


def measure(repro, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of ``workload``: end-to-end metrics, or (``trace``) the
    per-layer rows of a traced pass next to an untraced one."""
    module = _module(workload)
    if not trace:
        return module.run(repro, seed, seconds)
    from tracing import Tracer

    plain = module.run(repro, seed, seconds / 2)
    traced = module.run(repro, seed, seconds / 2, Tracer())
    layers = traced["layers"]
    # Seconds per event traced over untraced, from each pass's throughput.
    layers["trace.overhead_ratio"] = (
        plain["metrics"]["throughput_eps"] / traced["metrics"]["throughput_eps"]
    )
    events = layers.get("trace.events", 0)
    if events:
        layers["core.columnar.bytes_per_event"] = (
            layers.get("core.columnar.encode_chunk.bytes", 0) / events)
    batches = layers.get("serve.take_aligned.calls", 0)
    if batches:
        layers["serve.batch_mean_size"] = layers.get("serve.take_aligned.items", 0) / batches
    return {
        "metrics": plain["metrics"],
        "extra": plain["extra"],
        "layers": layers,
        "spans": traced.get("spans", []),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "messages": plain["messages"] + traced["messages"],
    }


def report(workload: str, seed: int, outcome: dict, trace: bool) -> dict:
    """Print every metric with its unit; return the result line."""
    attempted = max(1, int(outcome["attempted"]))
    failed = int(outcome["failed"])
    printed = {**outcome["metrics"], **outcome.get("extra", {}),
               "failed_ratio": failed / attempted}
    for name, unit in {**END_TO_END, **EXTRA_UNITS, **LAYER_UNITS}.items():
        if name in printed:
            print(f"metric {workload} {name} {printed[name]:.6g} {unit}")
    for message in outcome.get("messages", []):
        print(f"failure {workload}: {message}", file=sys.stderr)
    if trace:
        units = per_layer_units()
        rows = {name: float(outcome["layers"].get(name, 0.0)) for name in units}
        _write_trace(workload, seed, outcome, rows)
        metrics = {name: {"value": rows[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": float(outcome["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _write_trace(workload: str, seed: int, outcome: dict, rows: Dict[str, float]) -> None:
    """The spans and every row (reported or not) to ``perfbench/out``;
    the time rows per event to standard error."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    layers = dict(outcome["layers"])
    layers.update(rows)
    payload = {
        "workload": workload,
        "env": env_stamp(seed),
        "layers": layers,
        "spans": [list(span) for span in outcome.get("spans", [])],
        "span_fields": ["name", "start", "end", "parent", "root"],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
    events = max(1.0, float(layers.get("trace.events", 1)))
    print(f"trace {workload}: {path.relative_to(OUT_DIR.parent.parent)} "
          f"({events:.0f} events traced)", file=sys.stderr)
    for name, value in layers.items():
        if name.endswith((".self_s", ".wait_s", "unattributed_s", "trace.wall_s")) and value:
            print(f"  {name:<48} {value:10.4f} s  {value / events * 1e6:9.2f} us/event",
                  file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        repro = import_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env_stamp(args.seed), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        started = time.perf_counter()
        outcome = measure(repro, workload, args.seed, args.seconds, bool(args.trace))
        results.append((workload, report(workload, args.seed, outcome, bool(args.trace))))
        print(f"done {workload} in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    if len(results) == 1:
        line = results[0][1]
    else:
        line = {
            "correct": all(result["correct"] for _, result in results),
            "attempted": sum(result["attempted"] for _, result in results),
            "failed": sum(result["failed"] for _, result in results),
            "metrics": {f"{workload}.{name}": metric for workload, result in results
                        for name, metric in result["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
