"""Reading the program's own instruments next to the benchmark's spans.

The per-layer rows report both what the spans measured and what the
program counts itself (``repro_stage_seconds{stage}``, WAL and checkpoint
counters, ``seal_stats()``), so a live ``/metrics`` scrape can be set
beside a benchmark breakdown.  Every reading is a delta over the measured
phase: take :func:`engine_counters` at its start and end and subtract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

STAGES = ("encode", "send", "decode", "push", "seal", "merge")
FRAMEWORK = ("meaningful_formed", "meaningful_skipped", "promotions", "refine_removals")


def registry_counters(snapshot: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Stage seconds, WAL bytes and checkpoints from a metrics snapshot."""
    rows = {f"obs.stage_seconds.{stage}": 0.0 for stage in STAGES}
    rows["obs.wal_bytes_total"] = 0.0
    rows["obs.checkpoints_total"] = 0.0
    for record in snapshot:
        name = record["name"]
        if name == "repro_stage_seconds":
            key = f"obs.stage_seconds.{record['labels'].get('stage')}"
            if key in rows:
                rows[key] += float(record["sum"])
        elif name == "repro_wal_bytes_total":
            rows["obs.wal_bytes_total"] += float(record["value"])
        elif name == "repro_checkpoints_total":
            rows["obs.checkpoints_total"] += float(record["value"])
    return rows


def shard_push_seconds(snapshot: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """``repro_stage_seconds{stage="push"}`` per shard label."""
    per_shard: Dict[str, float] = {}
    for record in snapshot:
        labels = record.get("labels", {})
        if record["name"] == "repro_stage_seconds" and labels.get("stage") == "push":
            shard = labels.get("shard")
            if shard is not None:
                per_shard[shard] = per_shard.get(shard, 0.0) + float(record["sum"])
    return per_shard


def framework_counters(engine) -> Dict[str, float]:
    """SAP framework counters summed over every subscription."""
    totals = {f"core.framework.{name}": 0.0 for name in FRAMEWORK}
    for name in engine.subscriptions():
        stats_of = getattr(engine.subscription(name).algorithm, "seal_stats", None)
        if stats_of is None:
            continue
        framework = stats_of().get("framework", {})
        for key in FRAMEWORK:
            totals[f"core.framework.{key}"] += framework.get(key, 0)
    return totals


def engine_counters(engine, snapshot: List[Dict[str, object]]) -> Dict[str, float]:
    rows = framework_counters(engine)
    rows.update(registry_counters(snapshot))
    return rows


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def finish_framework_rows(rows: Dict[str, float]) -> Dict[str, float]:
    """Add ``meaningful_skip_ratio`` (skipped / attempts) and rename the
    refine-removal counter to its layer."""
    formed = rows.get("core.framework.meaningful_formed", 0.0)
    skipped = rows.get("core.framework.meaningful_skipped", 0.0)
    attempts = formed + skipped
    rows["core.framework.meaningful_skip_ratio"] = skipped / attempts if attempts else 0.0
    rows["core.candidates.refine_removals"] = rows.pop("core.framework.refine_removals", 0.0)
    return rows
