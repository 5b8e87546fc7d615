"""Merging per-shard results and statistics into one view.

Each subscription lives on exactly one shard, so per-subscription records
merge by disjoint union.  Cluster-wide *distributional* statistics are the
subtle part: a latency percentile of the cluster is **not** the average of
the shards' percentiles (a shard with 10 slow slides and one with 10 000
fast ones would average to nonsense).  The workers therefore ship each
subscription's latency sketch (:mod:`repro.obs.quantiles`), and
:func:`merged_latency_stats` adds their bucket counts — an exact merge,
so the cluster's percentiles are those of one sketch fed every slide.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..obs.quantiles import STANDARD_FRACTIONS, merge_sketches, sketch_ranks


def merge_disjoint(maps: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Union of per-shard name-keyed mappings (names are cluster-unique)."""
    merged: Dict[str, object] = {}
    for mapping in maps:
        if not mapping:
            continue
        overlap = merged.keys() & mapping.keys()
        if overlap:
            raise ValueError(
                f"subscription names appear on several shards: {sorted(overlap)}"
            )
        merged.update(mapping)
    return merged


def merged_latency_stats(
    telemetry_maps: Sequence[Dict[str, Dict[str, object]]],
) -> Dict[str, float]:
    """Cluster-wide latency distribution from per-shard telemetry.

    Each telemetry record carries its subscription's latency sketch under
    ``"latencies"``; the sketches merge by adding bucket counts, so every
    slide of every subscription counts once and the percentiles are
    within 1% relative of the exact nearest-rank percentiles of all the
    recorded latencies.  Totals and maxima are exact sums/maxima of the
    per-subscription aggregates.

    Emits exactly :data:`repro.engine.subscription.STATS_KEYS`, the one
    stats schema shared with :meth:`repro.engine.Subscription.stats`:
    candidate/memory averages are slide-weighted means of the
    per-subscription averages, maxima are maxima.
    """
    sketches = []
    slides = 0
    delivered = 0
    latency_max = 0.0
    candidate_total = 0.0
    candidate_max = 0.0
    memory_kb_total = 0.0
    for telemetry in telemetry_maps:
        for record in telemetry.values():
            stats = record["stats"]
            sketches.append(record["latencies"])
            sub_slides = int(stats["slides"])
            slides += sub_slides
            delivered += int(stats["results_delivered"])
            latency_max = max(latency_max, float(stats["max_latency"]))
            candidate_total += float(stats.get("average_candidates", 0.0)) * sub_slides
            candidate_max = max(candidate_max, float(stats.get("candidate_max", 0.0)))
            memory_kb_total += float(stats.get("average_memory_kb", 0.0)) * sub_slides
    merged: Dict[str, float] = {
        "slides": float(slides),
        "results_delivered": float(delivered),
        "average_candidates": candidate_total / slides if slides else 0.0,
        "candidate_max": candidate_max,
        "average_memory_kb": memory_kb_total / slides if slides else 0.0,
        "max_latency": latency_max,
    }
    sketch = merge_sketches(sketches)
    percentiles = sketch_ranks(sketch, STANDARD_FRACTIONS, latency_max)
    merged["p50_latency"], merged["p95_latency"], merged["p99_latency"] = percentiles
    merged["median_latency"] = merged["p50_latency"]
    merged["latency_samples"] = float(sum(sketch.values()))
    return merged

