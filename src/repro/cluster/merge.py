"""Merging per-shard results, statistics, and knowledge into one view.

Each subscription lives on exactly one shard, so per-subscription records
merge by disjoint union.  Cluster-wide *distributional* statistics are the
subtle part: a latency percentile of the cluster is **not** the average of
the shards' percentiles (a shard with 10 slow slides and one with 10 000
fast ones would average to nonsense).  The workers therefore ship each
subscription's latency sketch (:mod:`repro.obs.quantiles`), and
:func:`merged_latency_stats` adds their bucket counts — an exact merge,
so the cluster's percentiles are those of one sketch fed every slide.

:class:`AggregatedKnowledge` is the control plane's cluster view: one
controller runs per shard (each sees only its own engine), and this class
folds their knowledge reports — adaptation events and per-subscription
sample counts — into a single audit surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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


class AggregatedKnowledge:
    """Read-only cluster view over the per-shard controllers' knowledge.

    Built from the ``controller_report`` payloads of every shard that has
    a controller attached; shards without one contribute nothing.
    """

    def __init__(self, reports: Sequence[Optional[Dict[str, object]]]) -> None:
        self._reports = [report for report in reports if report is not None]

    @property
    def shard_count(self) -> int:
        """Number of shards that reported a controller."""
        return len(self._reports)

    def events(self) -> List[Dict[str, object]]:
        """Every shard's adaptation events, tagged with their shard and
        ordered by slide index (ties: shard order) — one audit log."""
        merged: List[Dict[str, object]] = []
        for report in self._reports:
            for event in report["events"]:
                tagged = dict(event)
                tagged["shard"] = report["shard"]
                merged.append(tagged)
        merged.sort(key=lambda event: (event["slide_index"], event["shard"]))
        return merged

    def applied_events(self) -> List[Dict[str, object]]:
        return [event for event in self.events() if event["applied"]]

    @property
    def events_total(self) -> int:
        """Exact count of logged events across shards (the per-shard logs
        are bounded, this counter is not)."""
        return sum(report["knowledge"]["events_total"] for report in self._reports)

    def subscriptions(self) -> Dict[str, Dict[str, object]]:
        """Per-subscription monitor summaries, tagged with their shard."""
        merged: Dict[str, Dict[str, object]] = {}
        for report in self._reports:
            for name, summary in report["knowledge"]["subscriptions"].items():
                tagged = dict(summary)
                tagged["shard"] = report["shard"]
                merged[name] = tagged
        return merged

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary (the CLI's ``--json`` output)."""
        return {
            "shards_with_controllers": self.shard_count,
            "subscriptions": self.subscriptions(),
            "events": self.events(),
            "events_total": self.events_total,
        }
