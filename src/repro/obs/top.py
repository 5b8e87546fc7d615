"""``repro top``: a live terminal dashboard over the metrics snapshot feed.

The serving layer exposes its merged registry snapshot as JSON at
``/v1/metrics.json``; this module polls that endpoint and renders a
compact ANSI dashboard — cluster-wide rates (events/s, slides/s,
deliveries/s), delivery latency quantiles from the merged histogram, and
a per-shard table (events, candidates and backpressure
counters).  Everything is stdlib: ``urllib`` to poll, ANSI
escapes to repaint.

The rendering itself is a pure function of two snapshots
(:func:`render_dashboard`), which is what the tests drive — the polling
loop is a thin shell around it.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Sequence, TextIO

from .exposition import find_series, histogram_quantile, snapshot_value

__all__ = ["render_dashboard", "run_top", "fetch_snapshot"]

CLEAR = "\x1b[H\x1b[2J"
BOLD = "\x1b[1m"
DIM = "\x1b[2m"
RESET = "\x1b[0m"


def _rate(
    current: Dict[str, object],
    previous: Optional[Dict[str, object]],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> float:
    """Per-second increase of a counter family between two snapshots."""
    if previous is None:
        return 0.0
    dt = float(current.get("ts", 0.0)) - float(previous.get("ts", 0.0))
    if dt <= 0:
        return 0.0
    delta = snapshot_value(current.get("metrics", ()), name, labels) - snapshot_value(
        previous.get("metrics", ()), name, labels
    )
    return max(0.0, delta) / dt


def _fmt_count(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


def _merged_histogram(
    metrics: Sequence[Dict[str, object]], name: str
) -> Optional[Dict[str, object]]:
    """All series of one histogram family folded into a single record."""
    merged: Optional[Dict[str, object]] = None
    for record in find_series(metrics, name):
        if record["type"] != "histogram":
            continue
        if merged is None:
            merged = {
                "buckets": list(record["buckets"]),
                "boundaries": list(record["boundaries"]),
            }
        elif merged["boundaries"] == list(record["boundaries"]):
            merged["buckets"] = [
                a + b for a, b in zip(merged["buckets"], record["buckets"])
            ]
    return merged


def _shard_ids(metrics: Sequence[Dict[str, object]]) -> List[str]:
    shards = set()
    for record in metrics:
        shard = (record.get("labels") or {}).get("shard")
        if shard is not None:
            shards.add(str(shard))
    return sorted(shards, key=lambda s: (len(s), s))


def _cluster_ids(metrics: Sequence[Dict[str, object]]) -> List[Dict[str, str]]:
    """The ``{cluster, inner}`` label sets of every preference cluster."""
    seen: Dict[tuple, Dict[str, str]] = {}
    for record in metrics:
        labels = record.get("labels") or {}
        cluster = labels.get("cluster")
        if cluster is None:
            continue
        key = (str(cluster), str(labels.get("inner", "?")))
        seen.setdefault(key, {"cluster": key[0], "inner": key[1]})
    return [seen[key] for key in sorted(seen, key=lambda k: (len(k[0]), k))]


def render_dashboard(
    current: Dict[str, object],
    previous: Optional[Dict[str, object]] = None,
    color: bool = True,
) -> str:
    """Render one dashboard frame from a ``/v1/metrics.json`` document.

    ``current`` / ``previous`` are the endpoint's JSON dicts
    (``{"ts": epoch_seconds, "metrics": [snapshot records]}``); rates
    need both, everything else reads ``current`` alone.
    """
    bold, dim, reset = (BOLD, DIM, RESET) if color else ("", "", "")
    metrics = current.get("metrics", ())
    lines: List[str] = []
    stamp = time.strftime("%H:%M:%S", time.localtime(float(current.get("ts", 0.0))))
    lines.append(f"{bold}repro top{reset}  {dim}{stamp}{reset}")

    events_rate = _rate(current, previous, "repro_events_ingested_total")
    slides_rate = _rate(current, previous, "repro_slides_total")
    deliver_rate = _rate(current, previous, "repro_results_delivered_total")
    lines.append(
        f"  events/s {bold}{_fmt_count(events_rate)}{reset}"
        f"   slides/s {bold}{_fmt_count(slides_rate)}{reset}"
        f"   deliveries/s {bold}{_fmt_count(deliver_rate)}{reset}"
    )

    latency = _merged_histogram(metrics, "repro_deliver_latency_seconds")
    if latency is not None:
        p50 = histogram_quantile(latency, 0.5)
        p95 = histogram_quantile(latency, 0.95)
        p99 = histogram_quantile(latency, 0.99)
        lines.append(
            f"  latency p50 {bold}{_fmt_seconds(p50)}{reset}"
            f"   p95 {bold}{_fmt_seconds(p95)}{reset}"
            f"   p99 {bold}{_fmt_seconds(p99)}{reset}"
        )

    backpressure = snapshot_value(metrics, "repro_backpressure_waits_total")
    dropped = snapshot_value(metrics, "repro_results_dropped_total")
    lines.append(
        f"  backpressure {_fmt_count(backpressure)}   dropped {_fmt_count(dropped)}"
    )

    shards = _shard_ids(metrics)
    if shards:
        lines.append("")
        lines.append(
            f"  {dim}{'shard':>6} {'events':>10} {'slides':>8} "
            f"{'cands':>8} {'bp':>6}{reset}"
        )
        for shard in shards:
            sel = {"shard": shard}
            events = snapshot_value(metrics, "repro_events_ingested_total", sel)
            slides = snapshot_value(metrics, "repro_slides_total", sel)
            cands = snapshot_value(metrics, "repro_candidates_last", sel)
            shard_bp = snapshot_value(metrics, "repro_backpressure_waits_total", sel)
            lines.append(
                f"  {shard:>6} {_fmt_count(events):>10} {_fmt_count(slides):>8} "
                f"{_fmt_count(cands):>8} {_fmt_count(shard_bp):>6}"
            )

    clusters = _cluster_ids(metrics)
    if clusters:
        lines.append("")
        lines.append(
            f"  {dim}{'cluster':>8} {'inner':>8} {'members':>8} {'rerank/s':>9} "
            f"{'fallbk/s':>9} {'hit%':>6} {'drift':>6}{reset}"
        )
        for sel in clusters:
            members = snapshot_value(metrics, "repro_cluster_members", sel)
            reranks = _rate(current, previous, "repro_cluster_rerank_total", sel)
            fallbacks = _rate(current, previous, "repro_cluster_fallback_total", sel)
            # Lifetime hit rate: shared answers over all answers (a
            # falling hit rate says the cluster's envelope is too loose
            # for its members).
            total_rerank = snapshot_value(metrics, "repro_cluster_rerank_total", sel)
            total_fallback = snapshot_value(metrics, "repro_cluster_fallback_total", sel)
            answered = total_rerank + total_fallback
            hit = f"{100.0 * total_rerank / answered:.1f}" if answered else "-"
            drift = snapshot_value(metrics, "repro_cluster_drift_total", sel)
            lines.append(
                f"  {sel['cluster']:>8} {sel['inner']:>8} {_fmt_count(members):>8} "
                f"{_fmt_count(reranks):>9} {_fmt_count(fallbacks):>9} "
                f"{hit:>6} {_fmt_count(drift):>6}"
            )

    stage = _merged_histogram(metrics, "repro_stage_seconds")
    if stage is None:
        per_stage = []
    else:
        per_stage = [
            (rec["labels"].get("stage", "?"), rec)
            for rec in find_series(metrics, "repro_stage_seconds")
            if rec["type"] == "histogram" and sum(rec["buckets"])
        ]
    if per_stage:
        lines.append("")
        lines.append(f"  {dim}{'stage':>14} {'count':>8} {'p50':>10} {'p99':>10}{reset}")
        folded: Dict[str, Dict[str, object]] = {}
        for stage_name, rec in per_stage:
            slot = folded.get(stage_name)
            if slot is None:
                folded[stage_name] = {
                    "buckets": list(rec["buckets"]),
                    "boundaries": list(rec["boundaries"]),
                }
            elif slot["boundaries"] == list(rec["boundaries"]):
                slot["buckets"] = [
                    a + b for a, b in zip(slot["buckets"], rec["buckets"])
                ]
        for stage_name in sorted(folded):
            rec = folded[stage_name]
            count = sum(rec["buckets"])
            lines.append(
                f"  {stage_name:>14} {_fmt_count(count):>8} "
                f"{_fmt_seconds(histogram_quantile(rec, 0.5)):>10} "
                f"{_fmt_seconds(histogram_quantile(rec, 0.99)):>10}"
            )

    return "\n".join(lines) + "\n"


def fetch_snapshot(url: str, timeout: float = 5.0) -> Dict[str, object]:
    """GET one ``/v1/metrics.json`` document."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def run_top(
    url: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
    color: Optional[bool] = None,
) -> int:
    """Poll ``url`` and repaint the dashboard until interrupted.

    ``iterations`` bounds the number of frames (None = run forever);
    returns the number of frames drawn.
    """
    out = stream if stream is not None else sys.stdout
    if color is None:
        color = hasattr(out, "isatty") and out.isatty()
    previous: Optional[Dict[str, object]] = None
    frames = 0
    try:
        while iterations is None or frames < iterations:
            current = fetch_snapshot(url)
            frame = render_dashboard(current, previous, color=color)
            if color:
                out.write(CLEAR)
            out.write(frame)
            out.flush()
            previous = current
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
