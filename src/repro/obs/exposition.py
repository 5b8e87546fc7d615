"""Metrics exposition: Prometheus text format 0.0.4 and snapshot merging.

The registry's :meth:`~repro.obs.registry.MetricsRegistry.snapshot` is
the single wire shape; this module turns snapshots into the two consumer
formats:

* :func:`render_prometheus` — the text exposition format served by
  ``GET /v1/metrics`` on ``repro serve`` (scrapeable by any Prometheus);
* :func:`merge_snapshots` — cluster aggregation: per-worker snapshots
  (each its own process, its own registry) are merged into one, with an
  optional extra label (``shard="2"``) stamped on every series so
  per-shard detail survives the merge.  Series that end up with
  identical ``(name, labels)`` are combined by type: counters and
  histograms sum (their bucket layouts are fixed and identical by
  construction), gauges keep the last writer (merge callers stamp a
  disambiguating label when that matters).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "render_prometheus",
    "merge_snapshots",
    "snapshot_value",
    "find_series",
    "histogram_quantile",
]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    items = sorted(labels.items())
    if extra is not None:
        items = sorted(items + [extra])
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape_label(str(val))}"' for key, val in items)
    return "{" + body + "}"


def render_prometheus(snapshot: Sequence[Dict[str, object]]) -> str:
    """Render one merged snapshot as Prometheus text format 0.0.4.

    Families are emitted in sorted name order with one ``# HELP`` /
    ``# TYPE`` header each; histograms expand to the cumulative
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
    """
    by_name: Dict[str, List[Dict[str, object]]] = {}
    for record in snapshot:
        by_name.setdefault(record["name"], []).append(record)
    lines: List[str] = []
    for name in sorted(by_name):
        records = by_name[name]
        kind = records[0]["type"]
        help_text = next((r["help"] for r in records if r.get("help")), "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for record in records:
            labels = dict(record.get("labels") or {})
            if kind == "histogram":
                cumulative = 0
                for boundary, count in zip(record["boundaries"], record["buckets"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, ('le', _format_value(boundary)))}"
                        f" {cumulative}"
                    )
                cumulative += record["buckets"][len(record["boundaries"])]
                lines.append(
                    f"{name}_bucket{_render_labels(labels, ('le', '+Inf'))} {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} {_format_value(record['sum'])}"
                )
                lines.append(f"{name}_count{_render_labels(labels)} {record['count']}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} {_format_value(record['value'])}"
                )
    return "\n".join(lines) + "\n"


def merge_snapshots(
    snapshots: Iterable[Sequence[Dict[str, object]]],
    extra_labels: Optional[Sequence[Optional[Dict[str, str]]]] = None,
) -> List[Dict[str, object]]:
    """Combine several registries' snapshots into one.

    ``extra_labels[i]`` (when given) is stamped onto every series of
    ``snapshots[i]`` before merging — the cluster facade passes
    ``{"shard": str(i)}`` so worker series stay distinguishable.  After
    stamping, series with equal ``(name, labels)`` merge by type:
    counters and histogram buckets/sums/counts add, gauges keep the
    last value seen.
    """
    merged: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Dict[str, object]] = {}
    snapshot_list = list(snapshots)
    for index, snapshot in enumerate(snapshot_list):
        extra = None
        if extra_labels is not None and index < len(extra_labels):
            extra = extra_labels[index]
        for record in snapshot or ():
            labels = dict(record.get("labels") or {})
            if extra:
                labels.update(extra)
            key = (record["name"], tuple(sorted(labels.items())))
            existing = merged.get(key)
            if existing is None:
                copied = dict(record)
                copied["labels"] = labels
                if record["type"] == "histogram":
                    copied["buckets"] = list(record["buckets"])
                    copied["boundaries"] = list(record["boundaries"])
                merged[key] = copied
                continue
            if existing["type"] != record["type"]:
                raise ValueError(
                    f"series {record['name']!r} merges a {existing['type']} "
                    f"with a {record['type']}"
                )
            if record["type"] == "counter":
                existing["value"] += record["value"]
            elif record["type"] == "gauge":
                existing["value"] = record["value"]
            else:
                if existing["boundaries"] != list(record["boundaries"]):
                    raise ValueError(
                        f"histogram {record['name']!r} merges different bucket layouts"
                    )
                existing["buckets"] = [
                    a + b for a, b in zip(existing["buckets"], record["buckets"])
                ]
                existing["sum"] += record["sum"]
                existing["count"] += record["count"]
    return list(merged.values())


# ----------------------------------------------------------------------
# Snapshot querying (repro top, tests, CI assertions)
# ----------------------------------------------------------------------
def find_series(
    snapshot: Sequence[Dict[str, object]],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> List[Dict[str, object]]:
    """Series of one family whose labels include ``labels`` (subset match)."""
    wanted = labels or {}
    found = []
    for record in snapshot:
        if record["name"] != name:
            continue
        have = record.get("labels") or {}
        if all(have.get(k) == v for k, v in wanted.items()):
            found.append(record)
    return found


def histogram_quantile(
    record: Dict[str, object], fraction: float
) -> Optional[float]:
    """Estimate a quantile from one histogram snapshot record.

    Same rule as :meth:`repro.obs.registry.Histogram.quantile` — nearest
    rank to pick the bucket, linear interpolation inside it — but applied
    to the snapshot form, so it works on cluster-merged records too.
    Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    buckets = record["buckets"]
    boundaries = record["boundaries"]
    total = sum(buckets)
    if not total:
        return None
    target = fraction * total
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(boundaries):
                return float(boundaries[-1])
            upper = boundaries[index]
            lower = boundaries[index - 1] if index else 0.0
            inside = max(0.0, target - cumulative)
            return lower + (upper - lower) * min(1.0, inside / bucket_count)
        cumulative += bucket_count
    return float(boundaries[-1])


def snapshot_value(
    snapshot: Sequence[Dict[str, object]],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> float:
    """Sum of the matching series' values (histograms contribute their
    ``sum``); 0.0 when nothing matches."""
    total = 0.0
    for record in find_series(snapshot, name, labels):
        total += record["sum"] if record["type"] == "histogram" else record["value"]
    return total
