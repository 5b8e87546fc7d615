"""Unified observability plane: metrics, exposition, dashboard.

Every layer of the system — engine, query groups, partition seals, the
shard router's command queues, the serving layer's batcher and dedupe
window — records into one process-local :class:`MetricsRegistry` of
named counters, gauges, and log-linear-bucket histograms.  The registry
is lock-free on the hot path (instruments are resolved once and cached by
their owners), and a disabled registry hands out a shared no-op
instrument so the whole plane compiles away to one dead method call per
sample.

The slide lifecycle is timed from inside by one histogram family,
``repro_stage_seconds{stage}``, with the stages ``encode`` and ``send``
(router), ``decode`` and ``push`` (shard worker), ``seal`` (SAP partition
seal) and ``merge`` (one query group's dispatch of one slide).  Around
the metrics sit two consumers:

* **exposition** (:func:`render_prometheus`, :func:`merge_snapshots`):
  ``GET /v1/metrics`` on ``repro serve`` in Prometheus text format 0.0.4,
  cluster-aggregated across worker processes, plus the ``/v1/metrics.json``
  snapshot feed;
* **dashboard** (``repro top``): a stdlib ANSI live view over the
  snapshot feed.

:mod:`repro.obs.quantiles` is also the library's single percentile
implementation, including the 1%-accurate latency sketch that the
per-subscription collector keeps and the cluster merge layer adds up.
"""

from .exposition import (
    find_series,
    histogram_quantile,
    merge_snapshots,
    render_prometheus,
    snapshot_value,
)
from .quantiles import (
    STANDARD_FRACTIONS,
    nearest_rank,
    nearest_ranks,
)
from .registry import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopInstrument,
    get_registry,
    log_linear_buckets,
    set_registry,
)
from .top import render_dashboard, run_top

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NoopInstrument",
    "SIZE_BUCKETS",
    "STANDARD_FRACTIONS",
    "find_series",
    "get_registry",
    "histogram_quantile",
    "log_linear_buckets",
    "merge_snapshots",
    "nearest_rank",
    "nearest_ranks",
    "render_dashboard",
    "render_prometheus",
    "run_top",
    "set_registry",
    "snapshot_value",
]
