"""A process-local, lock-cheap metrics registry.

Every layer of the stack registers named **instruments** here — counters,
gauges, and histograms, each with a frozen label set — instead of growing
its own ad-hoc stat dict.  One registry serves a whole process; worker
processes of the sharded plane each have their own, and the facade merges
their snapshots (:func:`repro.obs.exposition.merge_snapshots`) so a
``/v1/metrics`` scrape sees the cluster as one.

Design constraints, in order:

* **Hot-path cost.**  Instruments are resolved once (at subscribe /
  construction time) and cached by the call sites; an increment is then a
  plain attribute method with no locking — CPython's GIL makes the rare
  lost-update race benign for monotone counters, and the alternative (a
  lock per increment) is exactly the overhead the <5% gate forbids.
  Instrument *creation* is locked (it mutates shared dicts).
* **No-op when disabled.**  A disabled registry hands out the shared
  :data:`NOOP` instrument from every factory, so instrumented code paths
  compile down to a method call on a do-nothing singleton — measured at
  ~0% in ``benchmarks/bench_obs_overhead.py``.
* **Bounded label cardinality.**  Each instrument family caps its series
  count (:data:`MAX_SERIES_PER_FAMILY`); past the cap, new label
  combinations all share one overflow series (labelled
  ``overflow="true"``) instead of growing memory forever or raising on a
  hot path.

Histogram buckets are **fixed log-linear**: boundaries at 1, 2, and 5
times each power of ten across a configured range, so bucket layout is
identical in every process (a hard requirement for cross-process
aggregation) and quantile estimates stay within a factor of ~2 at worst.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP",
    "NoopInstrument",
    "get_registry",
    "set_registry",
    "log_linear_buckets",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "MAX_SERIES_PER_FAMILY",
]

#: Series cap per instrument family (one family = one metric name).  High
#: enough for per-shard x per-algorithm x per-stage label products, low
#: enough that a runaway label (e.g. a user id) cannot exhaust memory.
MAX_SERIES_PER_FAMILY = 512

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def log_linear_buckets(low: float, high: float) -> Tuple[float, ...]:
    """Boundaries at 1/2/5 per decade covering ``[low, high]``.

    ``low`` and ``high`` are clamped to the nearest enclosing decade, so
    ``log_linear_buckets(1e-6, 10)`` yields ``1e-06, 2e-06, 5e-06, ...,
    5.0, 10.0``.  The implicit final bucket is +Inf.
    """
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got {low}, {high}")
    boundaries: List[float] = []
    # Integer decade exponents avoid accumulating float error across the
    # range; the 1e-9 slack admits boundaries equal to low/high despite
    # representation noise (10**-6 may land a hair above 1e-6).
    for exponent in range(
        math.floor(math.log10(low)) - 1, math.ceil(math.log10(high)) + 1
    ):
        for mantissa in (1, 2, 5):
            # Parse the decimal literal instead of multiplying floats so
            # boundaries render cleanly (5e-06, not 4.9999...e-06).
            boundary = float(f"{mantissa}e{exponent}")
            if low * (1 - 1e-9) <= boundary <= high * (1 + 1e-9):
                boundaries.append(boundary)
    return tuple(boundaries)


#: Default boundaries for second-valued histograms: 1µs to 10s.
LATENCY_BUCKETS = log_linear_buckets(1e-6, 10.0)

#: Default boundaries for count/byte-valued histograms: 1 to 1e9.
SIZE_BUCKETS = log_linear_buckets(1.0, 1e9)


class Counter:
    """A monotonically increasing value (events, bytes, drops)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (occupancy, pending, live clients)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A distribution over fixed buckets (latencies, sizes).

    ``observe`` is the hot operation: one bisect over the shared boundary
    tuple plus two adds.  ``counts[i]`` counts observations ``<=
    boundaries[i]``-exclusive-of-lower — i.e. the *non-cumulative* bucket
    populations; the final slot counts the +Inf overflow.  Exposition
    renders the cumulative Prometheus form.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "boundaries", "counts", "sum", "count")

    def __init__(
        self, name: str, labels: LabelItems, boundaries: Sequence[float]
    ) -> None:
        bounds = tuple(boundaries)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"bucket boundaries must strictly increase: {bounds}")
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one bisect either way)."""
        self.counts[bisect_left(self.boundaries, value)] += count
        self.sum += value * count
        self.count += count

    def quantile(self, fraction: float) -> float:
        """Estimated percentile from the bucket populations.

        The nearest-rank target is located in its bucket and linearly
        interpolated across the bucket's span (Prometheus
        ``histogram_quantile`` semantics); 0.0 with no observations.
        Estimates are bucket-resolution approximations — the ``stats()``
        surfaces use the 1%-accurate latency sketch instead.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self.count:
            return 0.0
        target = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= target:
                if index >= len(self.boundaries):
                    return self.boundaries[-1]
                upper = self.boundaries[index]
                lower = self.boundaries[index - 1] if index else 0.0
                inside = max(0.0, target - cumulative)
                return lower + (upper - lower) * min(1.0, inside / bucket_count)
            cumulative += bucket_count
        return self.boundaries[-1]


class NoopInstrument:
    """The disabled registry's universal instrument: every write is a
    no-op, every read is zero.  One shared instance serves all call
    sites, so a disabled registry costs one attribute call per would-be
    sample."""

    kind = "noop"
    name = ""
    labels: LabelItems = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def quantile(self, fraction: float) -> float:
        return 0.0


NOOP = NoopInstrument()


class _Family:
    """All series of one metric name: type, help text, and the label map."""

    __slots__ = ("name", "kind", "help", "boundaries", "series")

    def __init__(self, name, kind, help_text, boundaries) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.boundaries = boundaries
        self.series: Dict[LabelItems, object] = {}


class MetricsRegistry:
    """Named instruments of one process, plus pull-time collectors.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    ``(name, labels)`` pair always returns the same instrument, so call
    sites may re-resolve freely (though hot paths should cache).
    Registering one name with two types (or two bucket layouts) is a
    programming error and raises.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}
        self._collectors: List = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._series(name, "counter", help_text, labels, None)

    def gauge(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._series(name, "gauge", help_text, labels, None)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._series(name, "histogram", help_text, labels, tuple(buckets))

    def _series(self, name, kind, help_text, labels, boundaries):
        if not self.enabled:
            return NOOP
        items = _label_items(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, boundaries)
                self._families[name] = family
            else:
                if family.kind != kind:
                    raise ValueError(
                        f"instrument {name!r} is a {family.kind}, not a {kind}"
                    )
                if kind == "histogram" and family.boundaries != boundaries:
                    raise ValueError(
                        f"histogram {name!r} was registered with different buckets"
                    )
                if help_text and not family.help:
                    family.help = help_text
            instrument = family.series.get(items)
            if instrument is None:
                if len(family.series) >= MAX_SERIES_PER_FAMILY:
                    # Cardinality guard: every overflowing label set shares
                    # one series instead of growing the family forever.
                    items = (("overflow", "true"),)
                    instrument = family.series.get(items)
                    if instrument is not None:
                        return instrument
                instrument = self._build(family, items)
                family.series[items] = instrument
            return instrument

    @staticmethod
    def _build(family: _Family, items: LabelItems):
        if family.kind == "counter":
            return Counter(family.name, items)
        if family.kind == "gauge":
            return Gauge(family.name, items)
        return Histogram(family.name, items, family.boundaries)

    # ------------------------------------------------------------------
    # Pull-time collectors
    # ------------------------------------------------------------------
    def add_collector(self, collector) -> None:
        """Register ``collector(registry)`` to run at every snapshot.

        Collectors convert cheap, already-maintained state (ring
        occupancy, pending batch sizes, dedupe window fill) into gauges
        at *pull* time, so components with natural state counters pay
        nothing per event."""
        if self.enabled:
            self._collectors.append(collector)

    def remove_collector(self, collector) -> None:
        if collector in self._collectors:
            self._collectors.remove(collector)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, object]]:
        """Every series as one JSON-friendly record list.

        The wire shape shared by ``/v1/metrics.json``, the cluster merge
        and ``repro top``: one record per series with ``name``, ``type``,
        ``help``, ``labels``, and either
        ``value`` (counter/gauge) or ``buckets``/``sum``/``count``
        (histogram, with non-cumulative bucket counts keyed by upper
        boundary).
        """
        for collector in list(self._collectors):
            collector(self)
        records: List[Dict[str, object]] = []
        with self._lock:
            families = [
                (family, list(family.series.values()))
                for family in self._families.values()
            ]
        for family, series in families:
            for instrument in series:
                record: Dict[str, object] = {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labels": dict(instrument.labels),
                }
                if family.kind == "histogram":
                    record["buckets"] = list(instrument.counts)
                    record["boundaries"] = list(instrument.boundaries)
                    record["sum"] = instrument.sum
                    record["count"] = instrument.count
                else:
                    record["value"] = instrument.value
                records.append(record)
        return records


# ----------------------------------------------------------------------
# The process default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry(enabled=True)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every built-in layer writes to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default (tests, the overhead benchmark's disabled
    mode); returns the previous registry.  Instruments already resolved
    from the old registry keep writing to it — the swap governs
    everything constructed afterwards."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
