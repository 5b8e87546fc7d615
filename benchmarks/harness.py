"""The paper suite's measurement harness: scales, streams, the measure
loop, tables and text charts.

Every ``bench_*.py`` module imports what it needs from here, the way it
imports ``conftest``: pytest puts this directory on ``sys.path`` when it
collects a module from it.  Run the suite with explicit paths (the files
do not match ``test_*.py``), for example::

    REPRO_BENCH_SCALE=smoke python -m pytest benchmarks/bench_fig9_real_datasets.py

Throughput and latency claims come from ``perfbench/run.py`` instead, the
repository benchmark: it runs the engine, serving, durability and sharded
planes from outside the program and checks every answer against brute
force.

The paper streams gigabytes of data through C++ implementations; this
reproduction runs pure Python, so the harness scales every quantity down
while keeping the *ratios* the paper varies:

* the window covers a fixed fraction of the stream (the paper's default is
  ``n = 0.1%·|D|``; here the stream is short, so the window fraction is
  larger but still leaves dozens of window slides per run);
* the slide is a fraction of the window (paper default ``s = 0.1%·n``,
  swept up to ``10%·n``; tiny absolute slides are infeasible in Python so
  the quick scale starts at 1%);
* ``k`` is swept over the same ratios to the window size as in the paper.

Three scales are provided: ``QUICK_SCALE`` (default, minutes for the whole
suite), ``FULL_SCALE`` (``REPRO_BENCH_SCALE=full``) for longer runs that
sharpen the measured ratios, and ``SMOKE_SCALE``
(``REPRO_BENCH_SCALE=smoke``) for CI.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.framework import SAPTopK
from repro.core.interface import ContinuousTopKAlgorithm
from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.partitioning import EqualPartitioner
from repro.registry import algorithm_factories, get_algorithm
from repro.streams import make_dataset

AlgorithmFactory = Callable[[TopKQuery], ContinuousTopKAlgorithm]


# ----------------------------------------------------------------------
# Scales and streams
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchScale:
    """Sizes and parameter grids used by the benchmark suite."""

    name: str
    stream_length: int
    #: Default query parameters (n, k, s).
    default_n: int
    default_k: int
    default_s: int
    #: Values swept for the "effect of n / k / s" experiments.
    n_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    s_values: Tuple[int, ...]
    #: Partition resolutions for the Table 2 sweep.
    m_values: Tuple[int, ...]
    #: High-speed-stream parameters (Tables 5, 7, 9).
    highspeed_n: int = 0
    highspeed_k: int = 0
    highspeed_s: int = 0

    def default_query_params(self) -> Tuple[int, int, int]:
        return self.default_n, self.default_k, self.default_s


QUICK_SCALE = BenchScale(
    name="quick",
    stream_length=8_000,
    default_n=1_000,
    default_k=20,
    default_s=10,
    n_values=(500, 1_000, 2_000),
    k_values=(10, 20, 50),
    s_values=(10, 50, 100),
    m_values=(1, 2, 3, 5, 7, 9, 13, 17),
    highspeed_n=2_500,
    highspeed_k=100,
    highspeed_s=400,
)

FULL_SCALE = BenchScale(
    name="full",
    stream_length=12_000,
    default_n=1_200,
    default_k=50,
    default_s=60,
    n_values=(600, 1_200, 2_400),
    k_values=(10, 50, 200),
    s_values=(12, 60, 240),
    m_values=(1, 3, 5, 7, 9, 13, 17, 25, 33),
    highspeed_n=3_600,
    highspeed_k=200,
    highspeed_s=600,
)


#: Tiny scale for CI smoke jobs: a stream of a few thousand objects still
#: exercises every code path (window fills, partitions seal, fronts
#: retire) in a couple of seconds, but the measured ratios are too noisy
#: to compare against the paper.
SMOKE_SCALE = BenchScale(
    name="smoke",
    stream_length=3_000,
    default_n=400,
    default_k=10,
    default_s=20,
    n_values=(400,),
    k_values=(10,),
    s_values=(20,),
    m_values=(1, 3),
    highspeed_n=600,
    highspeed_k=20,
    highspeed_s=100,
)


def scale_from_env() -> BenchScale:
    """Pick the benchmark scale from ``REPRO_BENCH_SCALE`` (smoke/quick/full)."""
    value = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if value == "full":
        return FULL_SCALE
    if value == "smoke":
        return SMOKE_SCALE
    return QUICK_SCALE


@lru_cache(maxsize=16)
def _cached_stream(dataset: str, length: int) -> Tuple[StreamObject, ...]:
    return tuple(make_dataset(dataset).take(length))


def dataset_stream(dataset: str, length: int) -> List[StreamObject]:
    """Materialise (and cache) ``length`` objects of a named dataset."""
    return list(_cached_stream(dataset, length))


#: Dataset groups used by the individual experiments.
REAL_DATASETS: Tuple[str, ...] = ("STOCK", "TRIP", "PLANET")
SYNTHETIC_DATASETS: Tuple[str, ...] = ("TIMEU", "TIMER")
ALL_DATASETS: Tuple[str, ...] = REAL_DATASETS + SYNTHETIC_DATASETS


# ----------------------------------------------------------------------
# The measure loop
# ----------------------------------------------------------------------
#: The algorithms compared throughout the evaluation section, keyed by the
#: names used in the paper's figures.  All factories come from the unified
#: registry (:mod:`repro.registry`); "SAP" there defaults to the enhanced
#: dynamic partitioner, exactly the configuration the figures evaluate.
ALGORITHM_FACTORIES: Dict[str, AlgorithmFactory] = algorithm_factories(
    "SAP", "MinTopK", "SMA", "k-skyband"
)

#: SAP configurations compared in Tables 2 and 3, keyed by the paper's
#: abbreviations but resolved through the same registry.
PARTITIONER_FACTORIES: Dict[str, AlgorithmFactory] = {
    "EQUAL": get_algorithm("SAP-equal").factory,
    "DYNA": get_algorithm("SAP-dynamic").factory,
    "EN-DYNA": get_algorithm("SAP-enhanced").factory,
}


#: Cache of individual measurements so that tables sharing the same runs
#: (e.g. Figure 9 / Table 6 / Table 8) do not recompute them.
_MEASUREMENT_CACHE: Dict[Tuple[str, int, int, int, bool, str, int], Dict[str, float]] = {}


def measure_one(
    dataset: str,
    query: TopKQuery,
    name: str,
    factory: AlgorithmFactory,
    stream_length: int,
) -> Dict[str, float]:
    """Measure one algorithm on one workload (memoised)."""
    key = (dataset, query.n, query.k, query.s, query.time_based, name, stream_length)
    cached = _MEASUREMENT_CACHE.get(key)
    if cached is not None:
        return dict(cached)
    metrics = run_measured(factory(query), dataset_stream(dataset, stream_length))
    _MEASUREMENT_CACHE[key] = dict(metrics)
    return metrics


def run_measured(
    algorithm: ContinuousTopKAlgorithm, objects: Sequence[StreamObject]
) -> Dict[str, float]:
    """Subscribe ``algorithm`` alone on a fresh engine, push ``objects``
    and return the paper's three measures plus the slide count.

    ``seconds`` is the sum of the per-slide latencies, the time spent
    inside the algorithm, so batching and harness overhead are not
    charged to it.
    """
    engine = StreamEngine()
    subscription = engine.subscribe("run", algorithm=algorithm, keep_results=False)
    engine.push_many(objects)
    engine.close()
    metrics = subscription.metrics
    return {
        "seconds": metrics.latency_total,
        "candidates": metrics.average_candidates,
        "memory_kb": metrics.average_memory_kb,
        "slides": float(metrics.slides),
    }


def measure_algorithms(
    dataset: str,
    query: TopKQuery,
    factories: Mapping[str, AlgorithmFactory],
    stream_length: int,
) -> Dict[str, Dict[str, float]]:
    """Run every algorithm on the dataset and collect the three metrics."""
    return {
        name: measure_one(dataset, query, name, factory, stream_length)
        for name, factory in factories.items()
    }


def sweep_parameter(
    dataset: str,
    scale: BenchScale,
    parameter: str,
    values: Sequence[int],
    factories: Mapping[str, AlgorithmFactory],
) -> List[Dict[str, object]]:
    """Vary one query parameter (n, k, or s) keeping the others at their
    defaults — the structure of Figures 9/10 and Tables 3/5-9."""
    rows: List[Dict[str, object]] = []
    for value in values:
        n, k, s = scale.default_query_params()
        if parameter == "n":
            n = value
        elif parameter == "k":
            k = value
        elif parameter == "s":
            s = value
        else:
            raise ValueError(f"unknown parameter {parameter!r}")
        k = min(k, n)
        s = min(s, n)
        query = TopKQuery(n=n, k=k, s=s)
        measurements = measure_algorithms(dataset, query, factories, scale.stream_length)
        for name, metrics in measurements.items():
            rows.append(
                {
                    "dataset": dataset,
                    "parameter": parameter,
                    "value": value,
                    "algorithm": name,
                    **metrics,
                }
            )
    return rows


def equal_partition_sweep(
    dataset: str, scale: BenchScale, m_values: Optional[Sequence[int]] = None
) -> List[Dict[str, object]]:
    """Table 2: equal partition under different resolutions ``m``, comparing
    the non-delay policy, Algorithm 1, and Algorithm 1 + S-AVL."""
    n, k, s = scale.default_query_params()
    query = TopKQuery(n=n, k=k, s=s)
    rows: List[Dict[str, object]] = []
    variants: Dict[str, Callable[[int], ContinuousTopKAlgorithm]] = {
        "non-delay": lambda m: SAPTopK(
            query,
            partitioner=EqualPartitioner(m=m),
            meaningful_policy="eager",
            use_savl=False,
        ),
        "Algo1": lambda m: SAPTopK(
            query, partitioner=EqualPartitioner(m=m), use_savl=False
        ),
        "Algo1+S-AVL": lambda m: SAPTopK(query, partitioner=EqualPartitioner(m=m)),
    }
    objects = dataset_stream(dataset, scale.stream_length)
    for m in m_values or scale.m_values:
        for variant, builder in variants.items():
            metrics = run_measured(builder(m), objects)
            rows.append(
                {
                    "dataset": dataset,
                    "m": m,
                    "m_star": query.m_star,
                    "variant": variant,
                    "seconds": metrics["seconds"],
                    "candidates": metrics["candidates"],
                }
            )
    return rows


def partitioner_comparison(
    dataset: str, scale: BenchScale, parameter: str, values: Sequence[int]
) -> List[Dict[str, object]]:
    """Table 3: EQUAL vs DYNA vs EN-DYNA while varying one parameter."""
    return sweep_parameter(dataset, scale, parameter, values, PARTITIONER_FACTORIES)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
#: Directory (relative to the current directory) where benchmark tables
#: are written.
RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "benchmarks/results")


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.4f}",
) -> str:
    """Format a list of rows as a fixed-width text table."""

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(value) for value in row] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in rendered)) if rendered else len(str(column))
        for i, column in enumerate(columns)
    ]
    lines = [title, "-" * len(title)]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_results(
    name: str,
    table_text: str,
    raw: Optional[Mapping] = None,
    directory: Optional[str] = None,
) -> str:
    """Write a formatted table (and optional raw JSON) under the results dir.

    Returns the path of the text file.  Failures to write (e.g. read-only
    checkouts) are tolerated: the table is still printed to stdout by the
    caller, so no data is lost.
    """
    directory = directory or RESULTS_DIR
    try:
        os.makedirs(directory, exist_ok=True)
        text_path = os.path.join(directory, f"{name}.txt")
        with open(text_path, "w") as handle:
            handle.write(table_text + "\n")
        if raw is not None:
            with open(os.path.join(directory, f"{name}.json"), "w") as handle:
                json.dump(raw, handle, indent=2, default=str)
        return text_path
    except OSError:
        return ""


# ----------------------------------------------------------------------
# Text charts
# ----------------------------------------------------------------------
# The suite runs headless, so the figure benchmarks render their series as
# plain-text charts instead of image files: one block per swept parameter
# value, one bar per algorithm, scaled to the slowest algorithm of the
# block, which makes the *shape* of each sub-figure (who is fastest, where
# curves cross) visible in the output and results files.

#: Width of one bar, in characters.
BAR_WIDTH = 40


def series_from_rows(
    rows: Sequence[Mapping[str, object]],
    value_key: str = "seconds",
) -> Dict[str, Dict[object, float]]:
    """Group sweep rows into ``{algorithm: {parameter value: metric}}``."""
    series: Dict[str, Dict[object, float]] = {}
    for row in rows:
        algorithm = str(row["algorithm"])
        series.setdefault(algorithm, {})[row["value"]] = float(row[value_key])
    return series


def render_series_chart(
    title: str,
    series: Mapping[str, Mapping[object, float]],
    unit: str = "s",
) -> str:
    """Render one text chart per swept value, bars scaled per value."""
    if not series:
        return title
    values: List[object] = []
    for per_algorithm in series.values():
        for value in per_algorithm:
            if value not in values:
                values.append(value)

    lines = [title, "=" * len(title)]
    name_width = max(len(name) for name in series)
    for value in values:
        lines.append(f"\nparameter value = {value}")
        column = {
            name: per_algorithm[value]
            for name, per_algorithm in series.items()
            if value in per_algorithm
        }
        worst = max(column.values()) or 1.0
        for name in series:
            if name not in column:
                continue
            metric = column[name]
            bar = "#" * max(1, int(round(BAR_WIDTH * metric / worst)))
            lines.append(f"  {name.ljust(name_width)}  {bar} {metric:.4f}{unit}")
    return "\n".join(lines)


def render_sweep(
    title: str,
    rows: Sequence[Mapping[str, object]],
    value_key: str = "seconds",
    unit: str = "s",
) -> str:
    """Group sweep rows, then render the chart."""
    return render_series_chart(title, series_from_rows(rows, value_key), unit=unit)
