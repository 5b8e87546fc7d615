"""Experiment drivers shared by the benchmark suite.

Each helper reproduces the measurement loop behind one family of the
paper's tables/figures: run a set of algorithms on a dataset under a query,
record running time, average candidate count, and average memory, and
return plain dictionaries the benchmark modules format into tables.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.framework import SAPTopK
from ..core.interface import ContinuousTopKAlgorithm
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..engine import QuerySpec, StreamEngine
from ..partitioning import EqualPartitioner
from ..registry import algorithm_factories, get_algorithm
from .workloads import BenchScale, dataset_stream

AlgorithmFactory = Callable[[TopKQuery], ContinuousTopKAlgorithm]

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


def measure_multiquery_sharing(
    dataset: str,
    query_shape: Tuple[int, int],
    k_values: Sequence[int],
    algorithm: str,
    stream_length: int,
) -> Dict[str, object]:
    """Compare N independent engines against one shared multi-query plane.

    Runs ``len(k_values)`` queries of one window shape ``(n, s)`` — first
    each on its own :class:`~repro.engine.StreamEngine` (the pre-group
    architecture), then all on a single engine, where they form one query
    group and share slide batching and, when the algorithm supports it, a
    ``k_max`` execution plan.  Returns throughput (objects/second through
    the plane) and per-slide latency aggregates for both arrangements.
    """
    n, s = query_shape
    objects = dataset_stream(dataset, stream_length)
    queries = [TopKQuery(n=n, k=k, s=s) for k in k_values]

    def run_engines(shared: bool) -> Dict[str, float]:
        engines: List[StreamEngine] = []
        subscriptions = []
        if shared:
            engines.append(StreamEngine(keep_results=False, return_results=False))
        for query in queries:
            if not shared:
                engines.append(StreamEngine(keep_results=False, return_results=False))
            subscriptions.append(
                engines[-1].subscribe(f"k{query.k}-{len(subscriptions)}", query, algorithm=algorithm)
            )
        started = time.perf_counter()
        for engine in engines:
            engine.push_many(objects)
        elapsed = time.perf_counter() - started
        slide_latencies = [sub.metrics for sub in subscriptions]
        return {
            "seconds": elapsed,
            "events_per_second": len(objects) / elapsed if elapsed else float("inf"),
            "median_slide_latency": max(m.median_latency for m in slide_latencies),
            "p95_slide_latency": max(m.p95_latency for m in slide_latencies),
            "slides": sum(m.slides for m in slide_latencies),
        }

    independent = run_engines(shared=False)
    shared = run_engines(shared=True)
    return {
        "dataset": dataset,
        "algorithm": algorithm,
        "n": n,
        "s": s,
        "k_values": list(k_values),
        "queries": len(k_values),
        "stream_length": len(objects),
        "independent": independent,
        "shared": shared,
        "speedup": independent["seconds"] / shared["seconds"] if shared["seconds"] else float("inf"),
    }


def _preference_vectors(users: int, dim: int, centers: int, seed: int) -> List[Tuple[float, ...]]:
    """Deterministic user vectors drawn around ``centers`` shared tastes.

    Mirrors the "millions of users, thousands of tastes" premise of the
    clustering plane: each user's vector is a small multiplicative
    perturbation of one of a few center vectors, so greedy cosine
    clustering recovers roughly one cluster per center.
    """
    import random

    rng = random.Random(seed)
    anchor = [
        tuple(rng.uniform(0.2, 1.0) for _ in range(dim)) for _ in range(centers)
    ]
    vectors = []
    for index in range(users):
        center = anchor[index % centers]
        vectors.append(
            tuple(max(0.0, w * (1.0 + rng.uniform(-0.05, 0.05))) for w in center)
        )
    return vectors


def _attribute_objects(length: int, dim: int, seed: int):
    """A stream of attribute-carrying objects (scores live in the vectors)."""
    import random

    rng = random.Random(seed)
    return [
        StreamObject(
            score=0.0,
            t=t,
            payload={"attributes": [rng.uniform(0.0, 100.0) for _ in range(dim)]},
        )
        for t in range(length)
    ]


def measure_preference_scale(
    users: int,
    query: TopKQuery,
    stream_length: int,
    *,
    dim: int = 4,
    centers: int = 16,
    baseline_users: int = 500,
    exactness_sample: int = 8,
    inner: str = "SAP",
    seed: int = 97,
) -> Dict[str, object]:
    """One tier of the subscription-scale experiment.

    Three legs, all over the same deterministic attribute stream:

    * **clustered** — ``users`` preference subscriptions on one engine,
      answered through padded-k cluster plans (the tentpole path).  Wall
      time and summed per-subscription memory are measured directly.
    * **baseline** — per-user exact plans (every subscription pinned to
      its own cluster id, so no plan forms and each user runs a private
      inner core).  Running every user this way at 10k+ is exactly the
      quadratic blow-up the clustering plane removes, so the baseline is
      *measured* on ``baseline_users`` subscriptions and extrapolated
      linearly; ``baseline_measured_users`` records the honest sample
      size.
    * **exactness** — ``exactness_sample`` members are re-run on fresh
      single-user engines (trivially exact) and compared byte-for-byte
      against the answers the shared plans produced for them.
    """
    from ..core.result import results_agree

    vectors = _preference_vectors(users, dim, centers, seed)
    objects = _attribute_objects(stream_length, dim, seed + 1)
    sample_step = max(1, users // max(1, exactness_sample))
    sampled = list(range(0, users, sample_step))[:exactness_sample]
    sampled_set = set(sampled)

    def preference_spec(vector, cluster_id=None) -> QuerySpec:
        spec = QuerySpec(n=query.n, k=query.k, s=query.s, time_based=query.time_based)
        return spec.using(inner).preferring(vector, cluster_id=cluster_id)

    # Clustered leg: one engine, shared plans per preference cluster.
    engine = StreamEngine(keep_results=False)
    for index, vector in enumerate(vectors):
        engine.subscribe(
            f"user-{index}",
            preference_spec(vector),
            keep_results=index in sampled_set,
            collect_metrics=False,
        )
    started = time.perf_counter()
    engine.push_many(objects, chunk_size=max(1, query.s))
    clustered_seconds = time.perf_counter() - started
    clustered_memory = sum(
        engine.subscription(name).snapshot()["memory_bytes"]
        for name in engine.subscriptions()
    )
    reranks = fallbacks = clusters = 0
    for group in engine.groups():
        for plan in group.get("plans", ()):
            if plan.get("kind") == "cluster":
                clusters += 1
                reranks += plan.get("reranks", 0)
                fallbacks += plan.get("fallbacks", 0)
    sampled_results = {index: engine.results(f"user-{index}") for index in sampled}
    engine.close()

    # Exactness leg: each sampled member alone on a fresh engine is a
    # lone cluster member, i.e. a private exact plan.
    exact = True
    for index in sampled:
        solo = StreamEngine(keep_results=True)
        solo.subscribe(f"user-{index}", preference_spec(vectors[index]))
        solo.push_many(objects, chunk_size=max(1, query.s))
        if not results_agree(solo.results(f"user-{index}"), sampled_results[index]):
            exact = False
        solo.close()

    # Baseline leg: per-user exact plans, measured on a subsample and
    # extrapolated linearly (each user carries a full private core, so
    # cost per user is constant in the user count).
    measured_users = min(users, baseline_users)
    baseline = StreamEngine(keep_results=False)
    for index in range(measured_users):
        baseline.subscribe(
            f"user-{index}",
            # Unique cluster id: a bucket of one, so no shared plan forms.
            preference_spec(vectors[index], cluster_id=index),
            keep_results=False,
            collect_metrics=False,
        )
    started = time.perf_counter()
    baseline.push_many(objects, chunk_size=max(1, query.s))
    baseline_measured_seconds = time.perf_counter() - started
    baseline_measured_memory = sum(
        baseline.subscription(name).snapshot()["memory_bytes"]
        for name in baseline.subscriptions()
    )
    baseline.close()

    scale_factor = users / measured_users
    baseline_seconds = baseline_measured_seconds * scale_factor
    baseline_memory = baseline_measured_memory * scale_factor
    return {
        "users": users,
        "clusters": clusters,
        "inner": inner,
        "stream_length": stream_length,
        "clustered": {
            "seconds": round(clustered_seconds, 4),
            "events_per_second": round(stream_length / clustered_seconds, 1),
            "memory_bytes": int(clustered_memory),
        },
        "baseline": {
            "seconds": round(baseline_seconds, 4),
            "events_per_second": round(stream_length / baseline_seconds, 1),
            "memory_bytes": int(baseline_memory),
            "measured_users": measured_users,
            "measured_seconds": round(baseline_measured_seconds, 4),
        },
        "speedup": round(baseline_seconds / clustered_seconds, 3),
        "memory_ratio": round(clustered_memory / max(1.0, baseline_memory), 4),
        "reranks": reranks,
        "fallbacks": fallbacks,
        "exact": exact,
        "exactness_sample": len(sampled),
    }


def main(argv: Sequence[str]) -> int:  # pragma: no cover - CLI convenience
    """Tiny CLI: ``python -m repro.bench.experiments fig9 STOCK``."""
    from .reporting import format_table
    from .workloads import scale_from_env

    if len(argv) < 2:
        print("usage: python -m repro.bench.experiments <fig9|table3|multiquery> <DATASET>")
        return 1
    scale = scale_from_env()
    kind, dataset = argv[0], argv[1]
    if kind == "fig9":
        rows = sweep_parameter(dataset, scale, "n", scale.n_values, ALGORITHM_FACTORIES)
    elif kind == "table3":
        rows = partitioner_comparison(dataset, scale, "k", scale.k_values)
    elif kind == "multiquery":
        n, _, s = scale.default_query_params()
        results = [
            measure_multiquery_sharing(
                dataset, (2 * n, max(1, n // 10)), tuple(scale.k_values), name, scale.stream_length
            )
            for name in ("SAP", "k-skyband", "MinTopK")
        ]
        table = format_table(
            f"multi-query sharing on {dataset} ({scale.name} scale)",
            ["algorithm", "queries", "indep s", "shared s", "speedup"],
            [
                [row["algorithm"], row["queries"], row["independent"]["seconds"],
                 row["shared"]["seconds"], row["speedup"]]
                for row in results
            ],
        )
        print(table)
        return 0
    else:
        print(f"unknown experiment {kind!r}")
        return 1
    table = format_table(
        f"{kind} on {dataset} ({scale.name} scale)",
        ["algorithm", "parameter", "value", "seconds", "candidates", "memory_kb"],
        [
            [row["algorithm"], row["parameter"], row["value"], row["seconds"], row["candidates"], row["memory_kb"]]
            for row in rows
        ],
    )
    print(table)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
