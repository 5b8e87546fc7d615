"""Multi-query sharing — N independent engines vs one shared plane.

Unlike the table/figure reproductions, it measures the engine
architecture itself; the table is written under ``benchmarks/results/``.

The workload is the ROADMAP's north-star scenario scaled down: eight users
watching the same feed with the same window shape ``(n, s)`` but different
result sizes ``k``.  The pre-group architecture runs eight independent
engines (eight batchers, eight SAP instances); the query-group plane
runs one engine, where the eight queries share one batcher and one
``k_max`` algorithm core.  The acceptance bar is a >= 1.5x throughput gain
for SAP.
"""

import time
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core.query import TopKQuery
from repro.core.result import results_agree
from repro.engine import StreamEngine
from repro.registry import create_algorithm

from conftest import run_sweep
from harness import dataset_stream, format_table, write_results

#: Result sizes of the eight concurrent queries (shared window shape).
K_VALUES = (5, 10, 15, 20, 25, 30, 40, 50)
ALGORITHMS = ("SAP", "k-skyband", "MinTopK")


def fanout_shape(scale):
    """The bench's window shape: a wide monitoring window with a 5% slide.

    Eight dashboards over one feed watch minutes of history, not seconds —
    so the shape doubles the scale's default window; the 5% slide sits in
    the middle of the paper's ``s`` sweep (1%–10% of ``n``).
    """
    n = min(2 * scale.default_n, scale.stream_length // 4)
    return n, max(1, n // 20)


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


def sharing_sweep(scale):
    n, s = fanout_shape(scale)
    rows = []
    for algorithm in ALGORITHMS:
        row = measure_multiquery_sharing(
            dataset="STOCK",
            query_shape=(n, s),
            k_values=K_VALUES,
            algorithm=algorithm,
            stream_length=scale.stream_length,
        )
        rows.append(row)
    return rows


def test_multiquery_sharing(benchmark, scale):
    rows = run_sweep(benchmark, sharing_sweep, scale)
    assert rows
    table = format_table(
        f"Multi-query sharing ({scale.name} scale): {len(K_VALUES)} same-window "
        "queries, independent engines vs one shared plane",
        [
            "algorithm",
            "indep s",
            "shared s",
            "speedup",
            "indep ev/s",
            "shared ev/s",
            "shared p95 slide",
        ],
        [
            [
                row["algorithm"],
                row["independent"]["seconds"],
                row["shared"]["seconds"],
                row["speedup"],
                row["independent"]["events_per_second"],
                row["shared"]["events_per_second"],
                row["shared"]["p95_slide_latency"],
            ]
            for row in rows
        ],
    )
    print("\n" + table)
    write_results("multiquery_sharing", table, raw={"rows": rows})
    # The architectural acceptance bar: sharing must beat independent
    # engines by >= 1.5x for 8 same-window queries, on every algorithm
    # that implements a shared plan.
    for row in rows:
        assert row["speedup"] >= 1.5, (
            f"{row['algorithm']}: shared plane only {row['speedup']:.2f}x faster"
        )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_shared_plane_answers_match_independent(scale, algorithm):
    """Correctness guard riding along with the benchmark (tiny scale)."""
    objects = dataset_stream("STOCK", 2_000)
    engine = StreamEngine()
    for k in (5, 20):
        engine.subscribe(f"k{k}", TopKQuery(n=400, k=k, s=40), algorithm=algorithm)
    engine.push_many(objects)
    for k in (5, 20):
        reference = create_algorithm(algorithm, TopKQuery(n=400, k=k, s=40)).run(objects)
        assert results_agree(engine.results(f"k{k}"), reference)
