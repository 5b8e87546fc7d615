"""Multi-query sharing — N independent engines vs one shared plane.

This is the repo's first *trajectory* benchmark: unlike the table/figure
reproductions, it measures the engine architecture itself, so its headline
numbers are recorded in ``BENCH_multiquery.json`` at the repository root
(as well as under ``benchmarks/results/``) to track the speedup of the
shared multi-query plane across PRs.

The workload is the ROADMAP's north-star scenario scaled down: eight users
watching the same feed with the same window shape ``(n, s)`` but different
result sizes ``k``.  The pre-group architecture runs eight independent
engines (eight batchers, eight SAP instances); the query-group plane
runs one engine, where the eight queries share one batcher and one
``k_max`` algorithm core.  The acceptance bar is a >= 1.5x throughput gain
for SAP.
"""

import json
import os

import pytest

from repro.bench.experiments import measure_multiquery_sharing
from repro.bench.reporting import format_table, write_results

from conftest import run_sweep

#: Result sizes of the eight concurrent queries (shared window shape).
K_VALUES = (5, 10, 15, 20, 25, 30, 40, 50)
ALGORITHMS = ("SAP", "k-skyband", "MinTopK")

#: Trajectory file recorded at the repository root.
TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_multiquery.json")

#: SAP shared-plane throughput (events/second) recorded in the trajectory
#: file before the columnar data plane landed, on this workload at default
#: scale.  The vectorized-vs-seed row in the trajectory headline compares
#: the current single-process shared plane against this constant, so the
#: per-object -> columnar hot-path rewrite stays visible across PRs.
SEED_SAP_SHARED_EVENTS_PER_SECOND = 76_155.4


def fanout_shape(scale):
    """The bench's window shape: a wide monitoring window with a 5% slide.

    Eight dashboards over one feed watch minutes of history, not seconds —
    so the shape doubles the scale's default window; the 5% slide sits in
    the middle of the paper's ``s`` sweep (1%–10% of ``n``).
    """
    n = min(2 * scale.default_n, scale.stream_length // 4)
    return n, max(1, n // 20)


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


def write_trajectory(rows, scale) -> None:
    payload = {
        "benchmark": "multiquery_sharing",
        "scale": scale.name,
        "queries": len(K_VALUES),
        "k_values": list(K_VALUES),
        "rows": rows,
        "headline": {
            row["algorithm"]: {
                "speedup": round(row["speedup"], 3),
                "independent_events_per_second": round(
                    row["independent"]["events_per_second"], 1
                ),
                "shared_events_per_second": round(
                    row["shared"]["events_per_second"], 1
                ),
            }
            for row in rows
        },
    }
    sap = next((row for row in rows if row["algorithm"] == "SAP"), None)
    if sap is not None:
        shared_eps = sap["shared"]["events_per_second"]
        payload["vectorized_vs_seed"] = {
            "algorithm": "SAP",
            "scale": scale.name,
            "seed_events_per_second": SEED_SAP_SHARED_EVENTS_PER_SECOND,
            "vectorized_events_per_second": round(shared_eps, 1),
            # Only the default scale reran the seed's exact workload; other
            # scales record the ratio for context, not for the bar.
            "speedup_vs_seed": round(
                shared_eps / SEED_SAP_SHARED_EVENTS_PER_SECOND, 3
            ),
        }
    try:
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass  # read-only checkout; the results dir copy still exists


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
    write_trajectory(rows, scale)
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
    from repro.bench.workloads import dataset_stream
    from repro.core.query import TopKQuery
    from repro.core.result import results_agree
    from repro.engine import StreamEngine
    from repro.registry import create_algorithm

    objects = dataset_stream("STOCK", 2_000)
    engine = StreamEngine()
    for k in (5, 20):
        engine.subscribe(f"k{k}", TopKQuery(n=400, k=k, s=40), algorithm=algorithm)
    engine.push_many(objects)
    for k in (5, 20):
        reference = create_algorithm(algorithm, TopKQuery(n=400, k=k, s=40)).run(objects)
        assert results_agree(engine.results(f"k{k}"), reference)
