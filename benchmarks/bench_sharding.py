"""Sharded execution plane — one process vs N worker processes.

Trajectory benchmark (like ``bench_multiquery_sharing``): the headline
numbers are recorded in ``BENCH_sharding.json`` at the repository root (as
well as under ``benchmarks/results/``) to track the sharded plane's
throughput across PRs.

The workload is the ROADMAP's north-star scenario at the next scale axis:
eight users watching one feed with *mixed* window shapes.  The shared
multi-query plane already dedupes co-windowed work inside one process, but
Python's GIL caps that process at a single core; the sharded engine
spreads the query groups over worker processes.  The acceptance bar — a
>= 2.5x throughput gain with 4 shards — therefore only applies on hosts
with at least 4 CPU cores: on fewer cores the same run measures IPC
overhead instead of parallelism, and the recorded ``cpu_count`` says which
one the trajectory file is reporting.  The exactness checks (sharded
answers byte-identical to single-process, mid-stream rebalance answer-
preserving) hold everywhere and are asserted unconditionally.
"""

import json
import os

from repro.bench.experiments import measure_sharding
from repro.bench.reporting import format_table, write_results
from repro.core.query import TopKQuery

from conftest import run_sweep

#: Worker processes of the sharded run.
SHARDS = 4

#: Result sizes cycled over the eight queries.
K_VALUES = (5, 10, 20, 50)

#: Cores needed for the throughput acceptance bar to be meaningful.
MIN_CORES_FOR_SPEEDUP_BAR = 4

#: Throughput bar with >= MIN_CORES_FOR_SPEEDUP_BAR cores: 4 shards must
#: beat one process by this factor on the 8-query mixed-window workload.
SPEEDUP_BAR = 2.5

#: Trajectory file recorded at the repository root.
TRAJECTORY_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_sharding.json")


def mixed_workload(scale):
    """Eight queries over four window shapes, two queries per shape.

    Every shape keeps ``s | n`` (20 slides per window), so each
    slide-aligned chunk boundary is an exact boundary for the rebalance
    leg.  Each same-shape pair is *pinned* to one shard (shape index mod
    ``SHARDS``): that keeps the pair's ``k_max`` shared plan intact, uses
    all four workers, and makes the measured parallelism deterministic —
    hash placement would leave utilisation to how these particular shapes
    happen to hash, which is the CLI demo's story, not the benchmark's.
    """
    base = min(2 * scale.default_n, scale.stream_length // 4)
    s1 = max(1, base // 20)
    slides = [s1, max(1, s1 // 2), 2 * s1, max(1, s1 // 4)]
    workload = []
    for index in range(8):
        shape = index % len(slides)
        s = slides[shape]
        n = 20 * s
        k = min(K_VALUES[index % len(K_VALUES)], n)
        workload.append((f"user-{index}", TopKQuery(n=n, k=k, s=s), shape % SHARDS))
    return workload


def sharding_sweep(scale):
    """One row with the full exactness battery (verify + mid-stream
    rebalance) and the per-batch serialize/transfer/deserialize
    breakdown."""
    return [
        measure_sharding(
            dataset="STOCK",
            workload=mixed_workload(scale),
            algorithm="SAP",
            stream_length=scale.stream_length,
            shards=SHARDS,
            placement="hash-window",
            verify=True,
            rebalance=True,
        )
    ]


def write_trajectory(rows, scale) -> None:
    row = rows[0]
    headline = {
        "speedup": round(row["speedup"], 3),
        "single_process_objects_per_second": round(
            row["single_process"]["objects_per_second"], 1
        ),
        "sharded_objects_per_second": round(row["sharded"]["objects_per_second"], 1),
        "exact": row["exact"],
        "rebalance_exact": row["rebalance_exact"],
    }
    payload = {
        "benchmark": "sharding",
        "scale": scale.name,
        "queries": row["queries"],
        "shards": row["shards"],
        "placement": "pinned" if row["pinned"] else row["placement"],
        "cpu_count": row["cpu_count"],
        "rows": rows,
        "headline": headline,
    }
    try:
        with open(TRAJECTORY_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass  # read-only checkout; the results dir copy still exists


def test_sharding(benchmark, scale):
    rows = run_sweep(benchmark, sharding_sweep, scale)
    assert rows
    row = rows[0]
    table = format_table(
        f"Sharding ({scale.name} scale): {row['queries']} mixed-window queries, "
        f"one process vs {row['shards']} shards on {row['cpu_count']} core(s)",
        [
            "single s",
            "sharded s",
            "speedup",
            "sharded obj/s",
            "B/event",
            "ser s",
            "xfer s",
            "deser s",
            "exact",
        ],
        [
            [
                each["single_process"]["seconds"],
                each["sharded"]["seconds"],
                each["speedup"],
                each["sharded"]["objects_per_second"],
                each["transport_breakdown"]["bytes_per_event"],
                each["transport_breakdown"]["serialize_seconds"],
                each["transport_breakdown"]["transfer_seconds"],
                each["transport_breakdown"]["deserialize_seconds"],
                str(each["exact"]),
            ]
            for each in rows
        ],
    )
    print("\n" + table)
    write_results("sharding", table, raw={"rows": rows})
    write_trajectory(rows, scale)

    # Correctness bars hold on any hardware: the sharded plane must be
    # indistinguishable from the single-process engine, including across
    # a mid-stream rebalance.
    assert row["exact"], "sharded answers differ from the single-process engine"
    assert row["rebalance_exact"], "a mid-stream rebalance changed answers"

    # The throughput bar needs actual cores to parallelise over, and a
    # stream long enough that ratios mean something (smoke is neither).
    if row["cpu_count"] >= MIN_CORES_FOR_SPEEDUP_BAR and scale.name != "smoke":
        assert row["speedup"] >= SPEEDUP_BAR, (
            f"{row['shards']} shards only {row['speedup']:.2f}x faster than "
            f"one process on {row['cpu_count']} cores"
        )
