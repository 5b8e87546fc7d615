"""Compare SAP against every baseline on a chosen dataset.

Reproduces, at example scale, the comparison behind Figures 9 and 10 of the
paper: the same stream is pushed through SAP (all three partitioners),
MinTopK, SMA, k-skyband, and the brute-force oracle; the script verifies
that all answers agree and prints a table of running time, average
candidate count, and memory.

Run with::

    python examples/algorithm_comparison.py [DATASET]

where DATASET is one of STOCK, TRIP, PLANET, TIMEU, TIMER (default TIMER).
"""

import sys

from repro import StreamEngine, TopKQuery, results_agree
from repro.streams import make_dataset


def main() -> None:
    dataset = sys.argv[1].upper() if len(sys.argv) > 1 else "TIMER"
    stream = make_dataset(dataset).take(8000)
    query = TopKQuery(n=1000, k=20, s=50)

    # Every configuration comes from the unified registry and subscribes to
    # one engine, so the stream is read once; the brute-force oracle goes
    # first so it serves as the agreement reference.
    names = [
        "brute-force",
        "SAP-equal",
        "SAP-dynamic",
        "SAP-enhanced",
        "MinTopK",
        "SMA",
        "k-skyband",
    ]
    engine = StreamEngine()
    runs = [engine.subscribe(name, query, algorithm=name) for name in names]

    print(f"dataset  : {dataset} ({len(stream)} objects)")
    print(f"query    : {query.describe()}")
    engine.push_many(stream)
    engine.close()
    reference = runs[0].results()
    agree = all(results_agree(reference, run.results()) for run in runs[1:])
    print(f"all algorithms agree: {agree}\n")

    # Seconds are the sum of each algorithm's own per-slide latencies.
    header = f"{'algorithm':<26} {'seconds':>9} {'avg candidates':>15} {'memory KB':>11}"
    print(header)
    print("-" * len(header))
    for run in runs:
        metrics = run.metrics
        print(
            f"{run.algorithm.name:<26} {metrics.latency_total:9.3f} "
            f"{metrics.average_candidates:15.1f} {metrics.average_memory_kb:11.1f}"
        )

if __name__ == "__main__":
    main()
