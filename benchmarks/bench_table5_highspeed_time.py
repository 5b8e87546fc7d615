"""Table 5 — running time of SAP vs MinTopK under high-speed streams.

Appendix D of the paper re-runs the comparison with much larger windows and
slides (Table 4's parameters), where MinTopK's per-slide pruning is at its
strongest; only SAP and MinTopK are compared because the other baselines
are already dominated in that regime.  The harness mirrors this with the
scale's high-speed parameters.
"""

import pytest

from repro.core.query import TopKQuery
from repro.registry import algorithm_factories

from conftest import run_sweep
from harness import ALL_DATASETS, format_table, measure_algorithms, write_results

FACTORIES = algorithm_factories("SAP", "MinTopK")


def highspeed_sweep(dataset, scale):
    """Vary n, k, and s around the high-speed defaults (Table 4)."""
    base_n, base_k, base_s = scale.highspeed_n, scale.highspeed_k, scale.highspeed_s
    configs = [("default", base_n, base_k, base_s)]
    configs += [(f"n={int(base_n * f)}", int(base_n * f), base_k, base_s) for f in (0.5, 2.0)]
    configs += [(f"k={int(base_k * f)}", base_n, int(base_k * f), base_s) for f in (0.5, 2.0)]
    configs += [(f"s={int(base_s * f)}", base_n, base_k, int(base_s * f)) for f in (0.5, 2.0)]
    rows = []
    for label, n, k, s in configs:
        n = min(n, scale.stream_length // 2)
        query = TopKQuery(n=n, k=min(k, n), s=min(s, n))
        measurements = measure_algorithms(dataset, query, FACTORIES, scale.stream_length)
        for name, metrics in measurements.items():
            rows.append({"dataset": dataset, "config": label, "algorithm": name, **metrics})
    return rows


@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_table5_highspeed_running_time(benchmark, scale, dataset):
    rows = run_sweep(benchmark, highspeed_sweep, dataset, scale)
    assert rows
    table = format_table(
        f"Table 5 ({dataset}, {scale.name} scale): SAP vs MinTopK under "
        "high-speed streams",
        ["config", "algorithm", "seconds", "avg candidates", "memory KB"],
        [
            [row["config"], row["algorithm"], row["seconds"], row["candidates"], row["memory_kb"]]
            for row in rows
        ],
    )
    print("\n" + table)
    write_results(f"table5_{dataset.lower()}", table, raw={"rows": rows})
    assert {row["algorithm"] for row in rows} == {"SAP", "MinTopK"}
