"""Table 9 — memory consumption of SAP vs MinTopK under high-speed streams.

Shares its measurement runs with Tables 5 and 7 and re-reports the memory
column, mirroring Appendix F's second table.
"""

import pytest


from bench_table5_highspeed_time import highspeed_sweep
from conftest import run_sweep
from harness import ALL_DATASETS, format_table, write_results


@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_table9_highspeed_memory(benchmark, scale, dataset):
    rows = run_sweep(benchmark, highspeed_sweep, dataset, scale)
    assert rows
    table = format_table(
        f"Table 9 ({dataset}, {scale.name} scale): memory (KB) under "
        "high-speed streams",
        ["config", "algorithm", "memory KB"],
        [[row["config"], row["algorithm"], row["memory_kb"]] for row in rows],
        float_format="{:.2f}",
    )
    print("\n" + table)
    write_results(f"table9_{dataset.lower()}", table, raw={"rows": rows})

    assert {row["algorithm"] for row in rows} == {"SAP", "MinTopK"}
    assert all(row["memory_kb"] > 0 for row in rows)
