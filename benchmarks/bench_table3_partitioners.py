"""Table 3 — running time of EQUAL vs DYNA vs EN-DYNA while varying n, k, s.

The paper's Table 3 compares the three SAP partitioners on all five
datasets as each query parameter is varied around the defaults.  The
regenerated table reports running time, candidate count, and memory per
partitioner and parameter value.
"""

import pytest

from conftest import run_sweep
from harness import ALL_DATASETS, format_table, partitioner_comparison, write_results

PARAMETERS = ["n", "k", "s"]


def _values(scale, parameter):
    return {"n": scale.n_values, "k": scale.k_values, "s": scale.s_values}[parameter]


@pytest.mark.parametrize("parameter", PARAMETERS)
@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_table3_partitioner_comparison(benchmark, scale, dataset, parameter):
    rows = run_sweep(
        benchmark, partitioner_comparison, dataset, scale, parameter, _values(scale, parameter)
    )
    assert rows

    table = format_table(
        f"Table 3 ({dataset}, varying {parameter}, {scale.name} scale): "
        "EQUAL vs DYNA vs EN-DYNA",
        [parameter, "partitioner", "seconds", "avg candidates", "memory KB"],
        [
            [row["value"], row["algorithm"], row["seconds"], row["candidates"], row["memory_kb"]]
            for row in rows
        ],
    )
    print("\n" + table)
    write_results(f"table3_{dataset.lower()}_{parameter}", table, raw={"rows": rows})

    # Sanity only; comparative shapes are recorded in EXPERIMENTS.md.
    assert all(row["seconds"] > 0 for row in rows)
    assert {row["algorithm"] for row in rows} == {"EQUAL", "DYNA", "EN-DYNA"}
