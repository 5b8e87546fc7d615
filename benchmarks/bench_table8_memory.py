"""Table 8 — memory consumption of SAP vs MinTopK vs k-skyband.

Appendix F of the paper reports the memory occupied by each algorithm's
structures (in KB) while varying n, k, and s.  The measurement runs are
shared with Table 6 / Figures 9-10 via the cache; this module re-reports
the memory column.
"""

import pytest

from repro.registry import algorithm_factories

from conftest import run_sweep
from harness import ALL_DATASETS, format_table, sweep_parameter, write_results

FACTORIES = algorithm_factories("SAP", "MinTopK", "k-skyband")
PARAMETERS = ["n", "k", "s"]


def _values(scale, parameter):
    return {"n": scale.n_values, "k": scale.k_values, "s": scale.s_values}[parameter]


@pytest.mark.parametrize("parameter", PARAMETERS)
@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_table8_memory(benchmark, scale, dataset, parameter):
    rows = run_sweep(
        benchmark, sweep_parameter, dataset, scale, parameter, _values(scale, parameter), FACTORIES
    )
    assert rows
    table = format_table(
        f"Table 8 ({dataset}, varying {parameter}, {scale.name} scale): "
        "memory consumption (KB)",
        [parameter, "algorithm", "memory KB"],
        [[row["value"], row["algorithm"], row["memory_kb"]] for row in rows],
        float_format="{:.2f}",
    )
    print("\n" + table)
    write_results(f"table8_{dataset.lower()}_{parameter}", table, raw={"rows": rows})

    # Sanity only; the memory comparison (which tracks candidate counts) is
    # recorded in the results file and discussed in EXPERIMENTS.md.
    assert all(row["memory_kb"] > 0 for row in rows)
    assert {row["algorithm"] for row in rows} == set(FACTORIES)
