"""Table 6 — average candidate counts of SAP vs MinTopK vs k-skyband.

Appendix E of the paper reports the average size of the candidate set,
sampled at every window slide, while varying n, k, and s on all five
datasets (SMA is excluded because its grid indexes the whole window).  The
runs are shared with the Figure 9/10 benchmarks through the measurement
cache, so this module mostly re-reports their candidate columns.
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
def test_table6_candidate_counts(benchmark, scale, dataset, parameter):
    rows = run_sweep(
        benchmark, sweep_parameter, dataset, scale, parameter, _values(scale, parameter), FACTORIES
    )
    assert rows
    table = format_table(
        f"Table 6 ({dataset}, varying {parameter}, {scale.name} scale): "
        "average candidate count",
        [parameter, "algorithm", "avg candidates"],
        [[row["value"], row["algorithm"], row["candidates"]] for row in rows],
        float_format="{:.1f}",
    )
    print("\n" + table)
    write_results(f"table6_{dataset.lower()}_{parameter}", table, raw={"rows": rows})

    # The core space claim of the paper: SAP does not maintain more
    # candidates than the plain k-skyband approach.  A small tolerance
    # absorbs the quick scale's compressed n/k ratio.
    sap = sum(r["candidates"] for r in rows if r["algorithm"] == "SAP")
    skyband = sum(r["candidates"] for r in rows if r["algorithm"] == "k-skyband")
    assert sap < skyband * 1.25
