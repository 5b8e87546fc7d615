"""Figure 10 — running time comparison on the synthetic datasets.

Figure 10 of the paper repeats the Figure 9 comparison on the synthetic
TIMEU (time-unrelated) and TIMER (time-related) streams, varying n, k, and
s.  TIMER is the adversarial case: its long monotone stretches blow up the
candidate sets of the one-pass baselines and force SMA to re-scan, while
SAP's partitioning keeps both bounded.
"""

import pytest

from conftest import run_sweep
from harness import (
    ALGORITHM_FACTORIES,
    SYNTHETIC_DATASETS,
    format_table,
    render_sweep,
    sweep_parameter,
    write_results,
)

SUBFIGURES = {
    "n": "Fig 10(a-b)",
    "k": "Fig 10(c-d)",
    "s": "Fig 10(e-f)",
}


def _values(scale, parameter):
    return {"n": scale.n_values, "k": scale.k_values, "s": scale.s_values}[parameter]


@pytest.mark.parametrize("parameter", list(SUBFIGURES))
@pytest.mark.parametrize("dataset", SYNTHETIC_DATASETS)
def test_fig10_running_time(benchmark, scale, dataset, parameter):
    rows = run_sweep(
        benchmark,
        sweep_parameter,
        dataset,
        scale,
        parameter,
        _values(scale, parameter),
        ALGORITHM_FACTORIES,
    )
    assert rows
    table = format_table(
        f"{SUBFIGURES[parameter]} — {dataset}, running time vs {parameter} "
        f"({scale.name} scale)",
        [parameter, "algorithm", "seconds", "avg candidates", "memory KB"],
        [
            [row["value"], row["algorithm"], row["seconds"], row["candidates"], row["memory_kb"]]
            for row in rows
        ],
    )
    chart = render_sweep(
        f"{SUBFIGURES[parameter]} — {dataset}: running time series", rows
    )
    print("\n" + table + "\n\n" + chart)
    write_results(
        f"fig10_{dataset.lower()}_{parameter}", table + "\n\n" + chart, raw={"rows": rows}
    )
    assert {row["algorithm"] for row in rows} == set(ALGORITHM_FACTORIES)
