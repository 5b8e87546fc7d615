"""Figure 9 — running time of SAP vs MinTopK vs SMA vs k-skyband (real data).

Figure 9 of the paper has nine sub-figures: running time on STOCK, TRIP,
and PLANET while varying the window size ``n`` (a–c), the result size ``k``
(d–f), and the slide ``s`` (g–i).  Each benchmark case regenerates one
sub-figure as a series of (parameter value, algorithm, seconds) rows.
"""

import pytest

from conftest import run_sweep
from harness import (
    ALGORITHM_FACTORIES,
    REAL_DATASETS,
    format_table,
    render_sweep,
    sweep_parameter,
    write_results,
)

SUBFIGURES = {
    "n": "Fig 9(a-c)",
    "k": "Fig 9(d-f)",
    "s": "Fig 9(g-i)",
}


def _values(scale, parameter):
    return {"n": scale.n_values, "k": scale.k_values, "s": scale.s_values}[parameter]


@pytest.mark.parametrize("parameter", list(SUBFIGURES))
@pytest.mark.parametrize("dataset", REAL_DATASETS)
def test_fig9_running_time(benchmark, scale, dataset, parameter):
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
        f"fig9_{dataset.lower()}_{parameter}", table + "\n\n" + chart, raw={"rows": rows}
    )
    assert {row["algorithm"] for row in rows} == set(ALGORITHM_FACTORIES)
