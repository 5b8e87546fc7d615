"""Ablation — SAP design choices (not a paper table).

The framework rests on four design decisions: the delay policy
for forming the meaningful object set, the S-AVL structure (vs a plain
re-scan), the amortized proactive formation, and the partitioner choice.
Table 2 of the paper ablates the first two under the equal partitioner;
this benchmark extends the ablation to the full configuration matrix the
library exposes, on the two most contrasting datasets (TIMEU and TIMER),
using the default query parameters.
"""

import pytest

from repro.core.query import TopKQuery
from repro.registry import get_algorithm

from conftest import run_sweep
from harness import SYNTHETIC_DATASETS, dataset_stream, format_table, run_measured, write_results


# Every configuration is a registry entry plus ablation options: the
# registry factories accept the SAP keyword arguments (meaningful_policy,
# use_savl) and forward them to the framework.
_sap_equal = get_algorithm("SAP-equal").factory
_sap_enhanced = get_algorithm("SAP-enhanced").factory

CONFIGURATIONS = {
    "equal / lazy / S-AVL": _sap_equal,
    "equal / lazy / rescan": lambda q: _sap_equal(q, use_savl=False),
    "equal / eager / S-AVL": lambda q: _sap_equal(q, meaningful_policy="eager"),
    "equal / amortized / S-AVL": lambda q: _sap_equal(q, meaningful_policy="amortized"),
    "enhanced / lazy / S-AVL": _sap_enhanced,
    "enhanced / amortized / S-AVL": lambda q: _sap_enhanced(
        q, meaningful_policy="amortized"
    ),
}


def ablation_sweep(dataset, scale):
    query = TopKQuery(n=scale.default_n, k=scale.default_k, s=scale.default_s)
    objects = dataset_stream(dataset, scale.stream_length)
    rows = []
    for label, factory in CONFIGURATIONS.items():
        metrics = run_measured(factory(query), objects)
        rows.append(
            {
                "dataset": dataset,
                "configuration": label,
                "seconds": metrics["seconds"],
                "candidates": metrics["candidates"],
                "memory_kb": metrics["memory_kb"],
            }
        )
    return rows


@pytest.mark.parametrize("dataset", SYNTHETIC_DATASETS)
def test_ablation_design_choices(benchmark, scale, dataset):
    rows = run_sweep(benchmark, ablation_sweep, dataset, scale)
    assert len(rows) == len(CONFIGURATIONS)
    table = format_table(
        f"Ablation ({dataset}, {scale.name} scale): SAP design choices",
        ["configuration", "seconds", "avg candidates", "memory KB"],
        [[row["configuration"], row["seconds"], row["candidates"], row["memory_kb"]] for row in rows],
    )
    print("\n" + table)
    write_results(f"ablation_{dataset.lower()}", table, raw={"rows": rows})
    assert all(row["seconds"] > 0 for row in rows)
