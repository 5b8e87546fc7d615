"""Experiment drivers regenerating the paper's tables and figures.

The modules in this package are consumed by the ``benchmarks/`` pytest
suite (one module per table/figure of the paper, plus the multi-query
sharing and subscription-scale checks, which assert their own bounds)
and can also be driven directly, e.g.::

    python -m repro.bench.experiments fig9 STOCK

Throughput and latency claims come from ``perfbench/run.py`` instead, the
repository benchmark: it runs the engine, serving, durability and sharded
planes from outside the program and checks every answer against brute
force.
"""

from .workloads import BenchScale, QUICK_SCALE, FULL_SCALE, dataset_stream, scale_from_env
from .experiments import (
    ALGORITHM_FACTORIES,
    measure_algorithms,
    sweep_parameter,
    equal_partition_sweep,
    partitioner_comparison,
)
from .reporting import format_table, write_results

__all__ = [
    "BenchScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "scale_from_env",
    "dataset_stream",
    "ALGORITHM_FACTORIES",
    "measure_algorithms",
    "sweep_parameter",
    "equal_partition_sweep",
    "partitioner_comparison",
    "format_table",
    "write_results",
]
