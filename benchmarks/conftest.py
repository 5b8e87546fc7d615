"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper's
evaluation section, named in its docstring.  The measured
numbers are written to ``benchmarks/results/<name>.txt`` (and ``.json``) so
they can be compared against the paper after the run; the pytest-benchmark
summary printed at the end times each sweep as a whole.
"""

from __future__ import annotations

import pytest

from harness import scale_from_env


@pytest.fixture(scope="session")
def scale():
    """Benchmark scale (quick by default, full via REPRO_BENCH_SCALE=full)."""
    return scale_from_env()


def run_sweep(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
