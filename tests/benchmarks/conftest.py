"""The paper suite's harness lives beside the suite, outside the package:
import it from ``benchmarks/`` for the duration of a test."""

import sys
from pathlib import Path

import pytest

BENCHMARKS = str(Path(__file__).resolve().parents[2] / "benchmarks")


@pytest.fixture
def harness():
    sys.path.insert(0, BENCHMARKS)
    try:
        import harness

        yield harness
    finally:
        sys.path.remove(BENCHMARKS)
