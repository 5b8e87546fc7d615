"""Tests of the paper suite's harness, ``benchmarks/harness.py``."""
