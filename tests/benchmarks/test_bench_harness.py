"""Unit tests for the benchmark harness (workloads, experiments, reporting)."""

import json
import os

import pytest

from repro.core.framework import SAPTopK
from repro.core.query import TopKQuery


@pytest.fixture
def tiny(harness):
    """A deliberately tiny scale so harness tests finish in milliseconds."""
    return harness.BenchScale(
        name="tiny",
        stream_length=400,
        default_n=80,
        default_k=4,
        default_s=8,
        n_values=(40, 80),
        k_values=(2, 4),
        s_values=(8, 16),
        m_values=(1, 3),
        highspeed_n=120,
        highspeed_k=12,
        highspeed_s=40,
    )


class TestWorkloads:
    def test_scale_from_env_defaults_to_quick(self, harness, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert harness.scale_from_env() is harness.QUICK_SCALE

    def test_scale_from_env_full(self, harness, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert harness.scale_from_env() is harness.FULL_SCALE

    def test_dataset_stream_cached_and_correct_length(self, harness):
        first = harness.dataset_stream("TIMEU", 300)
        second = harness.dataset_stream("TIMEU", 300)
        assert len(first) == 300
        assert [o.t for o in first] == [o.t for o in second]

    def test_all_datasets_constant(self, harness):
        assert set(harness.ALL_DATASETS) == {"STOCK", "TRIP", "PLANET", "TIMEU", "TIMER"}

    def test_default_query_params(self, tiny):
        assert tiny.default_query_params() == (80, 4, 8)


class TestExperiments:
    def test_measure_one_is_memoised(self, harness, tiny):
        query = TopKQuery(n=tiny.default_n, k=tiny.default_k, s=tiny.default_s)
        first = harness.measure_one("TIMEU", query, "SAP", SAPTopK, tiny.stream_length)
        second = harness.measure_one("TIMEU", query, "SAP", SAPTopK, tiny.stream_length)
        assert first == second
        assert first["slides"] > 0

    def test_measure_algorithms_returns_all_metrics(self, harness, tiny):
        query = TopKQuery(n=tiny.default_n, k=tiny.default_k, s=tiny.default_s)
        measurements = harness.measure_algorithms(
            "TIMEU", query, harness.ALGORITHM_FACTORIES, tiny.stream_length
        )
        assert set(measurements) == set(harness.ALGORITHM_FACTORIES)
        for metrics in measurements.values():
            assert {"seconds", "candidates", "memory_kb", "slides"} <= set(metrics)

    def test_sweep_parameter_rows(self, harness, tiny):
        factories = harness.ALGORITHM_FACTORIES
        rows = harness.sweep_parameter("TIMEU", tiny, "n", tiny.n_values, factories)
        assert len(rows) == len(tiny.n_values) * len(factories)
        assert {row["value"] for row in rows} == set(tiny.n_values)

    def test_sweep_parameter_rejects_unknown_parameter(self, harness, tiny):
        with pytest.raises(ValueError):
            harness.sweep_parameter("TIMEU", tiny, "q", (1,), harness.ALGORITHM_FACTORIES)

    def test_equal_partition_sweep_covers_variants(self, harness, tiny):
        rows = harness.equal_partition_sweep("TIMEU", tiny, m_values=(1, 2))
        assert {row["variant"] for row in rows} == {"non-delay", "Algo1", "Algo1+S-AVL"}
        assert {row["m"] for row in rows} == {1, 2}

    def test_partitioner_comparison_covers_partitioners(self, harness, tiny):
        rows = harness.partitioner_comparison("TIMEU", tiny, "k", tiny.k_values)
        assert {row["algorithm"] for row in rows} == set(harness.PARTITIONER_FACTORIES)


class TestReporting:
    def test_format_table_alignment(self, harness):
        table = harness.format_table("Title", ["a", "bbbb"], [[1, 2.34567], [10, 0.5]])
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bbbb" in lines[2]
        assert "2.3457" in table  # default float format

    def test_format_table_empty_rows(self, harness):
        table = harness.format_table("Empty", ["col"], [])
        assert "Empty" in table and "col" in table

    def test_write_results_creates_files(self, harness, tmp_path):
        path = harness.write_results(
            "unit_test_table", "hello", raw={"rows": [1, 2]}, directory=str(tmp_path)
        )
        assert os.path.exists(path)
        with open(os.path.join(tmp_path, "unit_test_table.json")) as handle:
            assert json.load(handle) == {"rows": [1, 2]}

    def test_write_results_tolerates_unwritable_directory(self, harness):
        path = harness.write_results("x", "y", directory="/proc/definitely/not/writable")
        assert path == ""
