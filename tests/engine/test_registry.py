"""Unit tests for the unified algorithm registry."""

import pytest

from repro.cli import CLI_ALGORITHMS
from repro.core.framework import SAPTopK
from repro.core.interface import ContinuousTopKAlgorithm
from repro.core.query import TopKQuery
from repro.core.result import TopKResult
from repro.registry import (
    algorithm_factories,
    algorithm_names,
    create_algorithm,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)


class TestBuiltins:
    def test_paper_algorithms_registered(self):
        assert {
            "SAP",
            "SAP-equal",
            "SAP-dynamic",
            "SAP-enhanced",
            "MinTopK",
            "k-skyband",
            "SMA",
            "brute-force",
        } <= set(algorithm_names())

    def test_create_builds_algorithm_for_query(self):
        # Every entry is constructible through its own example options —
        # empty for the classic algorithms, vector=... for "clustered".
        query = TopKQuery(n=50, k=3, s=5)
        for name in algorithm_names():
            algorithm = get_algorithm(name).create_example(query)
            assert algorithm.query is query, name

    def test_classic_entries_need_no_options(self):
        query = TopKQuery(n=50, k=3, s=5)
        for name in algorithm_names():
            if get_algorithm(name).example_options:
                continue
            algorithm = create_algorithm(name, query)
            assert algorithm.query is query, name

    def test_clustered_requires_a_vector(self):
        from repro.core.clustering import ClusteredTopK
        from repro.core.exceptions import InvalidQueryError

        query = TopKQuery(n=50, k=3, s=5)
        info = get_algorithm("clustered")
        assert "vector" in info.example_options
        assert isinstance(info.create_example(query), ClusteredTopK)
        with pytest.raises(InvalidQueryError, match="vector"):
            create_algorithm("clustered", query)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="SAP"):
            create_algorithm("nope", TopKQuery(n=50, k=3, s=5))

    def test_entries_have_descriptions(self):
        for name in algorithm_names():
            assert get_algorithm(name).description, name


class TestSingleSourceOfTruth:
    def test_cli_algorithms_backed_by_registry(self):
        assert set(CLI_ALGORITHMS) == set(algorithm_names())

    def test_algorithm_factories_cover_every_name(self):
        assert set(algorithm_factories()) == set(algorithm_names())

    def test_factories_subset_selection(self):
        subset = algorithm_factories("SAP", "MinTopK")
        assert list(subset) == ["SAP", "MinTopK"]


class TestRegistration:
    def test_decorator_on_factory_function(self):
        @register_algorithm("test-sap-eager", description="eager policy")
        def _factory(query, **options):
            return SAPTopK(query, meaningful_policy="eager", **options)

        try:
            algorithm = create_algorithm("test-sap-eager", TopKQuery(n=50, k=3, s=5))
            assert isinstance(algorithm, SAPTopK)
        finally:
            unregister_algorithm("test-sap-eager")

    def test_decorator_on_algorithm_class(self):
        @register_algorithm("test-null")
        class _NullTopK(ContinuousTopKAlgorithm):
            name = "null"

            def process_slide(self, event):
                return TopKResult.from_objects(event.index, event.window_end, [])

        try:
            query = TopKQuery(n=50, k=3, s=5)
            assert isinstance(create_algorithm("test-null", query), _NullTopK)
        finally:
            unregister_algorithm("test-null")

    def test_duplicate_rejected_unless_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("SAP")(lambda query: SAPTopK(query))

    def test_replace_and_unregister(self):
        def sentinel(query):
            return SAPTopK(query)

        register_algorithm("test-tmp")(sentinel)
        register_algorithm("test-tmp", replace=True)(sentinel)
        unregister_algorithm("test-tmp")
        assert "test-tmp" not in algorithm_names()
        unregister_algorithm("test-tmp")  # idempotent

    def test_non_callable_factory_rejected(self):
        from repro.registry import register_factory

        with pytest.raises(TypeError):
            register_factory("test-bad", factory=42)
