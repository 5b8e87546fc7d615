"""Unit tests for the SAP framework (Algorithm 1)."""

import pytest

from repro.core.framework import SAPTopK
from repro.core.query import TopKQuery
from repro.core.window import slides_for_query
from repro.baselines.brute_force import BruteForceTopK
from repro.core.result import results_agree
from repro.partitioning.dynamic import DynamicPartitioner
from repro.partitioning.enhanced import EnhancedDynamicPartitioner
from repro.partitioning.equal import EqualPartitioner

from ..conftest import make_objects


def _run(algorithm, objects):
    return [algorithm.process_slide(e) for e in slides_for_query(objects, algorithm.query)]


def _reference(query, objects):
    return _run(BruteForceTopK(query), objects)


class TestConstruction:
    def test_default_partitioner_is_enhanced_dynamic(self):
        sap = SAPTopK(TopKQuery(n=100, k=5, s=5))
        assert isinstance(sap.partitioner, EnhancedDynamicPartitioner)
        assert "enhanced" in sap.name

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SAPTopK(TopKQuery(n=100, k=5, s=5), meaningful_policy="sometimes")

    def test_name_mentions_partitioner(self):
        sap = SAPTopK(TopKQuery(n=100, k=5, s=5), partitioner=EqualPartitioner(m=4))
        assert "equal" in sap.name


class TestExactness:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda q: SAPTopK(q, partitioner=EqualPartitioner()),
            lambda q: SAPTopK(q, partitioner=DynamicPartitioner()),
            lambda q: SAPTopK(q, partitioner=EnhancedDynamicPartitioner()),
            lambda q: SAPTopK(q, meaningful_policy="eager"),
            lambda q: SAPTopK(q, use_savl=False),
        ],
        ids=["equal", "dynamic", "enhanced", "eager", "no-savl"],
    )
    def test_matches_brute_force_on_uniform_stream(self, factory, small_uniform_stream):
        query = TopKQuery(n=150, k=7, s=10)
        assert results_agree(
            _run(factory(query), small_uniform_stream),
            _reference(query, small_uniform_stream),
        )

    def test_matches_brute_force_on_decreasing_stream(self, decreasing_stream):
        query = TopKQuery(n=120, k=6, s=6)
        sap = SAPTopK(query)
        assert results_agree(_run(sap, decreasing_stream), _reference(query, decreasing_stream))

    def test_matches_brute_force_on_increasing_stream(self, increasing_stream):
        query = TopKQuery(n=120, k=6, s=6)
        sap = SAPTopK(query)
        assert results_agree(_run(sap, increasing_stream), _reference(query, increasing_stream))

    def test_single_partition_per_window(self, small_uniform_stream):
        # m=1 forces the extreme case where expirations can exhaust every
        # sealed partition (the force-seal safety valve).
        query = TopKQuery(n=100, k=4, s=10)
        sap = SAPTopK(query, partitioner=EqualPartitioner(m=1))
        assert results_agree(_run(sap, small_uniform_stream), _reference(query, small_uniform_stream))

    def test_slide_of_one(self, small_uniform_stream):
        query = TopKQuery(n=80, k=5, s=1)
        sap = SAPTopK(query)
        stream = small_uniform_stream[:300]
        assert results_agree(_run(sap, stream), _reference(query, stream))

    def test_k_equals_one(self, small_uniform_stream):
        query = TopKQuery(n=90, k=1, s=9)
        sap = SAPTopK(query)
        assert results_agree(_run(sap, small_uniform_stream), _reference(query, small_uniform_stream))

    def test_whole_window_slide(self, small_uniform_stream):
        query = TopKQuery(n=100, k=5, s=100)
        sap = SAPTopK(query)
        assert results_agree(_run(sap, small_uniform_stream), _reference(query, small_uniform_stream))

    def test_duplicate_scores(self):
        objects = make_objects([5.0] * 200 + [7.0] * 200 + [5.0] * 200)
        query = TopKQuery(n=100, k=5, s=10)
        sap = SAPTopK(query)
        assert results_agree(_run(sap, objects), _reference(query, objects))


class TestInternals:
    def test_partitions_tracked(self, small_uniform_stream):
        query = TopKQuery(n=150, k=7, s=10)
        sap = SAPTopK(query, partitioner=EqualPartitioner())
        _run(sap, small_uniform_stream)
        assert sap.partition_count >= 1
        assert all(size > 0 for size in sap.partition_sizes())

    def test_front_partition_has_rho_after_expirations(self, small_uniform_stream):
        query = TopKQuery(n=150, k=7, s=10)
        sap = SAPTopK(query)
        _run(sap, small_uniform_stream)
        front = sap.front_partition()
        assert front is not None
        assert front.rho is not None and front.rho >= 0

    def test_candidate_count_bounded(self, small_uniform_stream):
        """|C ∪ M_0| stays far below the window size on uniform data."""
        query = TopKQuery(n=200, k=5, s=10)
        sap = SAPTopK(query)
        for event in slides_for_query(small_uniform_stream, query):
            sap.process_slide(event)
            assert sap.candidate_count() <= query.n
        assert sap.candidate_count() < query.n / 2

    def test_memory_estimate_positive(self, small_uniform_stream):
        query = TopKQuery(n=150, k=7, s=10)
        sap = SAPTopK(query)
        _run(sap, small_uniform_stream)
        assert sap.memory_bytes() > 0

    def test_eager_policy_stores_premade_sets(self, small_uniform_stream):
        query = TopKQuery(n=150, k=7, s=10)
        sap = SAPTopK(query, meaningful_policy="eager", partitioner=EqualPartitioner())
        _run(sap, small_uniform_stream)
        # Eager formation keeps a meaningful set per sealed partition.
        assert len(sap._premade) >= 1

    def test_run_convenience_wrapper(self, small_uniform_stream):
        query = TopKQuery(n=150, k=7, s=10)
        results = SAPTopK(query).run(small_uniform_stream)
        assert results
        assert all(len(result) == query.k for result in results)
