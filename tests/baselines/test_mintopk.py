"""Unit tests for the MinTopK baseline."""

import pytest

from repro.baselines.brute_force import BruteForceTopK
from repro.baselines.mintopk import MinTopK
from repro.core.exceptions import InvalidQueryError
from repro.core.query import TopKQuery
from repro.core.result import results_agree
from repro.core.window import slides_for_query

from ..conftest import make_objects, random_scores


def _run(algorithm, objects):
    return [algorithm.process_slide(e) for e in slides_for_query(objects, algorithm.query)]


class TestExactness:
    @pytest.mark.parametrize("s", [1, 5, 10, 25, 100])
    def test_matches_brute_force_for_various_slides(self, s):
        query = TopKQuery(n=100, k=5, s=s)
        objects = make_objects(random_scores(600, seed=s))
        assert results_agree(_run(MinTopK(query), objects), _run(BruteForceTopK(query), objects))

    def test_matches_brute_force_when_s_does_not_divide_n(self):
        query = TopKQuery(n=100, k=5, s=7)
        objects = make_objects(random_scores(500, seed=9))
        assert results_agree(_run(MinTopK(query), objects), _run(BruteForceTopK(query), objects))

    def test_matches_brute_force_on_decreasing_stream(self, decreasing_stream):
        query = TopKQuery(n=120, k=6, s=12)
        assert results_agree(
            _run(MinTopK(query), decreasing_stream),
            _run(BruteForceTopK(query), decreasing_stream),
        )

    def test_matches_brute_force_on_a_stream_not_starting_at_zero(self):
        # A query that joins an engine mid-stream sees its first window
        # start at some t > 0; positions count from that first arrival.
        query = TopKQuery(n=18, k=1, s=6)
        objects = make_objects(random_scores(120, seed=0))[12:]
        assert results_agree(_run(MinTopK(query), objects), _run(BruteForceTopK(query), objects))

    def test_rejects_time_based_windows(self):
        with pytest.raises(InvalidQueryError):
            MinTopK(TopKQuery(n=100, k=5, s=10, time_based=True))


class TestWindowMembership:
    def test_windows_of_first_object(self):
        query = TopKQuery(n=20, k=2, s=5)
        algorithm = MinTopK(query)
        assert list(algorithm._windows_of(0)) == [0]

    def test_windows_of_generic_object(self):
        query = TopKQuery(n=20, k=2, s=5)
        algorithm = MinTopK(query)
        # Object t=22 lives in windows [ceil(3/5), floor(22/5)] = [1, 4].
        assert list(algorithm._windows_of(22)) == [1, 2, 3, 4]

    def test_windows_exclude_already_reported(self):
        query = TopKQuery(n=20, k=2, s=5)
        algorithm = MinTopK(query)
        algorithm._next_report = 3
        assert list(algorithm._windows_of(22)) == [3, 4]


class TestCandidateBehaviour:
    def test_candidate_pool_bounded_by_nk_over_s(self):
        query = TopKQuery(n=100, k=5, s=10)
        objects = make_objects(random_scores(800, seed=5))
        algorithm = MinTopK(query)
        bound = query.n * query.k / max(query.s, query.k)
        for event in slides_for_query(objects, query):
            algorithm.process_slide(event)
            assert algorithm.candidate_count() <= bound + query.k

    def test_small_slide_needs_more_candidates_than_large_slide(self):
        objects = make_objects(random_scores(800, seed=6))

        def average_candidates(s):
            query = TopKQuery(n=100, k=5, s=s)
            algorithm = MinTopK(query)
            total, slides = 0, 0
            for event in slides_for_query(objects, query):
                algorithm.process_slide(event)
                total += algorithm.candidate_count()
                slides += 1
            return total / slides

        assert average_candidates(1) > average_candidates(50)

    def test_memory_includes_lbp_pointers(self):
        query = TopKQuery(n=100, k=5, s=10)
        objects = make_objects(random_scores(400, seed=7))
        algorithm = MinTopK(query)
        for event in slides_for_query(objects, query):
            algorithm.process_slide(event)
        assert algorithm.memory_bytes() > algorithm.candidate_count() * 16
