"""Unit tests for the continuous top-k query specification."""

import math

import pytest

from repro.core.exceptions import InvalidQueryError
from repro.core.query import TopKQuery


class TestValidation:
    def test_valid_query(self):
        query = TopKQuery(n=100, k=10, s=5)
        assert query.n == 100 and query.k == 10 and query.s == 5

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_window_rejected(self, n):
        with pytest.raises(InvalidQueryError):
            TopKQuery(n=n, k=1)

    @pytest.mark.parametrize("k", [0, -5])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(InvalidQueryError):
            TopKQuery(n=10, k=k)

    def test_non_positive_slide_rejected(self):
        with pytest.raises(InvalidQueryError):
            TopKQuery(n=10, k=1, s=0)

    def test_slide_larger_than_window_rejected(self):
        with pytest.raises(InvalidQueryError):
            TopKQuery(n=10, k=1, s=11)

    def test_k_larger_than_count_window_rejected(self):
        with pytest.raises(InvalidQueryError):
            TopKQuery(n=10, k=11)

    def test_k_larger_than_duration_allowed_for_time_based(self):
        query = TopKQuery(n=10, k=50, s=5, time_based=True)
        assert query.time_based


class TestDerivedQuantities:
    def test_m_star_formula(self):
        query = TopKQuery(n=10_000, k=100, s=10)
        assert query.m_star == math.ceil(math.sqrt(10_000 / 100))

    def test_m_star_uses_max_of_s_and_k(self):
        by_k = TopKQuery(n=10_000, k=100, s=10)
        by_s = TopKQuery(n=10_000, k=10, s=100)
        assert by_k.m_star == by_s.m_star

    def test_m_star_at_least_one(self):
        query = TopKQuery(n=5, k=5, s=5)
        assert query.m_star >= 1

    def test_l_min_is_multiple_of_slide(self):
        query = TopKQuery(n=1_000, k=7, s=13)
        assert query.l_min % query.s == 0

    def test_l_min_at_least_max_of_s_and_k(self):
        query = TopKQuery(n=1_000, k=50, s=10)
        assert query.l_min >= max(query.s, query.k)

    def test_l_max_between_l_min_and_window(self):
        query = TopKQuery(n=10_000, k=100, s=10)
        l_max = query.l_max(eta=3.0)
        assert query.l_min <= l_max <= query.n

    def test_l_max_formula_n_over_one_plus_eta(self):
        query = TopKQuery(n=12_000, k=10, s=10)
        eta = 2.0
        assert query.l_max(eta) <= query.n / (1 + eta) + query.s

    def test_slides_per_window(self):
        assert TopKQuery(n=100, k=5, s=10).slides_per_window == 10
        assert TopKQuery(n=105, k=5, s=10).slides_per_window == 11


class TestPreference:
    def test_describe_mentions_window_type(self):
        assert "count-based" in TopKQuery(n=10, k=2).describe()
        assert "time-based" in TopKQuery(n=10, k=2, time_based=True).describe()
