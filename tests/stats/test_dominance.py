"""Unit tests for dominance helpers and the reference k-skyband."""

import random

from repro.core.object import StreamObject
from repro.stats.dominance import k_skyband

from ..conftest import make_objects, random_scores
from ..skyband_reference import dominance_count, is_dominated_by, k_skyband_brute_force


class TestDominanceCount:
    def test_counts_only_later_higher_objects(self):
        target = StreamObject(score=5.0, t=5)
        others = [
            StreamObject(score=6.0, t=6),   # dominates
            StreamObject(score=7.0, t=4),   # earlier: does not dominate
            StreamObject(score=4.0, t=9),   # lower: does not dominate
            StreamObject(score=5.5, t=10),  # dominates
        ]
        assert dominance_count(target, others) == 2

    def test_is_dominated_by_matches_object_method(self):
        a = StreamObject(score=1.0, t=1)
        b = StreamObject(score=2.0, t=2)
        assert is_dominated_by(a, b) == a.dominated_by(b)


class TestKSkyband:
    def test_decreasing_scores_everything_is_skyband(self):
        objects = make_objects([10, 9, 8, 7, 6])
        assert len(k_skyband(objects, 2)) == 5

    def test_increasing_scores_only_newest_k_survive(self):
        objects = make_objects([1, 2, 3, 4, 5, 6])
        skyband = k_skyband(objects, 2)
        assert [o.t for o in skyband] == [4, 5]

    def test_k_zero_returns_empty(self):
        assert k_skyband(make_objects([1, 2, 3]), 0) == []

    def test_result_preserves_arrival_order(self):
        objects = make_objects(random_scores(50, seed=5))
        skyband = k_skyband(objects, 3)
        assert [o.t for o in skyband] == sorted(o.t for o in skyband)

    def test_matches_brute_force_on_random_streams(self):
        rng = random.Random(11)
        for _ in range(20):
            scores = [rng.uniform(0, 100) for _ in range(rng.randint(5, 60))]
            objects = make_objects(scores)
            k = rng.randint(1, 5)
            fast = {o.t for o in k_skyband(objects, k)}
            slow = {o.t for o in k_skyband_brute_force(objects, k)}
            assert fast == slow

    def test_skyband_contains_topk(self):
        objects = make_objects(random_scores(200, seed=8))
        k = 7
        skyband_ids = {o.t for o in k_skyband(objects, k)}
        topk = sorted(objects, key=lambda o: o.rank_key, reverse=True)[:k]
        assert all(o.t in skyband_ids for o in topk)

    def test_duplicate_scores(self):
        objects = make_objects([5, 5, 5, 5])
        # Later arrivals dominate earlier equal-score ones, so only the two
        # newest survive for k=2.
        assert [o.t for o in k_skyband(objects, 2)] == [2, 3]
