"""Unit tests for the baseline S-AVL structure."""

import math
import random

import pytest

from repro.core.object import StreamObject, top_k
from repro.savl.savl import SAVL
from repro.stats.dominance import k_skyband

from ..conftest import make_objects, random_scores


class TestConstruction:
    def test_needs_at_least_one_stack(self):
        with pytest.raises(ValueError):
            SAVL(num_stacks=0)

    def test_first_objects_form_new_stacks(self):
        savl = SAVL(num_stacks=3)
        # Reverse arrival order: later objects pushed first.
        for obj in reversed(make_objects([5, 6, 7])):
            assert savl.push(obj)
        assert savl.stack_count == 3
        savl.check_invariants()

    def test_object_below_all_tops_is_pruned(self):
        savl = SAVL(num_stacks=2)
        objects = make_objects([1, 8, 9])  # t=0 is the weakest and oldest
        for obj in reversed(objects):
            savl.push(obj)
        # 1 (t=0) ranks below both stack tops (8, 9) -> pruned.
        assert len(savl) == 2
        assert savl.pruned_count == 1

    def test_global_threshold_prunes(self):
        savl = SAVL(num_stacks=3, global_threshold=(5.0, 100))
        kept = savl.push(StreamObject(score=6.0, t=1))
        dropped = savl.push(StreamObject(score=4.0, t=0))
        assert kept and not dropped
        assert len(savl) == 1

    def test_build_excludes_requested_keys(self):
        objects = make_objects([5, 9, 1, 7])
        exclude = {(9.0, 1)}
        savl = SAVL.build(objects, num_stacks=2, exclude_keys=exclude)
        assert (9.0, 1) not in {o.rank_key for o in savl.contents()}

    def test_stack_invariants_on_random_input(self):
        for seed in range(5):
            objects = make_objects(random_scores(200, seed=seed))
            savl = SAVL.build(objects, num_stacks=4)
            savl.check_invariants()


class TestSkybandCoverage:
    """S-AVL must keep every local k-skyband object (false positives allowed)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_contains_all_k_skyband_objects(self, seed, k):
        objects = make_objects(random_scores(120, seed=seed))
        exclude = {o.rank_key for o in top_k(objects, k)}
        savl = SAVL.build(objects, num_stacks=k, exclude_keys=exclude)
        stored = {o.rank_key for o in savl.contents()}
        skyband = {
            o.rank_key for o in k_skyband(objects, k) if o.rank_key not in exclude
        }
        assert skyband <= stored

    def test_decreasing_stream_keeps_everything(self):
        objects = make_objects([100 - i for i in range(50)])
        savl = SAVL.build(objects, num_stacks=3)
        # On a decreasing stream nothing is locally dominated.
        assert len(savl) == 50


class TestPromotion:
    def test_pop_best_returns_objects_in_rank_order(self):
        objects = make_objects(random_scores(60, seed=3))
        savl = SAVL.build(objects, num_stacks=4)
        popped = []
        while True:
            obj = savl.pop_best(watermark_t=0)
            if obj is None:
                break
            popped.append(obj)
        keys = [o.rank_key for o in popped]
        assert keys == sorted(keys, reverse=True)
        assert len(savl) == 0

    def test_pop_best_skips_expired_entries(self):
        objects = make_objects([10, 1, 2, 3])
        savl = SAVL.build(objects, num_stacks=2)
        # Expire the first object (t=0, the highest score).
        best = savl.pop_best(watermark_t=1)
        assert best is not None and best.t != 0

    def test_pop_best_empty(self):
        savl = SAVL(num_stacks=2)
        assert savl.pop_best(watermark_t=0) is None

    def test_peek_best_does_not_remove(self):
        objects = make_objects([4, 9, 2])
        savl = SAVL.build(objects, num_stacks=2)
        key = savl.peek_best(watermark_t=0)
        assert key is not None
        assert savl.peek_best(watermark_t=0) == key
        popped = savl.pop_best(watermark_t=0)
        assert popped.rank_key == key

    def test_peek_best_discards_expired_tops(self):
        objects = make_objects([10, 1, 2])
        savl = SAVL.build(objects, num_stacks=2)
        key = savl.peek_best(watermark_t=1)
        assert key is None or key[1] >= 1


class TestExpiry:
    def test_prune_expired_removes_only_expired(self):
        objects = make_objects(random_scores(80, seed=4))
        savl = SAVL.build(objects, num_stacks=3)
        before = {o.rank_key for o in savl.contents()}
        savl.prune_expired(watermark_t=40)
        after = {o.rank_key for o in savl.contents()}
        assert all(key[1] >= 40 for key in after)
        assert after <= before
        savl.check_invariants()

    def test_prune_expired_everything(self):
        objects = make_objects([3, 2, 1])
        savl = SAVL.build(objects, num_stacks=2)
        savl.prune_expired(watermark_t=100)
        assert len(savl) == 0


def _counted(method):
    def compare(self, other):
        CountingScore.comparisons += 1
        return method(self, other)

    return compare


class CountingScore(float):
    """A score that counts every comparison made against it."""

    comparisons = 0
    __lt__ = _counted(float.__lt__)
    __le__ = _counted(float.__le__)
    __gt__ = _counted(float.__gt__)
    __ge__ = _counted(float.__ge__)
    __eq__ = _counted(float.__eq__)
    __ne__ = _counted(float.__ne__)
    __hash__ = float.__hash__


class TestComplexity:
    def test_push_is_logarithmic_in_the_stack_count(self):
        # Section 5.1: a push finds the stack with the largest top below
        # the object by searching the ordered tops, not by walking them.
        num_stacks, count = 256, 2000
        rng = random.Random(5)
        objects = [StreamObject(score=CountingScore(rng.random()), t=t) for t in range(count)]
        savl = SAVL(num_stacks=num_stacks)
        CountingScore.comparisons = 0
        for obj in reversed(objects):
            savl.push(obj)
        savl.check_invariants()
        assert CountingScore.comparisons / count < 4 * math.log2(num_stacks)
