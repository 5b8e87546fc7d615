"""Property-based tests on the core data structures and statistics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.object import top_k
from repro.savl.savl import SAVL
from repro.stats.dominance import k_skyband
from repro.stats.mannwhitney import rank_sum, rank_sum_test
from repro.structures.avl import AVLTree

from ..conftest import make_objects
from ..skyband_reference import k_skyband_brute_force


# ----------------------------------------------------------------------
# AVL tree
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=60))))
def test_avl_behaves_like_a_sorted_dict(operations):
    tree = AVLTree()
    mirror = {}
    for insert, key in operations:
        if insert:
            tree.insert(key, key)
            mirror[key] = key
        else:
            assert tree.remove(key) == (key in mirror)
            mirror.pop(key, None)
    tree.check_invariants()
    assert tree.keys() == sorted(mirror)
    if mirror:
        assert tree.min_item()[0] == min(mirror)
        assert tree.max_item()[0] == max(mirror)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), unique=True, min_size=1),
       st.integers(min_value=-1000, max_value=1000))
def test_avl_order_statistics(keys, probe):
    tree = AVLTree()
    for key in keys:
        tree.insert(key)
    assert tree.count_greater(probe) == sum(1 for key in keys if key > probe)
    assert tree.count_less(probe) == sum(1 for key in keys if key < probe)
    ordered = sorted(keys, reverse=True)
    for rank in range(1, len(keys) + 1):
        assert tree.kth_largest(rank)[0] == ordered[rank - 1]


# ----------------------------------------------------------------------
# Dominance / k-skyband
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40).map(float), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=6))
def test_k_skyband_matches_brute_force(scores, k):
    objects = make_objects(scores)
    fast = {o.t for o in k_skyband(objects, k)}
    slow = {o.t for o in k_skyband_brute_force(objects, k)}
    assert fast == slow


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=80),
       st.integers(min_value=1, max_value=6))
def test_k_skyband_contains_topk(scores, k):
    objects = make_objects(scores)
    skyband = {o.t for o in k_skyband(objects, k)}
    assert all(o.t in skyband for o in top_k(objects, k))


# ----------------------------------------------------------------------
# S-AVL
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=80),
       st.integers(min_value=1, max_value=5))
def test_savl_is_a_superset_of_the_local_skyband(scores, k):
    objects = make_objects(scores)
    savl = SAVL.build(objects, num_stacks=k)
    savl.check_invariants()
    stored = {o.rank_key for o in savl.contents()}
    assert {o.rank_key for o in k_skyband(objects, k)} <= stored


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=80),
       st.integers(min_value=1, max_value=5))
def test_savl_pop_best_is_monotone_decreasing(scores, k):
    objects = make_objects(scores)
    savl = SAVL.build(objects, num_stacks=k)
    keys = []
    while True:
        obj = savl.pop_best(0)
        if obj is None:
            break
        keys.append(obj.rank_key)
    assert keys == sorted(keys, reverse=True)


# ----------------------------------------------------------------------
# Mann-Whitney
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20),
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20),
)
def test_rank_sums_partition_the_total(sample1, sample2):
    r1, r2 = rank_sum(sample1, sample2)
    total = len(sample1) + len(sample2)
    assert abs((r1 + r2) - total * (total + 1) / 2) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=900, max_value=1000), min_size=11, max_size=20),
    st.lists(st.floats(min_value=0, max_value=10), min_size=11, max_size=30),
)
def test_rank_sum_test_flags_clearly_separated_samples(high, low):
    assert rank_sum_test(high, low).first_is_larger
    assert not rank_sum_test(low, high).first_is_larger
