"""Property-based tests for the candidate set's merge-and-refine procedure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateSet

from ..conftest import make_objects


partition_stream = st.lists(
    st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=8
    ),
    min_size=1,
    max_size=8,
)


def _merge_all(partition_scores, k):
    """Merge successive partitions' top-k lists and mirror the bookkeeping
    with a brute-force dominance count."""
    candidates = CandidateSet()
    all_objects = []  # (partition_id, StreamObject)
    t = 0
    for partition_id, scores in enumerate(partition_scores):
        objects = make_objects(scores, start_t=t)
        t += len(objects)
        topk = sorted(objects, key=lambda o: o.rank_key, reverse=True)[:k]
        candidates.merge_partition_topk(topk, partition_id=partition_id, k=k)
        all_objects.extend((partition_id, obj) for obj in topk)
    return candidates, all_objects


@settings(max_examples=120, deadline=None)
@given(partition_scores=partition_stream, k=st.integers(min_value=1, max_value=4))
def test_merge_refine_matches_brute_force_dominance(partition_scores, k):
    """The merge counters mirror Figure 4: each candidate's counter equals
    the number of *later-partition* candidates that outrank it, and the
    candidate disappears once that count reaches k."""
    candidates, merged_objects = _merge_all(partition_scores, k)

    for partition_id, obj in merged_objects:
        dominators = sum(
            1
            for other_partition, other in merged_objects
            if other_partition > partition_id and other.rank_key > obj.rank_key
        )
        entry = candidates.get(obj.rank_key)
        if dominators >= k:
            assert entry is None, "a dominated candidate must have been refined away"
        else:
            assert entry is not None, "a non-dominated candidate must survive"
            assert entry.dominance == dominators


@settings(max_examples=80, deadline=None)
@given(partition_scores=partition_stream, k=st.integers(min_value=1, max_value=4))
def test_merge_never_loses_the_global_topk(partition_scores, k):
    candidates, merged_objects = _merge_all(partition_scores, k)
    objects_only = [obj for _, obj in merged_objects]
    global_topk = sorted(objects_only, key=lambda o: o.rank_key, reverse=True)[:k]
    surviving = {obj.rank_key for obj in candidates.top_objects(len(candidates))}
    assert all(obj.rank_key in surviving for obj in global_topk)


@settings(max_examples=80, deadline=None)
@given(partition_scores=partition_stream, k=st.integers(min_value=1, max_value=4))
def test_candidate_set_queries_consistent(partition_scores, k):
    candidates, _ = _merge_all(partition_scores, k)
    entries = candidates.top_entries(len(candidates))
    keys = [entry.rank_key for entry in entries]
    assert keys == sorted(keys, reverse=True)
    assert len(candidates) == len(entries)
    if entries:
        weakest = entries[-1]
        rho = candidates.group_dominance(weakest.rank_key, weakest.partition_id, k)
        brute = sum(
            1
            for entry in entries
            if entry.rank_key > weakest.rank_key
            and entry.partition_id != weakest.partition_id
        )
        assert rho == min(brute, k)
