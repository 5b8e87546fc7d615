"""Unit tests for the candidate set and its merge-and-refine maintenance."""

from repro.core.candidates import CandidateSet
from repro.core.object import StreamObject



def _obj(score, t):
    return StreamObject(score=float(score), t=t)


class TestBasics:
    def test_add_and_len(self):
        candidates = CandidateSet()
        candidates.add(_obj(5, 1), partition_id=0)
        candidates.add(_obj(7, 2), partition_id=1)
        assert len(candidates) == 2
        assert (5.0, 1) in candidates
        assert candidates.get((7.0, 2)).partition_id == 1

    def test_remove_returns_entry(self):
        candidates = CandidateSet()
        candidates.add(_obj(5, 1), partition_id=3)
        entry = candidates.remove((5.0, 1))
        assert entry is not None and entry.partition_id == 3
        assert candidates.remove((5.0, 1)) is None
        assert len(candidates) == 0

    def test_top_objects_ascend_by_rank(self):
        candidates = CandidateSet()
        for score, t in [(5, 1), (9, 2), (7, 3)]:
            candidates.add(_obj(score, t), partition_id=0)
        assert [o.score for o in candidates.top_objects(3)] == [5.0, 7.0, 9.0]
        assert [o.score for o in candidates.top_objects(2)] == [7.0, 9.0]
        assert candidates.top_objects(0) == []

    def test_top_entries_and_scores(self):
        candidates = CandidateSet()
        for score, t in [(5, 1), (9, 2), (7, 3)]:
            candidates.add(_obj(score, t), partition_id=0)
        assert candidates.top_scores(2) == [9.0, 7.0]
        assert len(candidates.top_entries(10)) == 3


class TestMergeRefine:
    def test_merge_increments_dominance_of_weaker_candidates(self):
        candidates = CandidateSet()
        old = [_obj(10, 0), _obj(8, 1), _obj(2, 2)]
        for obj in old:
            candidates.add(obj, partition_id=0)
        # Newer partition contributes 9 and 3: 8 gains one dominator (9),
        # 2 gains two dominators (9 and 3), 10 gains none.
        candidates.merge_partition_topk([_obj(9, 10), _obj(3, 11)], partition_id=1, k=5)
        assert candidates.get((10.0, 0)).dominance == 0
        assert candidates.get((8.0, 1)).dominance == 1
        assert candidates.get((2.0, 2)).dominance == 2

    def test_merge_removes_candidates_reaching_k_dominators(self):
        candidates = CandidateSet()
        candidates.add(_obj(1, 0), partition_id=0)
        removed = candidates.merge_partition_topk(
            [_obj(5, 10), _obj(4, 11)], partition_id=1, k=2
        )
        assert [entry.obj.score for entry in removed] == [1.0]
        assert (1.0, 0) not in candidates
        assert len(candidates) == 2

    def test_dominance_accumulates_across_merges(self):
        candidates = CandidateSet()
        candidates.add(_obj(1, 0), partition_id=0)
        candidates.merge_partition_topk([_obj(5, 10)], partition_id=1, k=3)
        candidates.merge_partition_topk([_obj(6, 20)], partition_id=2, k=3)
        assert candidates.get((1.0, 0)).dominance == 2
        candidates.merge_partition_topk([_obj(7, 30)], partition_id=3, k=3)
        assert (1.0, 0) not in candidates

    def test_merge_inserts_new_objects_with_zero_dominance(self):
        candidates = CandidateSet()
        candidates.merge_partition_topk([_obj(4, 1), _obj(2, 2)], partition_id=0, k=2)
        assert candidates.get((4.0, 1)).dominance == 0
        assert candidates.get((2.0, 2)).dominance == 0

    def test_merge_empty_list_is_noop(self):
        candidates = CandidateSet()
        candidates.add(_obj(5, 1), partition_id=0)
        removed = candidates.merge_partition_topk([], partition_id=1, k=2)
        assert removed == [] and len(candidates) == 1


class TestFrameworkQueries:
    def _populated(self):
        candidates = CandidateSet()
        # Partition 0 owns 10 and 4, partition 1 owns 9, 8, partition 2 owns 6.
        candidates.add(_obj(10, 0), partition_id=0)
        candidates.add(_obj(4, 1), partition_id=0)
        candidates.add(_obj(9, 10), partition_id=1)
        candidates.add(_obj(8, 11), partition_id=1)
        candidates.add(_obj(6, 20), partition_id=2)
        return candidates

    def test_group_dominance_counts_other_partitions_only(self):
        candidates = self._populated()
        # kth key of partition 0 is (4, 1): candidates above it from other
        # partitions are 9, 8, 6 -> rho = 3 (capped at k).
        assert candidates.group_dominance((4.0, 1), partition_id=0, k=10) == 3
        assert candidates.group_dominance((4.0, 1), partition_id=0, k=2) == 2

    def test_group_dominance_excludes_own_partition(self):
        candidates = self._populated()
        # Above (4,1) there is also partition 0's own 10, which must not count.
        rho_with_own_excluded = candidates.group_dominance((4.0, 1), partition_id=0, k=10)
        rho_other_partition = candidates.group_dominance((4.0, 1), partition_id=9, k=10)
        assert rho_other_partition == rho_with_own_excluded + 1

    def test_global_threshold_kth_best_outside_partition(self):
        candidates = self._populated()
        # Excluding partition 0, the candidates are 9, 8, 6: the 2nd best is 8.
        assert candidates.global_threshold(exclude_partition_id=0, k=2) == (8.0, 11)

    def test_global_threshold_none_when_not_enough_candidates(self):
        candidates = self._populated()
        assert candidates.global_threshold(exclude_partition_id=0, k=4) is None
