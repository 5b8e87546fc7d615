"""Unit tests for partitions, partition specs, and unit summaries."""

import pytest

from repro.core.object import top_k
from repro.core.partition import Partition, PartitionSpec, UnitSummary, build_partition

from ..conftest import make_objects, random_scores


class TestPartition:
    def test_topk_computed_at_construction(self):
        objects = make_objects([5, 9, 1, 7])
        partition = build_partition(0, objects, k=2)
        assert [o.score for o in partition.topk] == [9.0, 7.0]
        assert partition.kth_key == (7.0, 3)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            Partition(partition_id=0, objects=[], k=1)

    def test_topk_smaller_than_k_for_tiny_partition(self):
        partition = build_partition(0, make_objects([3, 1]), k=5)
        assert len(partition.topk) == 2

    def test_expire_one_advances_prefix(self):
        objects = make_objects([5, 9, 1])
        partition = build_partition(0, objects, k=1)
        partition.expire_batch(objects[:1])
        assert partition.expired_prefix == 1
        assert partition.live_count == 2
        assert not partition.fully_expired

    def test_expire_out_of_order_rejected(self):
        objects = make_objects([5, 9, 1])
        partition = build_partition(0, objects, k=1)
        with pytest.raises(ValueError, match="expected t=0, got t=1"):
            partition.expire_batch(objects[1:2])
        partition.expire_batch(objects[:1])
        with pytest.raises(ValueError, match="expected t=2, got t=0"):
            partition.expire_batch([objects[1], objects[0]])
        assert partition.expired_prefix == 1
        with pytest.raises(ValueError, match="only 2 remain live"):
            partition.expire_batch(objects)

    def test_fully_expired(self):
        objects = make_objects([5, 9])
        partition = build_partition(0, objects, k=1)
        partition.expire_batch(objects)
        assert partition.fully_expired
        assert partition.live_count == 0


class TestBuildPartitionWithUnits:
    def _units_for(self, objects, unit_size, k):
        units = []
        for start in range(0, len(objects), unit_size):
            chunk = objects[start : start + unit_size]
            units.append(
                UnitSummary(
                    start=start,
                    end=start + len(chunk),
                    is_k_unit=True,
                    summary=top_k(chunk, k),
                )
            )
        return units

    def test_topk_derived_from_unit_summaries(self):
        objects = make_objects(random_scores(40, seed=1))
        units = self._units_for(objects, unit_size=10, k=3)
        partition = build_partition(0, objects, k=3, units=units)
        assert partition.topk == top_k(objects, 3)

    def test_supplied_topk_is_kept(self):
        objects = make_objects(random_scores(20, seed=3))
        best = top_k(objects, 4)
        partition = build_partition(0, objects, k=4, topk=best)
        assert partition.topk is best
        assert partition.kth_key == best[-1].rank_key

    def test_falls_back_to_scan_when_summaries_too_small(self):
        objects = make_objects(random_scores(20, seed=2))
        # Non-k-unit style summaries (top-1 only) cannot supply k=5 objects.
        units = [
            UnitSummary(start=0, end=10, is_k_unit=False, summary=top_k(objects[:10], 1)),
            UnitSummary(start=10, end=20, is_k_unit=False, summary=top_k(objects[10:], 1)),
        ]
        partition = build_partition(0, objects, k=5, units=units)
        assert partition.topk == top_k(objects, 5)


class TestUnitSummary:
    def test_size_and_keys(self):
        objects = make_objects([4, 8, 6])
        unit = UnitSummary(start=0, end=3, is_k_unit=True, summary=top_k(objects, 2))
        assert unit.size == 3
        assert unit.max_key == (8.0, 1)
        assert unit.min_summary_key == (6.0, 2)


class TestPartitionSpec:
    def test_size_property(self):
        spec = PartitionSpec(objects=make_objects([1, 2, 3]))
        assert spec.size == 3
        assert spec.units is None
