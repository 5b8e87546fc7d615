"""Unit tests for the enhanced dynamic partitioner (TBUI + unit summaries)."""

from repro.core.object import top_k
from repro.core.query import TopKQuery
from repro.partitioning.base import PartitionContext
from repro.partitioning.enhanced import EnhancedDynamicPartitioner

from ..conftest import make_objects, random_scores


def _bind(partitioner, query, reference_scores=None):
    scores = list(reference_scores or [])

    def provider(count):
        return sorted(scores, reverse=True)[:count]

    partitioner.bind(query, PartitionContext(provider))
    return partitioner


def _drive(partitioner, stream, s):
    specs = []
    for start in range(0, len(stream), s):
        specs.extend(partitioner.observe(stream[start : start + s]))
    return specs


class TestUnitSummaries:
    def test_every_sealed_partition_carries_units(self):
        query = TopKQuery(n=400, k=4, s=4)
        partitioner = _bind(
            EnhancedDynamicPartitioner(), query, reference_scores=[0.0] * 40
        )
        stream = make_objects([10.0 + s for s in random_scores(1200, seed=1)])
        specs = _drive(partitioner, stream, query.s)
        assert specs
        for spec in specs:
            assert spec.units is not None
            assert sum(unit.size for unit in spec.units) == spec.size

    def test_unit_ranges_tile_the_partition(self):
        query = TopKQuery(n=400, k=4, s=4)
        partitioner = _bind(
            EnhancedDynamicPartitioner(), query, reference_scores=[1000.0] * 40
        )
        stream = make_objects(random_scores(1600, seed=2))
        specs = _drive(partitioner, stream, query.s)
        for spec in specs:
            offset = 0
            for unit in spec.units:
                assert unit.start == offset
                offset = unit.end
            assert offset == spec.size

    def test_k_unit_summary_is_true_topk_of_the_unit(self):
        query = TopKQuery(n=400, k=4, s=4)
        partitioner = _bind(
            EnhancedDynamicPartitioner(), query, reference_scores=[1000.0] * 40
        )
        stream = make_objects(random_scores(1600, seed=3))
        specs = _drive(partitioner, stream, query.s)
        for spec in specs:
            for unit in spec.units:
                chunk = spec.objects[unit.start : unit.end]
                if unit.is_k_unit:
                    assert unit.summary == top_k(chunk, query.k)
                else:
                    assert unit.summary == top_k(chunk, 1)

    def test_uniform_stream_demotes_most_units(self):
        """On a stable uniform stream Theorem 2 applies to almost every unit:
        the following unit always has >= k objects above the threshold, so
        interior units end up labelled non-k-units."""
        query = TopKQuery(n=900, k=3, s=3)
        partitioner = _bind(
            EnhancedDynamicPartitioner(), query, reference_scores=[1000.0] * 30
        )
        stream = make_objects(random_scores(4000, seed=4))
        specs = _drive(partitioner, stream, query.s)
        units = [unit for spec in specs for unit in spec.units]
        assert len(units) >= 4
        non_k = sum(1 for unit in units if not unit.is_k_unit)
        assert non_k >= len(units) // 2

    def test_downtrend_keeps_k_units(self):
        """A steadily decreasing stream never demotes units (the next unit
        never has k objects above the previous threshold), mirroring the
        paper's Figure 7 narrative."""
        query = TopKQuery(n=400, k=4, s=4)
        partitioner = _bind(
            EnhancedDynamicPartitioner(), query, reference_scores=[10_000.0] * 40
        )
        stream = make_objects([100_000.0 - 10.0 * i for i in range(1600)])
        specs = _drive(partitioner, stream, query.s)
        units = [unit for spec in specs for unit in spec.units]
        assert units
        assert all(unit.is_k_unit for unit in units)


class TestSealingParity:
    def test_same_partition_sizes_as_dynamic_parent(self):
        """The enhanced partitioner sizes partitions exactly like the plain
        dynamic partitioner; only the attached metadata differs."""
        from repro.partitioning.dynamic import DynamicPartitioner

        query = TopKQuery(n=400, k=4, s=4)
        reference = random_scores(50, seed=5)
        stream = make_objects(random_scores(2000, seed=6))
        enhanced = _bind(EnhancedDynamicPartitioner(), query, reference)
        dynamic = _bind(DynamicPartitioner(), query, reference)
        enhanced_sizes = [spec.size for spec in _drive(enhanced, stream, query.s)]
        dynamic_sizes = [spec.size for spec in _drive(dynamic, stream, query.s)]
        assert enhanced_sizes == dynamic_sizes

    def test_batch_size_does_not_change_seals_or_labels(self):
        """Batches are consumed in unit-sized slices: one object at a time
        and batches spanning several units seal the same partitions with
        the same TBUI labels."""
        query = TopKQuery(n=400, k=4, s=4)
        reference = random_scores(50, seed=7)
        stream = make_objects(random_scores(2000, seed=8))

        def outline(batch):
            partitioner = _bind(EnhancedDynamicPartitioner(), query, reference)
            return [
                (
                    [o.t for o in spec.objects],
                    [(u.start, u.end, u.is_k_unit, u.summary) for u in spec.units],
                )
                for spec in _drive(partitioner, stream, batch)
            ]

        single = outline(1)
        assert single
        assert outline(query.s) == single
        assert outline(97) == single
