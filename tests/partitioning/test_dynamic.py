"""Unit tests for the WRT-driven dynamic partitioner."""

from repro.core.object import top_k
from repro.core.query import TopKQuery
from repro.partitioning.base import PartitionContext
from repro.partitioning.dynamic import DynamicPartitioner

from ..conftest import make_objects, random_scores


def _bind(partitioner, query, reference_scores=None):
    scores = list(reference_scores or [])

    def provider(count):
        return sorted(scores, reverse=True)[:count]

    partitioner.bind(query, PartitionContext(provider))
    return partitioner


class TestConfiguration:
    def test_unit_size_is_l_min(self):
        query = TopKQuery(n=900, k=9, s=3)
        partitioner = _bind(DynamicPartitioner(), query)
        assert partitioner.unit_size == query.l_min

    def test_l_max_within_window(self):
        query = TopKQuery(n=900, k=9, s=3)
        partitioner = _bind(DynamicPartitioner(), query)
        assert partitioner.unit_size <= partitioner.l_max <= query.n


class TestSealingBehaviour:
    def test_first_unit_never_sealed_alone(self):
        query = TopKQuery(n=400, k=4, s=4)
        partitioner = _bind(DynamicPartitioner(), query)
        unit = partitioner.unit_size
        specs = partitioner.observe(make_objects(random_scores(unit, seed=1)))
        assert specs == []
        assert partitioner.pending_count() == unit

    def test_partitions_grow_when_scores_similar_to_reference(self):
        query = TopKQuery(n=400, k=4, s=4)
        # Reference candidates clearly larger than the stream: the pending
        # partition's top-k never "wins", so units keep merging until l_max.
        partitioner = _bind(
            DynamicPartitioner(), query, reference_scores=[1000.0 - i for i in range(50)]
        )
        unit = partitioner.unit_size
        stream = make_objects(random_scores(6 * unit, seed=2))
        specs = []
        for start in range(0, len(stream), query.s):
            specs.extend(partitioner.observe(stream[start : start + query.s]))
        for spec in specs:
            assert spec.size > unit

    def test_partitions_sealed_small_when_stream_beats_reference(self):
        query = TopKQuery(n=400, k=4, s=4)
        # Reference candidates clearly smaller than the stream: every new
        # unit triggers a seal, so partitions stay one unit long.
        partitioner = _bind(
            DynamicPartitioner(), query, reference_scores=[0.001 * i for i in range(50)]
        )
        unit = partitioner.unit_size
        stream = make_objects([100.0 + s for s in random_scores(6 * unit, seed=3)])
        specs = []
        for start in range(0, len(stream), query.s):
            specs.extend(partitioner.observe(stream[start : start + query.s]))
        assert specs, "expected at least one sealed partition"
        assert all(spec.size == unit for spec in specs)

    def test_partition_never_exceeds_l_max(self):
        query = TopKQuery(n=400, k=4, s=4)
        partitioner = _bind(
            DynamicPartitioner(), query, reference_scores=[1000.0] * 50
        )
        stream = make_objects(random_scores(1200, seed=4))
        specs = []
        for start in range(0, len(stream), query.s):
            specs.extend(partitioner.observe(stream[start : start + query.s]))
        for spec in specs:
            assert spec.size <= partitioner.l_max

    def test_partition_sizes_are_unit_multiples(self):
        query = TopKQuery(n=300, k=3, s=3)
        partitioner = _bind(DynamicPartitioner(), query, reference_scores=random_scores(60, 5))
        stream = make_objects(random_scores(900, seed=6))
        specs = []
        for start in range(0, len(stream), query.s):
            specs.extend(partitioner.observe(stream[start : start + query.s]))
        unit = partitioner.unit_size
        assert all(spec.size % unit == 0 for spec in specs)

    def test_sealed_objects_preserve_stream_order(self):
        query = TopKQuery(n=300, k=3, s=3)
        partitioner = _bind(DynamicPartitioner(), query, reference_scores=random_scores(60, 7))
        stream = make_objects(random_scores(900, seed=8))
        sealed_ids = []
        for start in range(0, len(stream), query.s):
            for spec in partitioner.observe(stream[start : start + query.s]):
                sealed_ids.extend(o.t for o in spec.objects)
        assert sealed_ids == sorted(sealed_ids)
        assert sealed_ids == list(range(len(sealed_ids)))

    def test_no_unit_metadata_for_plain_dynamic(self):
        query = TopKQuery(n=300, k=3, s=3)
        partitioner = _bind(DynamicPartitioner(), query, reference_scores=[0.0] * 30)
        stream = make_objects([50.0 + s for s in random_scores(900, seed=9)])
        for start in range(0, len(stream), query.s):
            for spec in partitioner.observe(stream[start : start + query.s]):
                assert spec.units is None

    def test_force_seal_includes_partial_unit(self):
        query = TopKQuery(n=300, k=3, s=3)
        partitioner = _bind(DynamicPartitioner(), query)
        partitioner.observe(make_objects(random_scores(100, seed=10)))
        pending_before = partitioner.pending_count()
        spec = partitioner.force_seal()
        assert spec is not None and spec.size == pending_before
        assert partitioner.pending_count() == 0

    def test_sealed_and_pending_topk_match_a_scan(self):
        query = TopKQuery(n=400, k=4, s=4)
        # A stronger reference keeps units merging, so seals span units.
        partitioner = _bind(
            DynamicPartitioner(), query, reference_scores=[1000.0 - i for i in range(50)]
        )
        stream = make_objects(random_scores(1200, seed=12))
        sizes = []
        for start in range(0, len(stream), 41):
            for spec in partitioner.observe(stream[start : start + 41]):
                assert spec.topk == top_k(spec.objects, query.k)
                sizes.append(spec.size)
            pending = partitioner.pending_objects()
            assert partitioner.pending_topk(query.k) == top_k(pending, query.k)
        assert sizes and max(sizes) > partitioner.unit_size
        # A forced seal leaves the scan to build_partition.
        assert partitioner.force_seal().topk is None
