"""Longer-horizon integration tests exercising many partition transitions."""

import pytest

from repro import BruteForceTopK, SAPTopK, TopKQuery
from repro.partitioning import EqualPartitioner, EnhancedDynamicPartitioner
from repro.streams import TimeCorrelatedStream, UncorrelatedStream

from ..conftest import assert_all_agree


def test_many_partition_retirements():
    """A long run with a small window retires dozens of partitions; the
    framework must stay exact throughout."""
    objects = UncorrelatedStream(seed=99).take(6000)
    query = TopKQuery(n=120, k=6, s=12)
    assert_all_agree(
        [BruteForceTopK, lambda q: SAPTopK(q, partitioner=EqualPartitioner(m=6))],
        objects,
        query,
    )


def test_sine_wave_with_multiple_periods():
    """TIMER-style data cycles through up- and downtrends repeatedly, which
    stresses the dynamic partitioner's threshold resets and the S-AVL
    formation on downtrending fronts."""
    objects = TimeCorrelatedStream(period=500, seed=7).take(5000)
    query = TopKQuery(n=400, k=15, s=40)
    assert_all_agree(
        [BruteForceTopK, lambda q: SAPTopK(q, partitioner=EnhancedDynamicPartitioner())],
        objects,
        query,
    )


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 17, 33])
def test_equal_partition_resolution_sweep(m):
    """Every equal-partition resolution of Table 2 must stay exact."""
    objects = UncorrelatedStream(seed=m).take(2500)
    query = TopKQuery(n=500, k=10, s=25)
    assert_all_agree(
        [BruteForceTopK, lambda q: SAPTopK(q, partitioner=EqualPartitioner(m=m))],
        objects,
        query,
    )


def test_partition_sizes_respect_bounds():
    """Dynamic partitions stay within [l_min, l_max] and are slide-aligned."""
    objects = UncorrelatedStream(seed=3).take(4000)
    query = TopKQuery(n=800, k=10, s=20)
    sap = SAPTopK(query, partitioner=EnhancedDynamicPartitioner())
    sap.run(objects)
    partitioner = sap.partitioner
    sizes = sap.partition_sizes()
    assert sizes
    for size in sizes[:-1]:  # the last partition may still be the force-sealed tail
        assert size % query.s == 0
        assert size <= partitioner.l_max
