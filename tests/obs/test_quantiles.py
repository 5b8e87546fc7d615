"""The shared percentile helpers: the library's one implementation.

Every stat surface (per-subscription collectors, the cluster merge, the
control plane's windows) routes through these helpers, so these tests
pin the convention — nearest rank over the sorted values — and the
latency sketch that applies the same rule over its bucket counts.
"""

import pytest

from repro.core.metrics import percentile
from repro.obs.quantiles import (
    SKETCH_ALPHA,
    SKETCH_GAMMA,
    ZERO_BUCKET,
    STANDARD_FRACTIONS,
    bucket_value,
    merge_sketches,
    nearest_rank,
    nearest_ranks,
    sketch_ranks,
)


class TestNearestRank:
    def test_single_value(self):
        assert nearest_rank([7.0], 0.5) == 7.0
        assert nearest_rank([7.0], 0.0) == 7.0
        assert nearest_rank([7.0], 1.0) == 7.0

    def test_selects_by_rounded_rank(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert nearest_rank(values, 0.0) == 10.0
        assert nearest_rank(values, 0.5) == 30.0
        assert nearest_rank(values, 1.0) == 50.0

    def test_input_order_is_irrelevant(self):
        assert nearest_rank([50.0, 10.0, 30.0, 20.0, 40.0], 0.5) == 30.0

    def test_many_fractions_one_sort(self):
        values = list(range(100, 0, -1))
        assert nearest_ranks(values, STANDARD_FRACTIONS) == [
            nearest_rank(values, f) for f in STANDARD_FRACTIONS
        ]

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)

    def test_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)

    def test_matches_core_metrics_percentile(self):
        # repro.core.metrics.percentile delegates here; the surfaces must
        # agree bit-for-bit.
        values = [0.003, 0.001, 0.009, 0.002, 0.004, 0.007]
        for fraction in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert percentile(values, fraction) == nearest_rank(values, fraction)


class TestSketch:
    def test_bucket_value_is_within_alpha_of_its_bucket(self):
        for bucket in (-700, -1, 0, 1, 300):
            low, high = SKETCH_GAMMA ** (bucket - 1), SKETCH_GAMMA**bucket
            value = bucket_value(bucket)
            assert low < value <= high
            assert value / high == pytest.approx(1 - SKETCH_ALPHA)
            assert value / low == pytest.approx(1 + SKETCH_ALPHA)

    def test_zero_bucket_reports_zero_and_sorts_first(self):
        assert bucket_value(ZERO_BUCKET) == 0.0
        sketch = {-300: 2, ZERO_BUCKET: 3}
        assert sketch_ranks(sketch, (0.0, 0.5, 1.0), 1.0) == [
            0.0, 0.0, bucket_value(-300),
        ]

    def test_ranks_walk_the_bucket_counts(self):
        # Ten values: four in bucket 1, one in 5, five in 9.  Index
        # round(f * 9) picks the 0th, 4th (bucket 5) and 9th value.
        sketch = {9: 5, 1: 4, 5: 1}
        assert sketch_ranks(sketch, (0.0, 0.45, 1.0), 2.0) == [
            bucket_value(1), bucket_value(5), bucket_value(9),
        ]
        assert sketch_ranks(sketch, STANDARD_FRACTIONS, 2.0) == [
            bucket_value(5), bucket_value(9), bucket_value(9),
        ]

    def test_ranks_are_capped_at_the_exact_maximum(self):
        # Bucket 9 reports about 1.185; its values may all be smaller.
        assert sketch_ranks({9: 3}, (0.5, 1.0), 1.18) == [1.18, 1.18]

    def test_merge_adds_counts_and_leaves_inputs_alone(self):
        first, second = {1: 2, ZERO_BUCKET: 1}, {1: 3, 4: 1}
        assert merge_sketches([first, second, {}]) == {1: 5, 4: 1, ZERO_BUCKET: 1}
        assert first == {1: 2, ZERO_BUCKET: 1} and second == {1: 3, 4: 1}
        assert merge_sketches([]) == {}

    def test_empty_sketch_reports_zeros_and_bad_fraction_raises(self):
        assert sketch_ranks({}, STANDARD_FRACTIONS, 0.0) == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            sketch_ranks({0: 1}, (1.5,), 1.0)
