"""Unit tests for the TBUI threshold / k-unit identification state machine."""

import math
import random

import pytest

from repro.partitioning.tbui import TBUIState
from repro.stats.solvers import zeta_star


class TestInitialisation:
    def test_initial_state(self):
        state = TBUIState(k=5)
        assert state.tau == -math.inf
        assert state.initializing
        assert state.above_count == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TBUIState(k=0)

    def test_threshold_set_after_enough_observations(self):
        state = TBUIState(k=3)
        needed = 2 * state.zeta_star
        for i in range(needed):
            state.observe_slice([float(i)])
        assert state.tau > -math.inf
        # Only the scores above the new threshold remain buffered.
        assert state.above_count <= state.zeta_star


class TestUnitCompletion:
    def test_unit_with_many_high_scores_reports_count_at_least_k(self):
        state = TBUIState(k=3)
        for i in range(3 * state.zeta_star):
            state.observe_slice([100.0 + i])
        count = state.complete_unit()
        assert count >= state.k
        assert not state.initializing

    def test_downtrend_resets_threshold(self):
        state = TBUIState(k=3)
        # First unit: high scores establish a high threshold.
        for i in range(3 * state.zeta_star):
            state.observe_slice([100.0 + i])
        state.complete_unit()
        tau_after_first = state.tau
        assert tau_after_first > -math.inf
        # Second unit: scores collapse, almost nothing exceeds tau.
        for i in range(50):
            state.observe_slice([1.0 + 0.01 * i])
        count = state.complete_unit()
        assert count < state.k
        assert state.initializing
        assert state.tau == -math.inf

    def test_buffer_resets_between_units(self):
        state = TBUIState(k=2)
        for i in range(10):
            state.observe_slice([float(i)])
        state.complete_unit()
        assert state.above_count == 0

    def test_uptrend_refreshes_threshold_mid_unit(self):
        state = TBUIState(k=2)
        # Establish the threshold with a first unit.
        for i in range(2 * state.zeta_star):
            state.observe_slice([10.0 + i])
        state.complete_unit()
        refreshes_before = state.refresh_count
        # A strong uptrend floods the buffer past max(2ζ*, ζ_max).
        for i in range(3 * max(2 * state.zeta_star, state.zeta_max)):
            state.observe_slice([1000.0 + i])
        assert state.refresh_count > refreshes_before


class TestStatisticalBehaviour:
    def test_stable_distribution_keeps_units_above_k(self):
        """Theorem 3: with similar score distributions, each unit has at
        least k (and fewer than ζ_max) objects above the threshold with very
        high probability."""
        rng = random.Random(5)
        state = TBUIState(k=5)
        unit_size = 500
        counts = []
        for _ in range(8):
            for _ in range(unit_size):
                state.observe_slice([rng.uniform(0, 100)])
            counts.append(state.complete_unit())
        # Skip the first unit (threshold initialisation happens inside it).
        assert all(count >= state.k for count in counts[1:])
        assert all(count <= 3 * state.zeta_max for count in counts[1:])

    def test_zeta_star_consistency(self):
        state = TBUIState(k=10)
        assert state.zeta_star == zeta_star(10)
        assert state.zeta_max > state.zeta_star
