"""Property: the partitioners' array statistics equal their scalar forms.

The rank-sum test runs over numpy and TBUI observes a whole slice at a
time; the scalar versions they replaced live on here as oracles.  Samples
and streams are tie-heavy (small integer ranges), where mid-ranks and
threshold ties matter most.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.partitioning.tbui import TBUIState
from repro.stats import mannwhitney
from repro.stats.mannwhitney import rank_sum, rank_sum_test


def scalar_rank_sum(sample1, sample2):
    """Mid-rank sums by a walk over the pooled, sorted sample."""
    pooled = [(value, 0) for value in sample1] + [(value, 1) for value in sample2]
    pooled.sort(key=lambda pair: pair[0])
    ranks = [0.0] * len(pooled)
    index = 0
    while index < len(pooled):
        tail = index
        while tail + 1 < len(pooled) and pooled[tail + 1][0] == pooled[index][0]:
            tail += 1
        for position in range(index, tail + 1):
            ranks[position] = (index + tail) / 2.0 + 1.0
        index = tail + 1
    r1 = sum(rank for rank, (_, origin) in zip(ranks, pooled) if origin == 0)
    r2 = sum(rank for rank, (_, origin) in zip(ranks, pooled) if origin == 1)
    return r1, r2


def scalar_observe(state, score):
    """Lines 3-9 of Algorithm 2 for one arrival."""
    if score >= state.tau:
        state._above.append(score)
    if state.initializing and len(state._above) == 2 * state.zeta_star:
        state._refresh()
    elif not state.initializing and len(state._above) > max(2 * state.zeta_star, state.zeta_max):
        state._refresh()
        state.initializing = True


def _snapshot(state):
    return (state.tau, state.above_count, state.refresh_count, state.initializing)


values = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    sample1=st.lists(values, min_size=1, max_size=40),
    sample2=st.lists(values, min_size=1, max_size=60),
)
def test_rank_sum_matches_scalar_mid_ranks(sample1, sample2):
    r1, r2 = rank_sum(sample1, sample2)
    assert (r1, r2) == scalar_rank_sum(sample1, sample2)
    outcome = rank_sum_test(sample1, sample2)
    with mock.patch.object(mannwhitney, "rank_sum", scalar_rank_sum):
        assert rank_sum_test(sample1, sample2) == outcome


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    k=st.integers(min_value=1, max_value=12),
    units=st.lists(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9).map(float), max_size=40),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_slice_tbui_matches_per_object_tbui(k, units):
    sliced, scalar = TBUIState(k), TBUIState(k)
    for unit in units:
        for piece in unit:
            sliced.observe_slice(piece)
            for score in piece:
                scalar_observe(scalar, score)
            assert _snapshot(sliced) == _snapshot(scalar)
            assert sliced._above == scalar._above
        assert sliced.complete_unit() == scalar.complete_unit()
        assert _snapshot(sliced) == _snapshot(scalar)
