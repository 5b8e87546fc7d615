"""Property-based tests: exactness of every algorithm on arbitrary streams."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BruteForceTopK,
    KSkybandTopK,
    MinTopK,
    SAPTopK,
    SMATopK,
    StreamObject,
    TopKQuery,
)
from repro.partitioning import (
    DynamicPartitioner,
    EnhancedDynamicPartitioner,
    EqualPartitioner,
)

from ..conftest import assert_all_agree, make_objects

# A compact but adversarial universe: short windows, small slides, scores
# with plenty of ties and both signs.
scores_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-50, max_value=50).map(float),
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    ),
    min_size=30,
    max_size=160,
)

query_strategy = st.tuples(
    st.integers(min_value=5, max_value=30),   # n
    st.integers(min_value=1, max_value=8),    # k
    st.integers(min_value=1, max_value=10),   # s
)


def _valid_query(params):
    n, k, s = params
    return TopKQuery(n=n, k=min(k, n), s=min(s, n))


class _CheckedSAP(SAPTopK):
    """SAP that validates its bookkeeping after every slide."""

    def process_slide(self, event):
        result = super().process_slide(event)
        self.check_invariants()
        return result


#: Every SAP configuration, including what the shared engine-fleet plans
#: run (``SAP-dynamic`` is the plain dynamic partitioner).
SAP_VARIANTS = [
    lambda q: _CheckedSAP(q, partitioner=EqualPartitioner()),
    lambda q: _CheckedSAP(q, partitioner=EnhancedDynamicPartitioner()),
    lambda q: _CheckedSAP(q, partitioner=DynamicPartitioner()),
    lambda q: _CheckedSAP(q, meaningful_policy="eager"),
    lambda q: _CheckedSAP(q, use_savl=False),
    lambda q: _CheckedSAP(q, partitioner=DynamicPartitioner(), meaningful_policy="amortized"),
    lambda q: _CheckedSAP(q, partitioner=EqualPartitioner(), meaningful_policy="amortized"),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scores=scores_strategy, params=query_strategy)
def test_sap_variants_match_brute_force(scores, params):
    query = _valid_query(params)
    objects = make_objects(scores)
    assert_all_agree([BruteForceTopK] + SAP_VARIANTS, objects, query)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scores=scores_strategy,
    params=query_strategy,
    steps=st.lists(st.integers(min_value=0, max_value=3), min_size=160, max_size=160),
)
def test_time_based_sap_variants_match_brute_force(scores, params, steps):
    # Timestamps advance by 0-3 per object, so many objects tie.
    n, k, s = params
    query = TopKQuery(n=n, k=k, s=min(s, n), time_based=True)
    objects, stamp = [], 0
    for t, (score, step) in enumerate(zip(scores, steps)):
        stamp += step
        objects.append(StreamObject(score=float(score), t=t, timestamp=stamp))
    assert_all_agree([BruteForceTopK] + SAP_VARIANTS, objects, query)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scores=scores_strategy, params=query_strategy)
def test_baselines_match_brute_force(scores, params):
    query = _valid_query(params)
    objects = make_objects(scores)
    assert_all_agree([BruteForceTopK, MinTopK, KSkybandTopK, SMATopK], objects, query)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scores=scores_strategy, params=query_strategy)
def test_results_are_sorted_and_distinct(scores, params):
    query = _valid_query(params)
    objects = make_objects(scores)
    sap = SAPTopK(query)
    for result in sap.run(objects):
        keys = [o.rank_key for o in result]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)
        assert len(result) <= query.k
