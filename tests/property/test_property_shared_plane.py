"""Property-based equivalence of the shared multi-query plane.

The acceptance property of the query-group refactor: for *any* mix of
queries sharing a window shape ``(n, s)`` — arbitrary result sizes ``k``,
arbitrary member counts, arbitrary streams — the shared plane produces
result sequences identical to running every query on its own independent
engine.  Checked for SAP, k-skyband and MinTopK, whose plans each run one
shared algorithm core at ``k_max``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StreamEngine, TopKQuery
from repro.engine import group_key_for
from repro.registry import create_algorithm

from ..conftest import make_objects

SHARING_ALGORITHMS = ("SAP", "k-skyband", "MinTopK")

scores_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-50, max_value=50).map(float),
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    ),
    min_size=40,
    max_size=160,
)

shape_strategy = st.tuples(
    st.integers(min_value=5, max_value=30),   # n
    st.integers(min_value=1, max_value=10),   # s
)

#: 2–5 queries per mix, each with its own k.
k_mix_strategy = st.lists(
    st.integers(min_value=1, max_value=12), min_size=2, max_size=5
)


def _identical(left, right):
    """Byte-identical result sequences: same windows, same ordered answers."""
    if len(left) != len(right):
        return False
    return all(
        a.slide_index == b.slide_index
        and a.window_end == b.window_end
        and a.identity() == b.identity()
        for a, b in zip(left, right)
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scores=scores_strategy, shape=shape_strategy, k_mix=k_mix_strategy)
def test_shared_plane_equals_independent_engines(scores, shape, k_mix):
    n, s = shape
    s = min(s, n)
    objects = make_objects(scores)
    queries = [TopKQuery(n=n, k=min(k, n), s=s) for k in k_mix]

    for algorithm in SHARING_ALGORITHMS:
        shared_engine = StreamEngine()
        for index, query in enumerate(queries):
            shared_engine.subscribe(f"q{index}", query, algorithm=algorithm)
        shared_engine.push_many(objects)
        shared_engine.flush()

        # One group, one plan: the mix genuinely went through the plane.
        groups = shared_engine.groups()
        assert len(groups) == 1
        assert [plan["kind"] for plan in groups[0]["plans"]] == [algorithm]

        for index, query in enumerate(queries):
            independent = StreamEngine()
            independent.subscribe("solo", query, algorithm=algorithm)
            independent.push_many(objects)
            independent.flush()
            assert _identical(
                shared_engine.results(f"q{index}"), independent.results("solo")
            ), (algorithm, query.describe())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scores=scores_strategy, shape=shape_strategy, k_mix=k_mix_strategy)
def test_mixed_algorithm_group_stays_exact(scores, shape, k_mix):
    """All three sharing algorithms in one group agree with brute force."""
    n, s = shape
    s = min(s, n)
    objects = make_objects(scores)
    ks = [min(k, n) for k in k_mix]

    engine = StreamEngine()
    for index, k in enumerate(ks):
        algorithm = SHARING_ALGORITHMS[index % len(SHARING_ALGORITHMS)]
        engine.subscribe(f"q{index}", TopKQuery(n=n, k=k, s=s), algorithm=algorithm)
    engine.push_many(objects)

    assert len({group_key_for(TopKQuery(n=n, k=k, s=s)) for k in ks}) == 1
    for index, k in enumerate(ks):
        reference = create_algorithm("brute-force", TopKQuery(n=n, k=k, s=s)).run(objects)
        assert _identical(engine.results(f"q{index}"), reference), (index, k)
