"""Property-based exactness of the preference-clustering plane.

The acceptance property of the cross-function sharing tentpole: for
*any* cluster of preference vectors, any attribute stream, and any
window shape, a member answered through the padded-k shared plan is
byte-identical to an independent engine fed the stream pre-scored with
that member's own vector — whenever the exactness guard holds the
answer came from the shared candidate re-rank, and when it does not the
fallback scan restores exactness, so the equality holds *unconditionally*
(the counters just say which path paid for it).  Checked over both
shipped inner cores (SAP and MinTopK), including mid-stream vector
drift past the cluster envelope.

``REPRO_CLUSTERING_EXAMPLES`` raises both properties' example counts
(CI runs them high).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QuerySpec, StreamEngine, TopKQuery
from repro.core.clustering import linear_scores
from repro.core.object import StreamObject

INNER_CORES = ("SAP", "MinTopK")

EXAMPLES = os.environ.get("REPRO_CLUSTERING_EXAMPLES")

DIM = 3

attribute_stream = st.lists(
    st.tuples(
        *[
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
            for _ in range(DIM)
        ]
    ),
    min_size=40,
    max_size=110,
)

#: A cluster of similar tastes: one base direction, small member bumps.
cluster_vectors = st.tuples(
    st.tuples(
        *[st.floats(min_value=0.1, max_value=2.0, allow_nan=False) for _ in range(DIM)]
    ),
    st.lists(
        st.tuples(
            *[
                st.floats(min_value=0.8, max_value=1.2, allow_nan=False)
                for _ in range(DIM)
            ]
        ),
        min_size=2,
        max_size=4,
    ),
).map(
    lambda base_bumps: [
        tuple(w * b for w, b in zip(base_bumps[0], bumps))
        for bumps in base_bumps[1]
    ]
)

shape_strategy = st.tuples(
    st.integers(min_value=6, max_value=24),  # n
    st.integers(min_value=1, max_value=8),   # s
    st.integers(min_value=1, max_value=6),   # k
)


def _attribute_objects(rows, start_t=0):
    return [
        StreamObject(score=0.0, t=start_t + index, payload={"attributes": list(row)})
        for index, row in enumerate(rows)
    ]


def _prescored_objects(vector, rows, start_t=0):
    """The independent-engine view: the stream scored with one vector."""
    scores = linear_scores(vector, [tuple(row) for row in rows])
    return [
        StreamObject(score=score, t=start_t + index, payload={"attributes": list(row)})
        for index, (row, score) in enumerate(zip(rows, scores))
    ]


def _identical(left, right):
    if len(left) != len(right):
        return False
    return all(
        a.slide_index == b.slide_index
        and a.window_end == b.window_end
        and a.identity() == b.identity()
        for a, b in zip(left, right)
    )


def _reference_results(vector, rows, query, inner):
    engine = StreamEngine()
    engine.subscribe("solo", query, algorithm=inner)
    engine.push_many(_prescored_objects(vector, rows))
    results = engine.results("solo")
    engine.close()
    return results


def _member_spec(query, inner, vector):
    """A cluster member over ``query``'s window.  The cluster id is pinned:
    the property is about the shared plan's exactness, not the assignment
    heuristic."""
    return (
        QuerySpec(n=query.n, k=query.k, s=query.s)
        .using(inner)
        .preferring(vector, cluster_id=0)
    )


@settings(max_examples=int(EXAMPLES or 30), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=attribute_stream, vectors=cluster_vectors, shape=shape_strategy)
def test_clustered_members_equal_independent_engines(rows, vectors, shape):
    n, s, k = shape
    s = min(s, n)
    query = TopKQuery(n=n, k=min(k, n), s=s)

    for inner in INNER_CORES:
        engine = StreamEngine()
        for index, vector in enumerate(vectors):
            engine.subscribe(f"m{index}", _member_spec(query, inner, vector))
        engine.push_many(_attribute_objects(rows))

        # The members really did share one cluster plan.
        plans = [plan for group in engine.groups() for plan in group["plans"]]
        assert [plan["kind"] for plan in plans] == ["cluster"], plans
        assert plans[0]["inner"] == inner

        for index, vector in enumerate(vectors):
            assert _identical(
                engine.results(f"m{index}"),
                _reference_results(vector, rows, query, inner),
            ), (inner, index, vector)
        engine.close()


@settings(max_examples=int(EXAMPLES or 25), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=attribute_stream,
    vectors=cluster_vectors,
    shape=shape_strategy,
    scale=st.floats(min_value=2.0, max_value=5.0, allow_nan=False),
    split=st.floats(min_value=0.2, max_value=0.8),
)
def test_drifted_member_falls_back_exactly(rows, vectors, shape, scale, split):
    """A mid-stream update past the envelope stays exact via the scan.

    The drifted member's expected output is the old vector's reference
    up to the update boundary and the new vector's reference after it —
    slide boundaries are deterministic, so the two reference runs line
    up by slide index.
    """
    n, s, k = shape
    s = min(s, n)
    query = TopKQuery(n=n, k=min(k, n), s=s)
    cut = max(1, int(len(rows) * split))
    # Scaling one member far above the others guarantees the new vector
    # escapes the envelope (elementwise max of the originals).
    drifted_vector = tuple(w * scale for w in vectors[0])

    for inner in INNER_CORES:
        engine = StreamEngine()
        for index, vector in enumerate(vectors):
            engine.subscribe(f"m{index}", _member_spec(query, inner, vector))
        objects = _attribute_objects(rows)
        engine.push_many(objects[:cut])
        results_before = len(engine.results("m0"))
        record = engine.update_preference("m0", drifted_vector)
        assert record["drifted"], record
        assert record["mode"] == "drifted"
        engine.push_many(objects[cut:])

        old_reference = _reference_results(vectors[0], rows, query, inner)
        new_reference = _reference_results(drifted_vector, rows, query, inner)
        expected = old_reference[:results_before] + new_reference[results_before:]
        assert _identical(engine.results("m0"), expected), (inner, results_before)

        # The divergence is *counted*, not silent: once drifted, every
        # answer of that member is a fallback.
        plans = [plan for group in engine.groups() for plan in group["plans"]]
        answers_after = len(engine.results("m0")) - results_before
        if answers_after:
            assert plans[0]["fallbacks"] >= answers_after

        # The other members stay exact through the shared plan.
        for index, vector in enumerate(vectors[1:], start=1):
            assert _identical(
                engine.results(f"m{index}"),
                _reference_results(vector, rows, query, inner),
            ), (inner, index)
        engine.close()
