"""Unit tests for the preference-clustering primitives.

The shared-plan exactness itself is property-tested in
``tests/property/test_property_clustering.py``; these tests pin the
building blocks — vector validation, envelope/dominance maths, k_pad
sizing, the greedy cluster space, the canonical scorer — and the
engine-facing behaviours (plan formation, modes, drift counters,
sharded round-trips) with small deterministic cases.
"""

import pytest

from repro import QuerySpec, StreamEngine
from repro.core.clustering import (
    DEFAULT_PAD_FACTOR,
    DEFAULT_SIMILARITY,
    UNATTRIBUTED_SCORE,
    ClusterSpace,
    attributes_of,
    attributes_of_payload,
    dominated_by,
    k_pad_for,
    linear_score,
    linear_scores,
    upper_envelope,
    validate_vector,
)
from repro.core.exceptions import InvalidQueryError
from repro.core.object import StreamObject, top_k


class TestValidateVector:
    def test_normalises_to_float_tuple(self):
        assert validate_vector([1, 0, 2]) == (1.0, 0.0, 2.0)

    @pytest.mark.parametrize(
        "bad",
        [[], [float("nan")], [float("inf")], [-0.5, 1.0], [0.0, 0.0], ["x", 1.0]],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidQueryError):
            validate_vector(bad)


class TestEnvelope:
    def test_elementwise_max(self):
        assert upper_envelope([(1.0, 5.0), (3.0, 2.0)]) == (3.0, 5.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidQueryError):
            upper_envelope([(1.0,), (1.0, 2.0)])

    def test_dominance(self):
        envelope = (2.0, 3.0)
        assert dominated_by((2.0, 3.0), envelope)
        assert dominated_by((0.5, 1.0), envelope)
        assert not dominated_by((2.1, 0.0), envelope)

    def test_dominance_bound_holds_for_nonnegative_attributes(self):
        members = [(1.0, 0.2, 0.0), (0.8, 0.5, 0.1)]
        envelope = upper_envelope(members)
        attrs = (4.0, 7.0, 11.0)
        for member in members:
            assert linear_score(member, attrs) <= linear_score(envelope, attrs)


class TestKPad:
    def test_padded_above_k_max(self):
        assert k_pad_for(10, 1000, DEFAULT_PAD_FACTOR) == 40

    def test_at_least_k_plus_one(self):
        assert k_pad_for(10, 1000, 1.0) == 11

    def test_capped_by_window(self):
        assert k_pad_for(10, 25, DEFAULT_PAD_FACTOR) == 25


class TestLinearScores:
    def test_missing_rows_price_at_unattributed(self):
        scores = linear_scores((1.0, 1.0), [(1.0, 2.0), None, (0.0, 3.0)])
        assert scores == [3.0, UNATTRIBUTED_SCORE, 3.0]

    def test_batch_size_never_changes_a_score(self):
        # The byte-identity cornerstone: scoring a row alone and scoring
        # it inside any batch produce the same float.
        weights = (0.3, 1.7, 0.01, 2.2)
        rows = [
            tuple(float(i * j + j) for j in range(1, 5)) for i in range(50)
        ]
        batch = linear_scores(weights, rows)
        for row, expected in zip(rows, batch):
            assert linear_scores(weights, [row])[0] == expected

    def test_attributes_of_shapes(self):
        assert attributes_of(
            StreamObject(score=0.0, t=0, payload={"attributes": [1, 2]}), 2
        ) == (1.0, 2.0)
        assert attributes_of(
            StreamObject(score=0.0, t=0, payload=(3.0, 4.0)), 2
        ) == (3.0, 4.0)
        assert attributes_of(StreamObject(score=0.0, t=0, payload=None), 2) is None
        assert attributes_of(StreamObject(score=0.0, t=0, payload=(1.0,)), 2) is None


class TestClusterSpace:
    def test_similar_vectors_share_a_cluster(self):
        space = ClusterSpace()
        first = space.assign((1.0, 0.2, 0.0))
        second = space.assign((0.98, 0.21, 0.0))
        assert first == second

    def test_distinct_tastes_split(self):
        space = ClusterSpace()
        assert space.assign((1.0, 0.0)) != space.assign((0.0, 1.0))

    def test_assignment_deterministic_in_arrival_order(self):
        vectors = [(1.0, 0.1), (0.1, 1.0), (0.99, 0.11), (0.11, 0.99)]
        left = ClusterSpace()
        right = ClusterSpace()
        assert [left.assign(v) for v in vectors] == [right.assign(v) for v in vectors]

    def test_threshold_is_tight_for_positive_orthant(self):
        # Unrelated positive tastes measure ~0.9 cosine; the default must
        # keep them apart or every envelope goes slack.
        assert DEFAULT_SIMILARITY >= 0.99
        space = ClusterSpace()
        assert space.assign((1.0, 0.5)) != space.assign((0.5, 1.0))


def _attribute_objects(rows, start_t=0):
    return [
        StreamObject(score=0.0, t=start_t + i, payload={"attributes": list(row)})
        for i, row in enumerate(rows)
    ]


ROWS = [
    (float((7 * i) % 23), float((5 * i) % 17), float(i % 11)) for i in range(90)
]


class TestEngineIntegration:
    def test_two_members_form_a_cluster_plan(self):
        engine = StreamEngine()
        engine.subscribe("a", QuerySpec(n=12, k=3, s=4).preferring((1.0, 0.2, 0.0)))
        engine.subscribe("b", QuerySpec(n=12, k=3, s=4).preferring((0.99, 0.21, 0.0)))
        engine.push_many(_attribute_objects(ROWS))
        plans = [p for g in engine.groups() for p in g["plans"]]
        assert [p["kind"] for p in plans] == ["cluster"]
        assert plans[0]["k_pad"] == min(12, 4 * 3)
        snapshot = engine.subscription("a").snapshot()
        assert snapshot["cluster"]["mode"] == "shared"
        engine.close()

    def test_lone_member_runs_private(self):
        engine = StreamEngine()
        engine.subscribe("solo", QuerySpec(n=12, k=3, s=4).preferring((1.0, 0.2, 0.0)))
        engine.push_many(_attribute_objects(ROWS))
        assert engine.subscription("solo").snapshot()["cluster"]["mode"] == "private"
        assert not [p for g in engine.groups() for p in g["plans"]]
        engine.close()

    def test_unattributed_objects_sort_last_not_crash(self):
        engine = StreamEngine()
        engine.subscribe("a", QuerySpec(n=6, k=2, s=3).preferring((1.0, 1.0, 1.0)))
        engine.subscribe("b", QuerySpec(n=6, k=2, s=3).preferring((1.0, 0.99, 1.0)))
        mixed = _attribute_objects(ROWS[:30])
        mixed[7] = StreamObject(score=0.0, t=7, payload=None)  # no attributes
        engine.push_many(mixed)
        for name in ("a", "b"):
            for result in engine.results(name):
                assert all(obj.score > UNATTRIBUTED_SCORE for obj in result.objects)
        engine.close()

    @pytest.mark.parametrize("shared", [False, True])
    def test_non_finite_attributes_are_unattributed(self, shared):
        """``(x, inf)`` under ``(1, 0)`` once scored ``0 * inf = nan``, and
        that NaN led the member's top-5.  A non-finite attribute makes
        the object unattributed on every scoring path."""
        rows = [(float(i % 13), float(i % 7)) for i in range(40)]
        rows[12] = (50.0, float("inf"))
        rows[20] = (60.0, float("-inf"))
        rows[28] = (70.0, float("nan"))
        assert attributes_of_payload({"attributes": rows[12]}, 2) is None
        n, k, s = 10, 5, 5
        engine = StreamEngine()
        engine.subscribe("w", QuerySpec(n=n, k=k, s=s).preferring((1.0, 0.0)))
        if shared:
            engine.subscribe("v", QuerySpec(n=n, k=k, s=s).preferring((0.999, 0.0)))
        engine.push_many(_attribute_objects(rows))
        assert engine.subscription("w").snapshot()["cluster"]["mode"] == (
            "shared" if shared else "private"
        )
        scored = [
            StreamObject(score=score, t=t)
            for t, score in enumerate(
                linear_scores((1.0, 0.0), [attributes_of_payload(r, 2) for r in rows])
            )
        ]
        expected = [
            [(o.score, o.t) for o in top_k(scored[end - n + 1 : end + 1], k)]
            for end in range(n - 1, len(rows), s)
        ]
        answers = [[(o.score, o.t) for o in r.objects] for r in engine.results("w")]
        assert answers == expected
        engine.close()

    def test_update_preference_inside_envelope_stays_shared(self):
        engine = StreamEngine()
        engine.subscribe("a", QuerySpec(n=12, k=3, s=4).preferring((1.0, 0.5, 0.0), cluster_id=0))
        engine.subscribe("b", QuerySpec(n=12, k=3, s=4).preferring((0.5, 1.0, 0.0), cluster_id=0))
        engine.push_many(_attribute_objects(ROWS[:40]))
        record = engine.update_preference("a", (0.8, 0.8, 0.0))  # under the envelope
        assert record["mode"] == "shared"
        assert not record["drifted"]
        engine.push_many(_attribute_objects(ROWS[40:], start_t=40))
        engine.close()

    def test_update_preference_outside_envelope_counts_drift(self):
        engine = StreamEngine()
        engine.subscribe("a", QuerySpec(n=12, k=3, s=4).preferring((1.0, 0.5, 0.0), cluster_id=0))
        engine.subscribe("b", QuerySpec(n=12, k=3, s=4).preferring((0.5, 1.0, 0.0), cluster_id=0))
        engine.push_many(_attribute_objects(ROWS[:40]))
        record = engine.update_preference("a", (3.0, 3.0, 3.0))
        assert record["mode"] == "drifted"
        engine.push_many(_attribute_objects(ROWS[40:], start_t=40))
        plans = [p for g in engine.groups() for p in g["plans"]]
        assert plans[0]["fallbacks"] > 0
        engine.close()

    def test_dimension_change_rejected(self):
        engine = StreamEngine()
        engine.subscribe("a", QuerySpec(n=12, k=3, s=4).preferring((1.0, 0.5)))
        with pytest.raises(InvalidQueryError):
            engine.update_preference("a", (1.0, 0.5, 0.2))
        engine.close()


class TestShardedIntegration:
    def test_preference_subscriptions_round_trip(self):
        from repro.cluster import ShardedStreamEngine

        local = StreamEngine()
        sharded = ShardedStreamEngine(shards=2, placement="hash-window")
        try:
            vectors = {
                "a": (1.0, 0.2, 0.0),
                "b": (0.99, 0.21, 0.0),
                "c": (0.0, 0.3, 1.0),
                "d": (0.0, 0.29, 0.98),
            }
            for name, vector in vectors.items():
                local.subscribe(name, QuerySpec(n=12, k=3, s=4).preferring(vector))
                sharded.subscribe(name, QuerySpec(n=12, k=3, s=4).preferring(vector))
            objects = _attribute_objects(ROWS)
            local.push_many(objects)
            sharded.push_many(objects)
            for name in vectors:
                left = local.results(name)
                right = sharded.results(name)
                assert [r.identity() for r in left] == [r.identity() for r in right]
                assert sharded.snapshot()[name]["cluster"]["mode"] == "shared"
        finally:
            local.close()
            sharded.close()
