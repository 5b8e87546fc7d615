"""Unit tests for the fluent QuerySpec builder."""

import pytest

from repro import StreamEngine, StreamObject
from repro.core.exceptions import InvalidQueryError
from repro.core.framework import SAPTopK
from repro.core.query import TopKQuery
from repro.engine.group import QueryGroup
from repro.engine.spec import QuerySpec, resolve_query
from repro.engine.subscription import Subscription


class TestBuild:
    def test_fluent_chain_builds_query(self):
        query = QuerySpec().window(100).top(5).slide(10).build()
        assert (query.n, query.k, query.s) == (100, 5, 10)
        assert not query.time_based

    def test_constructor_arguments_equivalent_to_fluent(self):
        assert QuerySpec(n=100, k=5, s=10).build() == QuerySpec().window(100).top(5).slide(10).build()

    def test_default_slide_is_one(self):
        assert QuerySpec(n=10, k=2).build().s == 1

    def test_over_time_marks_time_based(self):
        assert QuerySpec(n=600, k=10, s=60).over_time().build().time_based
        assert not QuerySpec(n=600, k=10, s=60).over_time().over_count().build().time_based

    def test_missing_window_rejected(self):
        with pytest.raises(InvalidQueryError, match="window"):
            QuerySpec().top(5).build()

    def test_missing_k_rejected(self):
        with pytest.raises(InvalidQueryError, match="result size"):
            QuerySpec().window(100).build()

    def test_invalid_combination_rejected_at_build(self):
        with pytest.raises(InvalidQueryError):
            QuerySpec(n=10, k=2, s=50).build()  # s > n

    def test_from_query_round_trip(self):
        query = TopKQuery(n=80, k=4, s=8)
        assert QuerySpec.from_query(query).build() == query


class TestResolveQuery:
    def test_accepts_query_and_spec(self):
        query = TopKQuery(n=50, k=3, s=5)
        assert resolve_query(query) is query
        assert resolve_query(QuerySpec(n=50, k=3, s=5)) == query

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_query({"n": 50, "k": 3})


class TestExecutionPlan:
    def test_plain_spec_defaults_to_sap(self):
        assert QuerySpec(n=10, k=2).execution_plan() == ("SAP", {})

    def test_using_carries_algorithm_and_options(self):
        algorithm, options = (
            QuerySpec(n=10, k=2).using("MinTopK", prune=True).execution_plan()
        )
        assert algorithm == "MinTopK"
        assert options == {"prune": True}

    def test_preferring_folds_into_clustered_wrapper(self):
        algorithm, options = (
            QuerySpec(n=10, k=2)
            .using("MinTopK")
            .preferring((2.0, 1.0), cluster_id=3, pad_factor=1.5)
            .execution_plan()
        )
        assert algorithm == "clustered"
        assert options["vector"] == (2.0, 1.0)
        assert options["inner"] == "MinTopK"
        assert options["cluster_id"] == 3
        assert options["pad_factor"] == 1.5

    def test_unpinned_cluster_id_left_to_the_engine(self):
        _, options = QuerySpec(n=10, k=2).preferring((1.0, 1.0)).execution_plan()
        assert "cluster_id" not in options

    def test_carries_execution(self):
        assert not QuerySpec(n=10, k=2).carries_execution()
        assert QuerySpec(n=10, k=2).using("SAP").carries_execution()
        assert QuerySpec(n=10, k=2).preferring((1.0,)).carries_execution()


class TestValidate:
    def _pref_error(self):
        from repro.streams.preference import PreferenceError

        return PreferenceError

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidQueryError, match="unknown algorithm"):
            QuerySpec(n=10, k=2).using("NotAnAlgorithm").validate()

    def test_clustered_without_vector_rejected(self):
        with pytest.raises(self._pref_error(), match="preference vector"):
            QuerySpec(n=10, k=2).using("clustered").validate()

    def test_clustered_with_vector_rejected(self):
        # "clustered" is the wrapper itself, never a valid inner name
        with pytest.raises(self._pref_error(), match="inner"):
            QuerySpec(n=10, k=2).using("clustered").preferring((1.0,)).validate()

    def test_cluster_id_without_vector_rejected(self):
        with pytest.raises(self._pref_error(), match="cluster_id"):
            QuerySpec(n=10, k=2, cluster_id=1).validate()


class TestWireForm:
    """from_dict is the single REST body validator behind
    ``POST /v1/subscriptions``; to_dict is its inverse."""

    def test_minimal_body(self):
        spec = QuerySpec.from_dict({"n": 100, "k": 5})
        query = spec.build()
        assert (query.n, query.k, query.s) == (100, 5, 1)

    def test_name_key_tolerated(self):
        # the serving layer passes the whole body; "name" is its key
        QuerySpec.from_dict({"name": "x", "n": 10, "k": 2})

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidQueryError, match="bogus"):
            QuerySpec.from_dict({"n": 10, "k": 2, "bogus": 1})

    def test_missing_required_key_rejected(self):
        with pytest.raises(InvalidQueryError, match="'k'"):
            QuerySpec.from_dict({"n": 10})

    def test_non_numeric_shape_rejected(self):
        with pytest.raises(InvalidQueryError):
            QuerySpec.from_dict({"n": "ten", "k": 2})

    @pytest.mark.parametrize(
        "body",
        [
            {"n": float("inf"), "k": 2},
            {"n": 10, "k": float("nan")},
            {"n": 10, "k": 2, "s": float("inf")},
            {"n": 10, "k": 2, "preference": [1.0], "cluster_id": float("inf")},
        ],
    )
    def test_non_finite_numbers_rejected(self, body):
        with pytest.raises(InvalidQueryError):
            QuerySpec.from_dict(body)

    @pytest.mark.parametrize(
        "body",
        [
            {"n": 10.9, "k": 2.5, "s": 1.7},
            {"n": 10, "k": 2.5},
            {"n": 10, "k": 2, "s": 1.7},
            {"n": True, "k": 2},
            {"n": 10, "k": False},
            {"n": 10, "k": 2, "s": True},
            {"n": 10, "k": 2, "s": "5"},
            {"n": 10, "k": 2, "preference": [1.0], "cluster_id": 1.5},
            {"n": 10, "k": 2, "preference": [1.0], "cluster_id": True},
        ],
    )
    def test_non_integral_or_boolean_shape_rejected(self, body):
        """``int()`` once turned ``{"n": 10.9, "k": 2.5, "s": 1.7}`` into
        n=10, k=2, s=1 without a word."""
        with pytest.raises(InvalidQueryError, match="must be an integer"):
            QuerySpec.from_dict(body)

    def test_integral_floats_accepted(self):
        spec = QuerySpec.from_dict({"n": 10.0, "k": 2.0, "s": 5.0})
        assert spec.to_dict()["n"] == 10 and type(spec.build().n) is int

    @pytest.mark.parametrize("pad_factor", [float("inf"), float("nan"), 0.5])
    def test_pad_factor_must_be_finite_and_at_least_one(self, pad_factor):
        from repro.streams.preference import PreferenceError

        body = {"n": 10, "k": 2, "preference": [1.0], "pad_factor": pad_factor}
        with pytest.raises(PreferenceError, match="pad_factor"):
            QuerySpec.from_dict(body)

    def test_default_algorithm_applies(self):
        spec = QuerySpec.from_dict({"n": 10, "k": 2}, default_algorithm="MinTopK")
        assert spec.execution_plan()[0] == "MinTopK"

    def test_preference_must_be_an_array(self):
        from repro.streams.preference import PreferenceError

        with pytest.raises(PreferenceError, match="array of weights"):
            QuerySpec.from_dict({"n": 10, "k": 2, "preference": "nope"})

    def test_clustered_wire_algorithm_names_default_inner(self):
        # legacy wire behaviour: algorithm "clustered" + a preference
        # means "the sharing wrapper around the default inner core"
        spec = QuerySpec.from_dict(
            {"n": 10, "k": 2, "preference": [1.0, 0.5], "algorithm": "clustered"},
            default_algorithm="MinTopK",
        )
        algorithm, options = spec.execution_plan()
        assert algorithm == "clustered"
        assert options["inner"] == "MinTopK"

    def test_to_dict_from_dict_round_trip(self):
        spec = QuerySpec.from_dict(
            {
                "n": 40,
                "k": 4,
                "s": 8,
                "algorithm": "MinTopK",
                "preference": [1.0, 0.25],
                "pad_factor": 1.2,
            }
        )
        assert QuerySpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestLegacyShims:
    def test_spec_with_execution_rejects_algorithm_argument(self):
        from repro.engine import StreamEngine

        engine = StreamEngine()
        with pytest.raises(ValueError, match="already declares its execution"):
            engine.subscribe(
                "q", QuerySpec(n=10, k=2).using("MinTopK"), "SMA"
            )


class TestUnhashablePlanKey:
    """Options that leave a plan key unhashable are refused at subscribe:
    no engine, cluster or log ever holds the query, and the group it would
    have joined keeps answering."""

    BODY = {"n": 10, "k": 2, "s": 2, "options": {"use_savl": [1]}}

    @staticmethod
    def _objects(count):
        return [StreamObject(float((t * 7) % 11), t) for t in range(count)]

    def test_embedded_subscribe_is_refused_and_the_group_keeps_answering(self):
        engine = StreamEngine()
        engine.subscribe("ok", QuerySpec(n=10, k=2, s=2))
        with pytest.raises(InvalidQueryError, match="hashable"):
            engine.subscribe("bad", QuerySpec.from_dict(self.BODY))
        assert engine.subscriptions() == ["ok"]
        engine.push_many(self._objects(30))
        twin = StreamEngine()
        twin.subscribe("ok", QuerySpec(n=10, k=2, s=2))
        twin.push_many(self._objects(30))
        assert [r.identity() for r in engine.results("ok")] == [
            r.identity() for r in twin.results("ok")
        ]
        assert len(engine.results("ok")) == 11

    def test_ready_instance_is_refused(self):
        engine = StreamEngine()
        with pytest.raises(InvalidQueryError, match="hashable"):
            engine.subscribe("bad", algorithm=SAPTopK(TopKQuery(n=10, k=2, s=2), use_savl=[1]))
        assert len(engine) == 0

    def test_durable_engine_logs_nothing(self, tmp_path):
        engine = StreamEngine.durable(str(tmp_path))
        with pytest.raises(InvalidQueryError):
            engine.subscribe("bad", QuerySpec.from_dict(self.BODY))
        engine.subscribe("ok", QuerySpec(n=10, k=2, s=2))
        engine.push_many(self._objects(30))
        engine.close()
        recovered = StreamEngine.recover(str(tmp_path))
        assert recovered.subscriptions() == ["ok"]
        recovered.close()

    def test_sharded_facade_refuses_before_any_shard(self):
        from repro.cluster import ShardedStreamEngine

        with ShardedStreamEngine(1) as engine:
            with pytest.raises(InvalidQueryError, match="hashable"):
                engine.subscribe("bad", QuerySpec.from_dict(self.BODY))
            assert "bad" not in engine
            engine.subscribe("ok", QuerySpec(n=10, k=2, s=2))
            engine.push_many(self._objects(30))
            engine.synchronize()
            assert len(engine.results("ok")) == 11

    def test_a_group_counts_as_started_only_once_its_plans_formed(self):
        group = QueryGroup(10, 2, False)
        group.admit([Subscription("bad", SAPTopK(TopKQuery(n=10, k=2, s=2), use_savl=[1]))])
        with pytest.raises(TypeError, match="unhashable"):
            group.start()
        assert not group.started


class TestRefusedOptions:
    """Options the algorithm refuses are refused at subscribe with
    :class:`InvalidQueryError`, a preference subscription's inner options
    included (its inner core builds lazily, so it once failed only at the
    first slide and left the engine refusing every later push).  The
    refusal assigns no cluster id, journals nothing and places nothing."""

    OPTIONS = [{"bogus": 1}, {"meaningful_policy": "zzz"}]

    @staticmethod
    def _objects(count):
        return [
            StreamObject(
                float((t * 7) % 11), t, payload={"attributes": [(t * 7) % 11, (t * 3) % 5]}
            )
            for t in range(count)
        ]

    @staticmethod
    def _bad(options, preference):
        body = {"n": 4, "k": 2, "s": 1, "options": options}
        if preference:
            body["preference"] = [1, 1]
        return QuerySpec.from_dict(body)

    @staticmethod
    def _answers(engine, name):
        return [r.identity() for r in engine.results(name)]

    def test_wire_partitioner_is_refused(self):
        with pytest.raises(InvalidQueryError, match="partitioner"):
            QuerySpec.from_dict({"n": 4, "k": 2, "options": {"partitioner": "x"}})

    @pytest.mark.parametrize("preference", [False, True])
    def test_engine_answers_as_its_twin(self, preference):
        engine, twin = StreamEngine(), StreamEngine()
        for target in (engine, twin):
            target.subscribe("ok", QuerySpec(n=4, k=2, s=1))
        for options in self.OPTIONS:
            with pytest.raises(InvalidQueryError, match="refuses its options"):
                engine.subscribe("bad", self._bad(options, preference))
        assert engine.subscriptions() == ["ok"]
        assert len(engine.cluster_space()) == 0
        for target in (engine, twin):
            target.subscribe("pref", QuerySpec(n=4, k=2, s=1).preferring((1, 1)))
            target.push_many(self._objects(12))
        assert engine.subscription("pref").algorithm.cluster_id == 0
        assert engine.groups() == twin.groups()
        for name in ("ok", "pref"):
            assert self._answers(engine, name) == self._answers(twin, name)
            assert len(engine.results(name)) == 9

    def test_durable_engine_logs_nothing(self, tmp_path):
        engine = StreamEngine.durable(str(tmp_path))
        for options in self.OPTIONS:
            with pytest.raises(InvalidQueryError):
                engine.subscribe("bad", self._bad(options, True))
        engine.subscribe("ok", QuerySpec(n=4, k=2, s=1).preferring((1, 1)))
        engine.push_many(self._objects(12))
        engine.close()
        recovered = StreamEngine.recover(str(tmp_path))
        assert recovered.subscriptions() == ["ok"]
        assert recovered.subscription("ok").algorithm.cluster_id == 0
        recovered.close()

    def test_sharded_facade_refuses_before_any_shard(self):
        from repro.cluster import ShardedStreamEngine

        with ShardedStreamEngine(1) as engine:
            for preference in (False, True):
                with pytest.raises(InvalidQueryError, match="refuses its options"):
                    engine.subscribe("bad", self._bad({"bogus": 1}, preference))
            assert "bad" not in engine
            assert len(engine.cluster_space()) == 0
            engine.subscribe("ok", QuerySpec(n=4, k=2, s=1).preferring((1, 1)))
            engine.push_many(self._objects(12))
            engine.synchronize()
            assert len(engine.results("ok")) == 9
