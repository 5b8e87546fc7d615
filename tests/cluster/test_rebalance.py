"""Rebalancing: live subscription moves between shards preserve answers."""

import pytest

from repro import StreamEngine, TopKQuery
from repro.cluster import ShardedStreamEngine

from ..conftest import make_objects, random_scores

QUERY = TopKQuery(n=120, k=6, s=10)
SIBLING = TopKQuery(n=120, k=12, s=10)  # same shape: forms a shared plan


@pytest.fixture(scope="module")
def stream():
    return make_objects(random_scores(1200, seed=31))


def answers_of(results):
    """Slide index and ``(score, t)`` identity of each answer, in order."""
    return [(r.slide_index, r.identity()) for r in results]


def expected_results(stream):
    engine = StreamEngine()
    engine.subscribe("mover", QUERY, algorithm="SAP")
    engine.subscribe("stayer", SIBLING, algorithm="SAP")
    engine.push_many(stream)
    return {name: answers_of(engine.results(name)) for name in ("mover", "stayer")}


class TestRebalance:
    def test_mid_stream_move_preserves_answers(self, stream):
        expected = expected_results(stream)
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("mover", QUERY, algorithm="SAP", shard=0)
            engine.subscribe("stayer", SIBLING, algorithm="SAP", shard=0)
            engine.push_many(stream[:600])
            handle = engine.rebalance("mover", to_shard=1)
            assert handle.shard == 1
            assert engine.shard_of("mover") == 1
            engine.push_many(stream[600:])
            got = {name: answers_of(engine.results(name)) for name in ("mover", "stayer")}
            assert got == expected

    def test_results_metrics_and_counters_travel(self, stream):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("mover", QUERY, algorithm="SAP", shard=0)
            engine.push_many(stream[:600])
            engine.synchronize()
            before = engine.stats()["mover"]
            retained_before = len(engine.results("mover"))
            engine.rebalance("mover", to_shard=1)
            after = engine.stats()["mover"]
            assert after["slides"] == before["slides"]
            assert after["results_delivered"] == before["results_delivered"]
            assert after["p95_latency"] == before["p95_latency"]
            assert len(engine.results("mover")) == retained_before

    def test_move_before_any_push(self):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("mover", QUERY, algorithm="SAP", shard=0)
            engine.rebalance("mover", to_shard=1)
            assert engine.shard_of("mover") == 1
            engine.push_many(make_objects(random_scores(240, seed=5)))
            engine.synchronize()
            assert engine.results("mover")

    def test_noop_move_to_same_shard(self, stream):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("mover", QUERY, algorithm="SAP", shard=1)
            handle = engine.rebalance("mover", to_shard=1)
            assert handle.shard == 1

    def test_bad_targets_rejected(self):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("mover", QUERY, algorithm="SAP")
            with pytest.raises(ValueError, match="out of range"):
                engine.rebalance("mover", to_shard=2)
            with pytest.raises(KeyError):
                engine.rebalance("missing", to_shard=0)

    def test_mid_slide_move_preserves_answers(self, stream):
        # 125 objects = window fill (120) + half a slide: the move takes
        # the partial slide along and the answers do not change.
        expected = expected_results(stream)
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("mover", QUERY, algorithm="SAP", shard=0)
            engine.subscribe("stayer", SIBLING, algorithm="SAP", shard=0)
            engine.push_many(stream[:125])
            engine.rebalance("mover", to_shard=1)
            assert engine.shard_of("mover") == 1
            engine.push_many(stream[125:])
            got = {name: answers_of(engine.results(name)) for name in ("mover", "stayer")}
        assert got == expected

    def test_any_query_moves_after_any_push(self, stream):
        # A time-based window, one whose slide does not divide it, and a
        # pair with coprime slides: rebalance and retire_shard move each
        # after pushes that end mid-slide, and nothing changes.
        queries = [
            ("timed", TopKQuery(n=50, k=3, s=10, time_based=True)),
            ("odd", TopKQuery(n=125, k=4, s=10)),
            ("p97", TopKQuery(n=200, k=3, s=97)),
            ("p101", TopKQuery(n=202, k=5, s=101)),
        ]
        reference = StreamEngine()
        for name, query in queries:
            reference.subscribe(name, query, algorithm="SAP")
        reference.push_many(stream)
        reference.flush()
        expected = {name: answers_of(reference.results(name)) for name, _ in queries}
        with ShardedStreamEngine(2) as engine:
            for name, query in queries:
                engine.subscribe(name, query, algorithm="SAP", shard=0)
            engine.push_many(stream[:333])
            for name, _ in queries:
                engine.rebalance(name, to_shard=1)
            engine.push_many(stream[333:777], chunk_size=61)
            assert engine.retire_shard() == 1
            assert {engine.shard_of(name) for name, _ in queries} == {0}
            engine.push_many(stream[777:])
            engine.flush()
            got = {name: answers_of(engine.results(name)) for name, _ in queries}
        assert got == expected


class TestLocalCaptureRestore:
    """The same contract on the single-process engine (no workers)."""

    def test_capture_unsubscribe_restore_roundtrip(self, stream):
        expected = expected_results(stream)
        source = StreamEngine()
        source.subscribe("mover", QUERY, algorithm="SAP")
        source.subscribe("stayer", SIBLING, algorithm="SAP")
        source.push_many(stream[:600], chunk_size=120)
        state = source.capture_subscription("mover")
        source.unsubscribe("mover")
        target = StreamEngine()
        target.restore_subscription(state)
        source.push_many(stream[600:], chunk_size=120)
        target.push_many(stream[600:], chunk_size=120)
        assert answers_of(target.results("mover")) == expected["mover"]
        assert answers_of(source.results("stayer")) == expected["stayer"]

    def test_captured_metrics_are_a_snapshot_not_an_alias(self, stream):
        # The capture leaves the source running; its further slides must
        # not leak into the captured state or a restored subscription.
        source = StreamEngine()
        source.subscribe("mover", QUERY, algorithm="SAP")
        source.push_many(stream[:600], chunk_size=120)
        state = source.capture_subscription("mover")
        target_a, target_b = StreamEngine(), StreamEngine()
        restored_a = target_a.restore_subscription(state)
        restored_b = target_b.restore_subscription(state)
        slides_at_capture = restored_a.stats()["slides"]
        source.push_many(stream[600:], chunk_size=120)
        target_b.push_many(stream[600:1200], chunk_size=120)
        # Neither the source's nor a sibling restore's activity bleeds in.
        assert restored_a.stats()["slides"] == slides_at_capture
        assert restored_a.metrics is not source.subscription("mover").metrics
        assert restored_a.metrics is not restored_b.metrics

    def test_restore_rejects_duplicates_and_junk(self, stream):
        engine = StreamEngine()
        engine.subscribe("mover", QUERY, algorithm="SAP")
        state = engine.capture_subscription("mover")
        with pytest.raises(ValueError, match="already subscribed"):
            engine.restore_subscription(state)
        with pytest.raises(TypeError, match="GroupState"):
            engine.restore_subscription({"not": "a state"})

    def test_time_based_capture_roundtrip(self):
        objects = make_objects(random_scores(400, seed=2))
        query = TopKQuery(n=50, k=3, s=10, time_based=True)
        expected = StreamEngine()
        expected.subscribe("timed", query, algorithm="SAP")
        expected.push_many(objects)
        expected.flush()
        source = StreamEngine()
        source.subscribe("timed", query, algorithm="SAP")
        source.push_many(objects[:203])
        target = StreamEngine()
        target.restore_subscription(source.capture_subscription("timed"))
        target.push_many(objects[203:])
        target.flush()
        assert answers_of(target.results("timed")) == answers_of(expected.results("timed"))


def _single_engine_answers(subscriptions, stream):
    engine = StreamEngine()
    for name, query in subscriptions:
        engine.subscribe(name, query, algorithm="SAP")
    engine.push_many(stream)
    return {name: [r.identity() for r in engine.results(name)] for name, _ in subscriptions}


def _shape_groups(cluster):
    return [(group["shard"], group["members"]) for group in cluster.groups()]


class TestMovesJoinGroupsByPosition:
    """A moved subscription joins the target's group of its window shape
    and window position instead of opening a group of its own."""

    SUBSCRIPTIONS = [
        ("a", TopKQuery(n=100, k=3, s=10)),
        ("b", TopKQuery(n=100, k=5, s=10)),
        ("c", TopKQuery(n=100, k=4, s=10)),
        ("d", TopKQuery(n=100, k=6, s=10)),
    ]

    def test_rebalance_joins_the_target_group(self, stream):
        with ShardedStreamEngine(2) as engine:
            for (name, query), shard in zip(self.SUBSCRIPTIONS, (0, 0, 1, 1)):
                engine.subscribe(name, query, algorithm="SAP", shard=shard)
            engine.push_many(stream[:600])
            engine.rebalance("a", to_shard=1)
            assert _shape_groups(engine) == [(0, ["b"]), (1, ["c", "d", "a"])]
            engine.push_many(stream[600:])
            engine.synchronize()
            got = {name: [r.identity() for r in engine.results(name)] for name in "abcd"}
        assert got == _single_engine_answers(self.SUBSCRIPTIONS, stream)

    def test_moving_a_group_member_by_member_keeps_it_whole(self, stream):
        with ShardedStreamEngine(2) as engine:
            for name, query in self.SUBSCRIPTIONS[:2]:
                engine.subscribe(name, query, algorithm="SAP", shard=0)
            engine.push_many(stream[:600])
            engine.rebalance("a", to_shard=1)
            engine.rebalance("b", to_shard=1)
            assert _shape_groups(engine) == [(1, ["a", "b"])]
            engine.push_many(stream[600:])
            engine.synchronize()
            got = {name: [r.identity() for r in engine.results(name)] for name in "ab"}
        assert got == _single_engine_answers(self.SUBSCRIPTIONS[:2], stream)


class TestElasticShards:
    """spawn_shard / retire_shard move query groups whole."""

    SURVIVORS = [("x", TopKQuery(n=120, k=2, s=10)), ("y", TopKQuery(n=120, k=8, s=10))]
    RETIREES = [
        ("p", TopKQuery(n=120, k=3, s=10)),
        ("q", TopKQuery(n=120, k=5, s=10)),
        ("r", TopKQuery(n=120, k=7, s=10)),
    ]

    def test_retire_merges_a_group_into_the_survivor_group(self, stream):
        everyone = self.SURVIVORS + self.RETIREES
        with ShardedStreamEngine(2) as engine:
            for name, query in self.SURVIVORS:
                engine.subscribe(name, query, algorithm="SAP", shard=0)
            for name, query in self.RETIREES:
                engine.subscribe(name, query, algorithm="SAP", shard=1)
            engine.push_many(stream[:600])
            assert engine.retire_shard() == 1
            assert engine.shards == 1
            (group,) = engine.groups()
            assert (group["n"], group["s"]) == (120, 10)
            assert group["members"] == ["x", "y", "p", "q", "r"]
            # The members kept their plans: the survivors' and the moved
            # group's, each at its own k_max.
            assert [(plan["members"], plan["k_max"]) for plan in group["plans"]] == [
                (["x", "y"], 8),
                (["p", "q", "r"], 7),
            ]
            assert {engine.shard_of(name) for name, _ in everyone} == {0}
            engine.push_many(stream[600:])
            engine.synchronize()
            got = {name: [r.identity() for r in engine.results(name)] for name, _ in everyone}
        assert got == _single_engine_answers(everyone, stream)

    def test_spawned_shard_takes_a_group_and_can_retire_again(self, stream):
        with ShardedStreamEngine(1) as engine:
            for name, query in self.RETIREES:
                engine.subscribe(name, query, algorithm="SAP", shard=0)
            engine.push_many(stream[:600])
            assert engine.spawn_shard() == 1
            assert engine.shards == 2
            for name, _ in self.RETIREES:
                engine.rebalance(name, to_shard=1)
            assert _shape_groups(engine) == [(1, ["p", "q", "r"])]
            engine.push_many(stream[600:900])
            assert engine.retire_shard() == 1
            assert _shape_groups(engine) == [(0, ["p", "q", "r"])]
            engine.push_many(stream[900:])
            engine.synchronize()
            got = {name: [r.identity() for r in engine.results(name)] for name, _ in self.RETIREES}
        assert got == _single_engine_answers(self.RETIREES, stream)

    def test_only_the_highest_shard_retires(self):
        with ShardedStreamEngine(2) as engine:
            with pytest.raises(ValueError, match="highest-numbered"):
                engine.retire_shard(0)
            engine.retire_shard()
            with pytest.raises(ValueError, match="last shard"):
                engine.retire_shard()
