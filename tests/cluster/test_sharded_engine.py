"""End-to-end tests of :class:`repro.cluster.ShardedStreamEngine`.

Real worker processes, small streams: the acceptance property is that the
sharded plane is *indistinguishable* from a single-process engine — same
answers in the same order for every query — while actually running the
queries in separate processes.
"""

import os
import pickle

import pytest

from repro import StreamEngine, TopKQuery
from repro.cluster import ShardedStreamEngine, ShardError
from repro.core.exceptions import AlgorithmStateError, InvalidQueryError
from repro.durability import CheckpointStore

from ..conftest import make_objects, random_scores

QUERIES = {
    "fine": TopKQuery(n=120, k=5, s=10),
    "fine-deep": TopKQuery(n=120, k=20, s=10),   # same shape: shares a plan
    "coarse": TopKQuery(n=60, k=4, s=20),
    "wide": TopKQuery(n=200, k=8, s=40),
}


def reference_results(objects, algorithm="SAP"):
    engine = StreamEngine()
    for name, query in QUERIES.items():
        engine.subscribe(name, query, algorithm=algorithm)
    engine.push_many(objects)
    engine.flush()
    return {name: engine.results(name) for name in QUERIES}


def scores_of(results):
    return [r.scores for r in results]


@pytest.fixture(scope="module")
def stream():
    return make_objects(random_scores(1500, seed=29))


@pytest.fixture(scope="module")
def expected(stream):
    return reference_results(stream)


class TestEquivalence:
    @pytest.mark.parametrize("placement", ["hash-window", "least-loaded"])
    def test_matches_single_process_engine(self, stream, expected, placement):
        with ShardedStreamEngine(2, placement=placement) as engine:
            for name, query in QUERIES.items():
                engine.subscribe(name, query, algorithm="SAP")
            pushed = engine.push_many(stream)
            assert pushed == len(stream)
            engine.flush()
            for name in QUERIES:
                assert scores_of(engine.results(name)) == scores_of(expected[name])

    def test_push_single_objects(self, stream, expected):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("fine", QUERIES["fine"], algorithm="SAP")
            for obj in stream[:240]:
                assert engine.push(obj) == {}
            engine.synchronize()
            head = scores_of(expected["fine"])[: len(engine.results("fine"))]
            assert scores_of(engine.results("fine")) == head

    def test_hash_placement_keeps_shared_plans(self, stream):
        with ShardedStreamEngine(2, placement="hash-window") as engine:
            engine.subscribe("fine", QUERIES["fine"], algorithm="SAP")
            engine.subscribe("fine-deep", QUERIES["fine-deep"], algorithm="SAP")
            assert engine.shard_of("fine") == engine.shard_of("fine-deep")
            engine.push_many(stream[:600])
            plans = [
                plan
                for group in engine.groups()
                if group["members"] == ["fine", "fine-deep"]
                for plan in group["plans"]
            ]
            assert plans and plans[0]["k_max"] == 20


class TestFacadeSurface:
    def test_subscribe_requires_registry_name(self):
        with ShardedStreamEngine(1) as engine:
            from repro import SAPTopK

            with pytest.raises(TypeError, match="registry"):
                engine.subscribe("q", QUERIES["fine"], algorithm=SAPTopK(QUERIES["fine"]))

    def test_unpicklable_payload_raises_instead_of_hanging(self):
        # mp.Queue pickles in a feeder thread; without pre-validation a
        # lambda option would hang subscribe forever waiting for a reply.
        from repro.core.state import StateSerializationError

        with ShardedStreamEngine(1) as engine:
            with pytest.raises(StateSerializationError, match="picklable"):
                engine.subscribe(
                    "q",
                    TopKQuery(n=60, k=4, s=10, preference=lambda record: float(record)),
                )
            assert "q" not in engine

    def test_duplicate_names_rejected_locally(self):
        with ShardedStreamEngine(1) as engine:
            engine.subscribe("q", QUERIES["fine"])
            with pytest.raises(ValueError, match="already subscribed"):
                engine.subscribe("q", QUERIES["coarse"])

    def test_unknown_algorithm_surfaces_as_shard_error(self):
        with ShardedStreamEngine(1) as engine:
            with pytest.raises(ShardError, match="unknown algorithm"):
                engine.subscribe("q", QUERIES["fine"], algorithm="nope")
            # The facade did not record the failed subscription.
            assert "q" not in engine

    def test_push_without_queries_rejected(self, stream):
        with ShardedStreamEngine(1) as engine:
            with pytest.raises(ValueError, match="no queries"):
                engine.push_many(stream[:10])

    def test_membership_and_lengths(self):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("a", QUERIES["fine"])
            engine.subscribe("b", QUERIES["coarse"])
            assert len(engine) == 2
            assert "a" in engine and "missing" not in engine
            assert engine.subscriptions() == ["a", "b"]
            assert engine.shards == 2
            engine.unsubscribe("a")
            assert engine.subscriptions() == ["b"]
            with pytest.raises(KeyError):
                engine.subscription("a")

    def test_explicit_shard_placement(self):
        with ShardedStreamEngine(3) as engine:
            engine.subscribe("pinned", QUERIES["fine"], shard=2)
            assert engine.shard_of("pinned") == 2
            with pytest.raises(ValueError, match="out of range"):
                engine.subscribe("bad", QUERIES["coarse"], shard=3)

    def test_closed_engine_refuses_work(self):
        engine = ShardedStreamEngine(1)
        engine.subscribe("q", QUERIES["fine"])
        assert engine.close() == {}
        assert engine.closed
        assert engine.close() == {}  # idempotent
        with pytest.raises(AlgorithmStateError):
            engine.subscribe("r", QUERIES["coarse"])

    def test_stats_and_snapshot_merge(self, stream):
        with ShardedStreamEngine(2) as engine:
            for name, query in QUERIES.items():
                engine.subscribe(name, query, algorithm="SAP")
            engine.push_many(stream[:600])
            stats = engine.stats()
            assert set(stats) == set(QUERIES)
            assert stats["fine"]["slides"] > 0
            snapshot = engine.snapshot()
            assert snapshot["wide"]["algorithm"].startswith("SAP")
            merged = engine.aggregate_stats()
            assert merged["slides"] == sum(s["slides"] for s in stats.values())
            assert merged["p95_latency"] >= merged["p50_latency"] >= 0.0

    def test_subscription_handle_roundtrips(self, stream):
        with ShardedStreamEngine(2) as engine:
            handle = engine.subscribe("fine", QUERIES["fine"], result_buffer=3)
            engine.push_many(stream[:600])
            engine.synchronize()
            assert handle.latest() is not None
            retained = handle.results()
            assert len(retained) == 3  # the buffer bound applied in-worker
            drained = handle.drain()
            assert scores_of(drained) == scores_of(retained)
            assert handle.results() == []
            assert handle.stats()["slides"] > 0
            assert handle.snapshot()["name"] == "fine"


class TestWorkerFailure:
    def test_mid_stream_failure_is_latched_and_reported(self):
        # A push that raises inside a worker fails asynchronously and must
        # surface at the next synchronous command instead of vanishing.
        # The facade rejects an out-of-order chunk before sending it, so
        # the fault goes to the router directly.
        with ShardedStreamEngine(1) as engine:
            engine.subscribe("q", QUERIES["fine"])
            engine.push_many(make_objects(random_scores(240, seed=1)))
            bad = make_objects([1.0], start_t=0)  # t restarts at 0
            engine._router.push_chunk(bad, [0])
            with pytest.raises(ShardError, match="failed during push"):
                engine.synchronize()

    def test_close_after_latched_failure_is_a_safe_noop(self):
        # A worker that latched a push failure replies "err" to every
        # synchronous opcode — including "close".  The facade's close must
        # swallow that (shutdown is best-effort), terminate the workers,
        # and stay a no-op when called again.
        engine = ShardedStreamEngine(2)
        engine.subscribe("q", QUERIES["fine"])
        engine.push_many(make_objects(random_scores(240, seed=3)))
        # t goes backwards, sent past the facade's order check.
        engine._router.push_chunk(make_objects([1.0], start_t=0), [0])
        with pytest.raises(ShardError, match="failed during push"):
            engine.synchronize()
        engine.close()  # must not raise despite the latched failure
        assert engine.closed
        engine.close()  # and repeating it is a safe no-op
        assert all(
            not shard.process.is_alive() for shard in engine._router._shards
        )

    def test_drain_results_merges_all_shards(self):
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("fine", QUERIES["fine"])
            engine.subscribe("coarse", QUERIES["coarse"])
            engine.push_many(make_objects(random_scores(400, seed=4)))
            engine.synchronize()
            produced = engine.drain_results()
            assert set(produced) == {"fine", "coarse"}
            assert all(results for results in produced.values())
            # Drained on every shard: nothing is retained afterwards.
            assert engine.drain_results() == {}
            assert engine.results("fine") == []

    def test_healthy_shards_stay_usable_after_one_shard_fails(self):
        # A broadcast that hits one broken shard must still consume the
        # healthy shards' replies — otherwise every later request/reply
        # pair is off by one and returns stale payloads.
        with ShardedStreamEngine(2) as engine:
            engine.subscribe("broken", QUERIES["fine"], shard=0)
            engine.subscribe("healthy", QUERIES["coarse"], shard=1)
            objects = make_objects(random_scores(240, seed=1))
            engine.push_many(objects)
            engine._router.push_chunk(make_objects([1.0], start_t=0), [0])
            with pytest.raises(ShardError, match="failed during push"):
                engine.synchronize()
            # The healthy shard still speaks the protocol correctly.
            results = engine.results("healthy")
            assert results and all(hasattr(r, "scores") for r in results)
            assert engine._router.request(1, ("sync",)) == len(objects)


class TestOrderCheck:
    def test_out_of_order_chunk_is_rejected_whole_and_nothing_is_sent(self, stream):
        with ShardedStreamEngine(2, placement="least-loaded") as engine:
            for name, query in QUERIES.items():
                engine.subscribe(name, query, algorithm="SAP")
            engine.push_many(stream[:100])
            # A chunk starting at the last admitted t, then one going back.
            with pytest.raises(InvalidQueryError, match="strictly increasing"):
                engine.push_many(stream[99:300])
            with pytest.raises(InvalidQueryError, match="strictly increasing"):
                engine.push(stream[50])
            # No shard saw either chunk: valid chunks still go through.
            engine.push_many(stream[100:700])
            for obj in stream[700:760]:
                engine.push(obj)
            engine.push_many(stream[760:])
            engine.flush()
            sharded = {name: engine.results(name) for name in QUERIES}
        expected = reference_results(stream)
        for name in QUERIES:
            assert pickle.dumps(sharded[name]) == pickle.dumps(expected[name])

    @pytest.mark.parametrize(
        "count, checkpointed",
        [
            (200, False),  # the journal tail alone recovers the last t
            (640, True),   # checkpoint at chunk 64, empty journal tail
            (700, True),   # checkpoint plus a six-chunk journal tail
        ],
    )
    def test_durable_restart_resumes_the_order_check(
        self, stream, tmp_path, count, checkpointed
    ):
        names = ("fine", "fine-deep")
        directory = str(tmp_path / "cluster")
        with ShardedStreamEngine(2, durability_dir=directory, chunk_size=10) as engine:
            for name in names:
                engine.subscribe(name, QUERIES[name])
            engine.push_many(stream[:count])
        stores = [
            CheckpointStore(os.path.join(directory, f"shard-{shard}"))
            for shard in range(2)
        ]
        assert any(store.latest() for store in stores) == checkpointed
        with ShardedStreamEngine(2, durability_dir=directory, chunk_size=10) as engine:
            with pytest.raises(InvalidQueryError, match=f"after t={count - 1}"):
                engine.push_many(stream[count - 50:count + 50])
            with pytest.raises(InvalidQueryError, match=f"after t={count - 1}"):
                engine.push(stream[count - 1])
            engine.push_many(stream[count:])
            engine.flush()
            restarted = {name: engine.results(name) for name in names}
        engine = StreamEngine()
        for name in names:
            engine.subscribe(name, QUERIES[name], algorithm="SAP")
        engine.push_many(stream)
        engine.flush()
        for name in names:
            # Answers after the restart continue the uninterrupted stream's.
            tail = restarted[name]
            assert len(tail) >= (len(stream) - count) // QUERIES[name].s
            expected = engine.results(name)[-len(tail):]
            assert pickle.dumps(tail) == pickle.dumps(expected)
