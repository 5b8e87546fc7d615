"""The cluster's data path: per-shard transport_stats(), backpressure,
and exactness over the one command-queue transport.

The facade report joins two sides per shard — the router's
serialize/send counters and the worker's deserialize counters — so the
tests cover the join itself: a freshly opened plane (zero chunks moved),
a plane that moved data, and the dead-worker degradation where a shard's
worker reply is missing and the router-side half must survive alone.
"""

import os
import signal
import time

import pytest

from repro import StreamEngine, TopKQuery
from repro.cluster import ShardedStreamEngine
from repro.cluster.router import ShardBackpressureError, ShardRouter
from repro.core.object import StreamObject
from repro.streams import make_dataset

from ..conftest import make_objects, random_scores

ROUTER_KEYS = {"encode_seconds", "send_seconds", "bytes", "batches", "objects"}
WORKER_KEYS = {
    "shard",
    "decode_seconds",
    "decode_bytes",
    "decoded_batches",
    "decoded_objects",
}


@pytest.fixture()
def engine():
    with ShardedStreamEngine(2, transport="queue") as engine:
        yield engine


class TestTransportStatsMerge:
    def test_zero_chunk_plane_reports_zeroed_counters(self, engine):
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), keep_results=False)
        stats = engine.transport_stats()
        assert set(stats) == {0, 1}
        for record in stats.values():
            assert ROUTER_KEYS | WORKER_KEYS <= set(record)
            assert record["batches"] == 0
            assert record["bytes"] == 0
            assert record["decoded_batches"] == 0
            assert record["decoded_objects"] == 0

    def test_both_sides_agree_after_data_moved(self, engine):
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), keep_results=False)
        engine.push_many(make_dataset("STOCK").take(1000))
        engine.synchronize()
        stats = engine.transport_stats()
        moved = [record for record in stats.values() if record["batches"]]
        assert moved, "no shard moved any chunk"
        for record in moved:
            # The worker decoded exactly what the router sent it.
            assert record["decoded_batches"] == record["batches"]
            assert record["decoded_objects"] == record["objects"]
            assert record["decode_bytes"] == record["bytes"]

    def test_dead_worker_reply_degrades_to_router_side(self, engine, monkeypatch):
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), keep_results=False)
        engine.push_many(make_dataset("STOCK").take(500))
        engine.synchronize()

        real_broadcast = engine._router.broadcast

        def broadcast(message):
            replies = real_broadcast(message)
            if message[0] == "transport_stats":
                replies = [None] + list(replies[1:])  # shard 0 died mid-reply
            return replies

        monkeypatch.setattr(engine._router, "broadcast", broadcast)
        stats = engine.transport_stats()
        assert set(stats) == {0, 1}
        # Shard 0 keeps its router-side half; the worker half is absent.
        assert ROUTER_KEYS <= set(stats[0])
        assert not WORKER_KEYS & set(stats[0])
        # The surviving shard still reports both sides.
        assert ROUTER_KEYS | WORKER_KEYS <= set(stats[1])


def test_only_the_queue_transport_is_accepted():
    with pytest.raises(ValueError, match="transport must be 'queue'"):
        ShardedStreamEngine(2, transport="shm")


def _suspend(process):
    os.kill(process.pid, signal.SIGSTOP)
    time.sleep(0.05)  # let an in-flight get() finish before the freeze bites


def _resume(process):
    os.kill(process.pid, signal.SIGCONT)


class TestBackpressure:
    def test_queue_backpressure_raises_typed_error(self):
        router = ShardRouter(1, queue_depth=1, backpressure_timeout=0.3)
        try:
            worker = router._shards[0].process
            _suspend(worker)
            try:
                chunk = make_objects(random_scores(64, seed=3))
                with pytest.raises(ShardBackpressureError) as excinfo:
                    for _ in range(256):
                        router.push_chunk(chunk, [0])
                assert excinfo.value.shard_id == 0
            finally:
                _resume(worker)
        finally:
            router.stop()


class TestExactness:
    QUERIES = {
        "fine": TopKQuery(n=120, k=5, s=10),
        "fine-deep": TopKQuery(n=120, k=20, s=10),  # same shape: shares a plan
        "coarse": TopKQuery(n=60, k=4, s=20),
    }

    @pytest.fixture(scope="class")
    def stream(self):
        objects = make_objects(random_scores(1200, seed=31))
        # Exercise the out-of-band payload path and the timestamp mask on
        # a sprinkling of objects; exactness must be payload-oblivious.
        return [
            StreamObject(
                score=obj.score,
                t=obj.t,
                payload={"seq": obj.t} if obj.t % 7 == 0 else None,
                timestamp=obj.t * 2 if obj.t % 5 == 0 else None,
            )
            for obj in objects
        ]

    def test_answers_match_single_process(self, stream):
        reference = StreamEngine()
        for name, query in self.QUERIES.items():
            reference.subscribe(name, query, algorithm="SAP")
        reference.push_many(stream)
        reference.flush()
        with ShardedStreamEngine(2) as engine:
            for name, query in self.QUERIES.items():
                engine.subscribe(name, query, algorithm="SAP")
            engine.push_many(stream)
            engine.flush()
            for name in self.QUERIES:
                assert [r.identity() for r in engine.results(name)] == [
                    r.identity() for r in reference.results(name)
                ]
