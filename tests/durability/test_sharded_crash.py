"""Crash-injection on the sharded plane: SIGKILL real worker processes.

Two failure shapes the durability plane must absorb:

* one worker dies mid-stream and is revived in place by
  :meth:`ShardedStreamEngine.resurrect_shard` — the journal tail plus
  the router's retention buffer must reproduce its answer stream;
* the whole facade dies (every worker SIGKILLed, the facade abandoned)
  and a new facade boots over the same durability directory — the
  ``cluster.json`` manifest must win over the constructor's ``shards``
  argument and the workers must come back with their subscriptions.

The oracle is the same as everywhere in this suite: an uncrashed twin
ingesting the identical stream, compared answer-for-answer.
"""

import os
import signal
import time

import pytest

from repro.cluster import ShardedStreamEngine
from repro.core.exceptions import InvalidQueryError
from repro.core.object import StreamObject
from repro.core.state import StateSerializationError
from repro.engine import QuerySpec
from repro.partitioning import EqualPartitioner

from ..conftest import random_scores

TRANSPORTS = ["queue"]


def _stream(count=120, seed=11):
    scores = random_scores(count, seed=seed)
    return [
        StreamObject(score=s, t=i, payload=(s / 10.0, float(i % 7)))
        for i, s in enumerate(scores)
    ]


def _subscribe_all(engine):
    engine.subscribe("plain", QuerySpec(n=20, k=3, s=5))
    engine.subscribe("mintopk", QuerySpec(n=30, k=4, s=5).using("MinTopK"))
    engine.subscribe("pref", QuerySpec(n=20, k=3, s=5).preferring((1.0, 0.5)))


def _signature(drained):
    return {
        name: [
            (
                result.slide_index,
                result.window_end,
                tuple((obj.score, obj.t) for obj in result.objects),
            )
            for result in results
        ]
        for name, results in sorted(drained.items())
    }


def _twin_signature(stream):
    with ShardedStreamEngine(2, keep_results=True) as twin:
        _subscribe_all(twin)
        twin.push_many(stream, chunk_size=10)
        twin.synchronize()
        return _signature(twin.drain_results())


def _kill_worker(engine, shard_id):
    process = engine._router._handle(shard_id).process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5.0)
    for _ in range(50):
        if not process.is_alive():
            return
        time.sleep(0.05)
    raise AssertionError(f"worker {shard_id} survived SIGKILL")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_sigkilled_worker_resurrects_byte_identical(tmp_path, transport):
    stream = _stream()
    engine = ShardedStreamEngine(
        2,
        keep_results=True,
        transport=transport,
        durability_dir=str(tmp_path),
    )
    try:
        _subscribe_all(engine)
        engine.push_many(stream[:60], chunk_size=10)
        _kill_worker(engine, 1)
        status = engine.resurrect_shard(1)
        assert int(status["ingested"]) <= 60
        engine.push_many(stream[60:], chunk_size=10)
        engine.synchronize()
        assert _signature(engine.drain_results()) == _twin_signature(stream)
    finally:
        if not engine.closed:
            engine.close()


def test_resurrect_refuses_a_live_worker(tmp_path):
    from repro.cluster import ShardError

    with ShardedStreamEngine(
        2, keep_results=True, durability_dir=str(tmp_path)
    ) as engine:
        _subscribe_all(engine)
        with pytest.raises(ShardError):
            engine.resurrect_shard(0)


def test_facade_crash_manifest_wins_over_shards_argument(tmp_path):
    stream = _stream()
    crashed = ShardedStreamEngine(
        2, keep_results=True, durability_dir=str(tmp_path)
    )
    _subscribe_all(crashed)
    crashed.push_many(stream[:60], chunk_size=10)
    # the barrier guarantees every delivered chunk is journaled before
    # the massacre — chunks still in flight are the *producer's* to
    # retry, which is exactly what the serving layer's resume does
    crashed.synchronize()
    for shard_id in range(2):
        _kill_worker(crashed, shard_id)
    # abandon the facade (no close(): its workers are corpses) and boot a
    # new one with a deliberately wrong width — cluster.json must win
    revived = ShardedStreamEngine(
        1, keep_results=True, durability_dir=str(tmp_path)
    )
    try:
        assert revived.shards == 2
        assert sorted(revived.subscriptions()) == ["mintopk", "plain", "pref"]
        status = revived.durability_status()
        assert [entry["recovered_subscriptions"] for entry in status]
        assert sum(int(entry["ingested"]) for entry in status) == 2 * 60
        revived.push_many(stream[60:], chunk_size=10)
        revived.synchronize()
        assert _signature(revived.drain_results()) == _twin_signature(stream)
    finally:
        revived.close()


def test_restarted_facade_assigns_the_twins_cluster_ids(tmp_path):
    """The facade's preference-cluster space survives a restart in
    ``cluster.json``: a revived facade assigns (and so places) new
    preference subscriptions as its uncrashed twin does."""
    first, second = (1.0, 0.1, 0.1), (0.1, 1.0, 0.1)
    objects = [
        StreamObject(score=0.0, t=t, payload={"attributes": [
            float((7 * t) % 23), float((5 * t) % 17), float(t % 11)]})
        for t in range(40)
    ]

    def before_crash(engine):
        engine.subscribe("a", QuerySpec(n=20, k=3, s=5).preferring(first))
        engine.subscribe("b", QuerySpec(n=20, k=3, s=5).preferring(second))
        engine.push_many(objects, chunk_size=10)
        engine.synchronize()

    def after_crash(engine):
        engine.subscribe("b2", QuerySpec(n=20, k=3, s=5).preferring(second))
        engine.subscribe("b3", QuerySpec(n=20, k=3, s=5).preferring(second))

    def layout(engine):
        return {
            name: (
                engine.shard_of(name),
                engine.subscription(name).snapshot()["cluster"]["cluster_id"],
            )
            for name in engine.subscriptions()
        }, engine.groups()

    crashed = ShardedStreamEngine(2, keep_results=True, durability_dir=str(tmp_path))
    before_crash(crashed)
    for shard_id in range(2):
        _kill_worker(crashed, shard_id)
    revived = ShardedStreamEngine(2, keep_results=True, durability_dir=str(tmp_path))
    try:
        after_crash(revived)
        with ShardedStreamEngine(2, keep_results=True) as twin:
            before_crash(twin)
            after_crash(twin)
            assert layout(revived) == layout(twin)
            assert {name: ids[1] for name, ids in layout(twin)[0].items()} == {
                "a": 0, "b": 1, "b2": 1, "b3": 1,
            }
    finally:
        revived.close()


def _local_partitioner():
    class LocalPartitioner(EqualPartitioner):  # defined in a function
        pass

    return LocalPartitioner()


def test_refused_preference_subscribe_leaves_cluster_json_alone(tmp_path):
    """The facade refuses a preference subscription its shard would
    refuse, or one that cannot be pickled to reach a shard, before any
    cluster id is assigned, so no worker sees it and ``cluster.json``
    keeps the space of the accepted subscriptions."""
    manifest = tmp_path / "cluster.json"
    engine = ShardedStreamEngine(2, keep_results=True, durability_dir=str(tmp_path))
    try:
        engine.subscribe("a", QuerySpec(n=20, k=3, s=5).preferring((0.1, 1.0, 0.1)))
        before = manifest.read_bytes()
        with pytest.raises(InvalidQueryError, match="pad_factor"):
            engine.subscribe(
                "x", QuerySpec(n=20, k=3, s=5).build(), "clustered",
                vector=(1.0, 0.1, 0.1), pad_factor=0.5,
            )
        with pytest.raises(StateSerializationError, match="picklable"):
            engine.subscribe(
                "y", QuerySpec(n=20, k=3, s=5).using(
                    "SAP", partitioner=_local_partitioner()
                ).preferring((1.0, 0.1, 0.1)),
            )
        assert engine.cluster_space().snapshot()["next_id"] == 1
        assert manifest.read_bytes() == before
        assert engine.subscriptions() == ["a"]
        engine.subscribe("b", QuerySpec(n=20, k=3, s=5).preferring((1.0, 0.1, 0.1)))
        assert engine.subscription("b").snapshot()["cluster"]["cluster_id"] == 1
    finally:
        engine.close()
