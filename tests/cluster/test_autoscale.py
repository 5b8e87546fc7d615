"""ShardAutoscaler: scripted pressure symptoms drive a real sharded engine.

The analyzer is a stub, so each tick's symptom is chosen by the test; the
monitor, the planner's bounds and cooldown, and the spawn/retire tactics
all run for real against worker processes.
"""

import pytest

from repro import StreamEngine, TopKQuery
from repro.cluster import ShardedStreamEngine
from repro.cluster.autoscale import ShardAutoscaler
from repro.control.analyzers import Symptom

from ..conftest import make_objects, random_scores

SUBSCRIPTIONS = [
    ("a", TopKQuery(n=100, k=3, s=10)),
    ("b", TopKQuery(n=100, k=5, s=10)),
    ("c", TopKQuery(n=80, k=4, s=20)),
    ("d", TopKQuery(n=80, k=6, s=20)),
]


@pytest.fixture(scope="module")
def stream():
    return make_objects(random_scores(1000, seed=19))


class _ScriptedPressure:
    """Stub analyzer: each call reports the next scripted ``(kind, shard)``
    symptom (``None`` for a quiet tick) and records the samples it saw."""

    def __init__(self, *script):
        self.script = list(script)
        self.samples = []

    def analyze_cluster(self, samples):
        self.samples.append(samples)
        step = self.script.pop(0) if self.script else None
        if step is None:
            return None
        kind, shard = step
        return Symptom(
            kind=kind, subscription=f"shard:{shard}", severity=2.0, evidence={"shard": shard}
        )


def _answers(results_of):
    return {
        name: [(r.slide_index, r.window_end, r.identity()) for r in results_of(name)]
        for name, _ in SUBSCRIPTIONS
    }


def _single_engine_answers(stream):
    engine = StreamEngine()
    for name, query in SUBSCRIPTIONS:
        engine.subscribe(name, query, algorithm="SAP")
    engine.push_many(stream)
    return _answers(engine.results)


def _cluster(shards, placement):
    engine = ShardedStreamEngine(shards)
    for (name, query), shard in zip(SUBSCRIPTIONS, placement):
        engine.subscribe(name, query, algorithm="SAP", shard=shard)
    return engine


def test_overload_spawns_a_shard_and_moves_load_onto_it(stream):
    pressure = _ScriptedPressure(("shard-overload", 0))
    with _cluster(1, [0, 0, 0, 0]) as engine:
        scaler = ShardAutoscaler(engine, pressure=pressure, max_shards=2)
        engine.push_many(stream[:600])
        record = scaler.tick()
        assert [sample.shard for sample in pressure.samples[0]] == [0]
        assert pressure.samples[0][0].subscriptions == 4
        assert (record["symptom"], record["tactic"], record["applied"]) == (
            "shard-overload",
            "spawn-shard",
            True,
        )
        assert engine.shards == 2
        moved = record["detail"]["moved"]
        assert record["detail"]["new_shard"] == 1 and moved
        assert record["detail"]["skipped"] == []
        assert {name for name, _ in SUBSCRIPTIONS if engine.shard_of(name) == 1} == set(moved)
        assert len(moved) < len(SUBSCRIPTIONS)
        engine.push_many(stream[600:])
        engine.synchronize()
        got = _answers(engine.results)
    assert got == _single_engine_answers(stream)


def test_underload_retires_the_highest_shard(stream):
    pressure = _ScriptedPressure(("cluster-underload", 0))
    with _cluster(3, [0, 1, 2, 2]) as engine:
        scaler = ShardAutoscaler(engine, pressure=pressure)
        engine.push_many(stream[:600])
        record = scaler.tick()
        assert (record["tactic"], record["applied"]) == ("retire-shard", True)
        assert record["detail"] == {"retired_shard": 2}
        assert engine.shards == 2
        assert {engine.shard_of(name) for name, _ in SUBSCRIPTIONS} == {0, 1}
        engine.push_many(stream[600:])
        engine.synchronize()
        got = _answers(engine.results)
    assert got == _single_engine_answers(stream)


def test_shard_bounds_block_both_tactics(stream):
    pressure = _ScriptedPressure(("shard-overload", 0), ("cluster-underload", 1))
    with _cluster(2, [0, 0, 1, 1]) as engine:
        scaler = ShardAutoscaler(engine, pressure=pressure, min_shards=2, max_shards=2)
        engine.push_many(stream[:600])
        for symptom in ("shard-overload", "cluster-underload"):
            record = scaler.tick()
            assert (record["symptom"], record["tactic"], record["applied"]) == (
                symptom,
                None,
                False,
            )
            assert engine.shards == 2
        engine.push_many(stream[600:])
        engine.synchronize()
        got = _answers(engine.results)
    assert got == _single_engine_answers(stream)


def test_cooldown_blocks_actions_until_it_has_passed(stream):
    overload = ("shard-overload", 0)
    pressure = _ScriptedPressure(overload, overload, overload, None, ("cluster-underload", 0))
    with _cluster(1, [0, 0, 0, 0]) as engine:
        scaler = ShardAutoscaler(engine, pressure=pressure, max_shards=3, cooldown_ticks=2)
        engine.push_many(stream[:400])
        applied = []
        for _ in range(5):
            record = scaler.tick()
            applied.append((record["tactic"], record["applied"], engine.shards))
        # Ticks 2 and 3 fall inside the cooldown of tick 1; tick 4 is
        # quiet; tick 5 is past it and retires the spawned shard again.
        assert applied == [
            ("spawn-shard", True, 2),
            (None, False, 2),
            (None, False, 2),
            (None, False, 2),
            ("retire-shard", True, 1),
        ]
        assert scaler.describe()["applied"] == 2
        assert len(scaler.events()) == 5
        engine.push_many(stream[400:])
        engine.synchronize()
        got = _answers(engine.results)
    assert got == _single_engine_answers(stream)
