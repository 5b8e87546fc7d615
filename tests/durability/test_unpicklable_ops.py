"""A durable engine admits only subscription ops its log can hold.

Every subscription op is serialized before it applies.  An op that
cannot be pickled — a ready instance of a class defined inside a
function, an option of such a class — raises
:class:`~repro.core.state.StateSerializationError` and leaves the
engine, its preference-cluster space and its write-ahead log as they
were; the engine then checkpoints and recovers as an uncrashed twin that
was never asked.  Replay is strict: a journaled op naming a subscription
that neither the checkpoint nor the log holds is refused, not skipped.
"""

import pytest

from repro.baselines.brute_force import BruteForceTopK
from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.core.state import StateSerializationError, dumps
from repro.durability import DurabilityError
from repro.engine import QuerySpec, StreamEngine
from repro.partitioning import EqualPartitioner

QUERY = TopKQuery(n=20, k=3, s=5)


def _local_instance(query):
    class Local(BruteForceTopK):  # defined in a function: not picklable
        pass

    return Local(query)


def _local_partitioner():
    class LocalPartitioner(EqualPartitioner):
        pass

    return LocalPartitioner()


def _chunks(count=12, size=5):
    return [
        [
            StreamObject(score=float((t * 37) % 101), t=t,
                         payload={"attributes": (float(t % 7), float(t % 5))})
            for t in range(first, first + size)
        ]
        for first in range(0, count * size, size)
    ]


def _subscribe(engine):
    engine.subscribe("plain", QuerySpec(n=20, k=3, s=5).using("SAP"))
    engine.subscribe("pref", QuerySpec(n=20, k=2, s=5).preferring((1.0, 0.5)))


def _state(engine):
    return (
        engine.subscriptions(),
        engine.groups(),
        engine.cluster_space().snapshot(),
        engine.durability.wal.next_seq,
    )


def _answers(engine):
    return {
        name: [(r.slide_index, r.window_end, r.identity()) for r in engine.results(name)]
        for name in engine.subscriptions()
    }


def test_unpicklable_subscribes_are_refused_up_front(tmp_path):
    engine = StreamEngine.durable(str(tmp_path), checkpoint_interval=2)
    _subscribe(engine)
    before = _state(engine)
    with pytest.raises(StateSerializationError, match="picklable"):
        engine.subscribe("local", algorithm=_local_instance(QUERY))
    assert _state(engine) == before
    # A preference subscribe refused for its option assigns no cluster.
    refused = QuerySpec(n=20, k=3, s=5).using(
        "SAP", partitioner=_local_partitioner()
    ).preferring((0.2, 1.0))
    with pytest.raises(StateSerializationError, match="picklable"):
        engine.subscribe("local-pref", refused)
    assert _state(engine) == before

    twin = StreamEngine()
    _subscribe(twin)
    for chunk in _chunks():
        engine.push_many(chunk)
        twin.push_many(chunk)
    assert engine.durability.store.latest() is not None
    assert _answers(engine) == _answers(twin)

    # Abandon without close (a crash), then recover from the directory.
    recovered = StreamEngine.recover(str(tmp_path))
    assert recovered.subscriptions() == twin.subscriptions() == ["plain", "pref"]
    assert _answers(recovered) == _answers(twin)
    recovered.close()


def test_unpicklable_restore_places_nothing(tmp_path):
    source = StreamEngine()
    source.subscribe("local", algorithm=_local_instance(QUERY))
    for chunk in _chunks(count=5):  # a full window and one slide
        source.push_many(chunk)
    state = source.capture_subscription("local")
    engine = StreamEngine.durable(str(tmp_path))
    _subscribe(engine)
    before = _state(engine)
    with pytest.raises(StateSerializationError):
        engine.restore_subscription(state)
    assert _state(engine) == before
    engine.close()


def test_replay_refuses_an_op_naming_an_unknown_subscription(tmp_path):
    engine = StreamEngine.durable(str(tmp_path))
    _subscribe(engine)
    engine.push_many(_chunks(count=2)[0])
    seq = engine.durability.wal.next_seq
    engine.durability.log_op(dumps(("unsubscribe", "ghost")))
    engine.durability.close()
    with pytest.raises(DurabilityError, match=f"record {seq} .* 'unsubscribe' op"):
        StreamEngine.recover(str(tmp_path))
