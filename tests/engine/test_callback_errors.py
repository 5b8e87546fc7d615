"""A raising result callback must not leave the engine half-advanced.

Every group and member still consumes the whole chunk (window, answers,
retention, the other callbacks), and the ingest edge re-raises the first
callback error afterwards, so the engine matches a twin whose callbacks
never failed and keeps accepting the stream.
"""

import pytest

from repro import StreamEngine, TopKQuery

from ..conftest import make_objects, random_scores

QUERY = TopKQuery(n=100, k=5, s=10)
STREAM = make_objects(random_scores(400, seed=3))


def _raise_on(call, error):
    """A callback that raises ``error`` on its ``call``-th answer."""
    seen = []

    def callback(name, result):
        seen.append(result.slide_index)
        if len(seen) == call:
            raise error

    return callback, seen


def _engine(callback, factory=StreamEngine):
    engine = factory()
    engine.subscribe("a", QUERY, algorithm="SAP", on_result=callback)
    engine.subscribe("b", QUERY, algorithm="SAP")
    return engine


def _groups(engine):
    """A comparable form of ``capture_groups()``."""
    return [
        (
            tuple(obj.t for obj in group.window),
            group.slide_index,
            [(positions, k_max, type(configuration))
             for positions, k_max, configuration in group.plans],
            [
                (
                    member.name,
                    member.k,
                    type(member.algorithm),
                    [result.identity() for result in member.results],
                    member.results_delivered,
                    member.metrics.slides,
                )
                for member in group.members
            ],
        )
        for group in engine.capture_groups()
    ]


def _drained(engine):
    return {
        name: [(r.slide_index, r.identity()) for r in results]
        for name, results in engine.drain_results().items()
    }


def test_raising_callback_finishes_the_chunk_like_a_clean_twin():
    error = RuntimeError("consumer bug")
    faulty, seen = _raise_on(3, error)
    engine = _engine(faulty)
    twin = _engine(lambda name, result: None)
    with pytest.raises(RuntimeError, match="consumer bug") as raised:
        engine.push_many(STREAM[:200])
    assert raised.value is error
    (group,) = engine.groups()
    assert [plan["members"] for plan in group["plans"]] == [["a", "b"]]
    twin.push_many(STREAM[:200])
    # Every slide of the chunk reached the callback, the raising one too.
    assert seen == list(range(11))
    assert _groups(engine) == _groups(twin)
    assert _drained(engine) == _drained(twin)

    engine.push_many(STREAM[200:])
    twin.push_many(STREAM[200:])
    assert _groups(engine) == _groups(twin)
    assert _drained(engine) == _drained(twin)
    assert seen == list(range(31))


def test_other_callbacks_run_and_the_first_error_is_raised():
    first, _ = _raise_on(1, ValueError("first"))
    engine = _engine(first)
    later, _ = _raise_on(1, KeyError("later"))
    after = []
    engine.subscription("a").on_result(lambda name, result: after.append(result))
    engine.subscription("b").on_result(later)
    with pytest.raises(ValueError, match="first"):
        engine.push_many(STREAM[:120])
    assert [result.slide_index for result in after] == [0, 1, 2]
    assert len(engine.results("b")) == 3


def test_push_and_flush_reraise_after_the_slide():
    query = TopKQuery(n=10, k=2, s=5, time_based=True)
    calls = []

    def failing(name, result):
        calls.append(result.slide_index)
        raise RuntimeError("flush consumer")

    engine = StreamEngine()
    engine.subscribe("t", query, algorithm="brute-force", on_result=failing)
    engine.subscribe("u", query, algorithm="brute-force")
    for obj in STREAM[:12]:
        try:
            engine.push(obj)
        except RuntimeError:
            pass
    assert len(engine.results("u")) == len(calls)
    with pytest.raises(RuntimeError, match="flush consumer"):
        engine.close()
    assert engine.closed
    assert len(engine.results("u")) == len(calls)


def test_durable_engine_recovers_what_the_live_engine_showed(tmp_path):
    faulty, _ = _raise_on(3, RuntimeError("consumer bug"))

    def durable():
        return StreamEngine.durable(str(tmp_path), checkpoint_interval=1000)

    engine = _engine(faulty, durable)
    with pytest.raises(RuntimeError):
        engine.push_many(STREAM[:200])
    engine.push_many(STREAM[200:300])
    live = _groups(engine)
    engine.durability.close()  # crash: no checkpoint, the WAL holds it all

    recovered = StreamEngine.recover(str(tmp_path))
    assert _groups(recovered) == live
    recovered.close()
