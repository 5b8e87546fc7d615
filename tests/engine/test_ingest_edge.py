"""The one ingest edge: validate a chunk before anything applies it.

``push``, ``push_many`` and ``push_block`` all hand their chunks to
``EngineCore._ingest``, which checks that ``t`` strictly increases — within
the chunk and past the last admitted object — before the WAL, the
ingest counter or any query group sees the chunk.  A rejected chunk must
leave the engine exactly as an uncrashed twin that never saw it.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from repro.core.columnar import SlideBlock
from repro.core.exceptions import InvalidQueryError
from repro.core.object import StreamObject
from repro.core.result import results_agree
from repro.core import window as window_module
from repro.core.state import dumps
from repro.core.window import SlideBatcher, SlidingWindow, check_order
from repro.engine import QuerySpec, StreamEngine
from repro.engine import core as engine_core
from repro.registry import create_algorithm

from ..conftest import make_objects, random_scores

STREAM = make_objects(random_scores(200, seed=11))
#: t=100..119, then t=5: out of order in the middle of the chunk.
BAD_CHUNK = STREAM[100:120] + [StreamObject(score=99.0, t=5)]


def _signature(drained):
    return {
        name: [
            (r.slide_index, r.window_end, tuple((o.score, o.t) for o in r.objects))
            for r in results
        ]
        for name, results in sorted(drained.items())
    }


def _subscribe(engine):
    engine.subscribe("sap", QuerySpec(n=40, k=3, s=10).using("SAP"))
    engine.subscribe("min", QuerySpec(n=40, k=2, s=10).using("MinTopK"))
    engine.subscribe("sky", QuerySpec(n=30, k=4, s=5).using("k-skyband"))


def _engine():
    engine = StreamEngine(keep_results=True, return_results=False)
    _subscribe(engine)
    return engine


def _assert_twins(engine, twin):
    assert engine.groups() == twin.groups()
    assert engine.at_checkpoint_boundary() == twin.at_checkpoint_boundary()
    assert _signature(engine.drain_results()) == _signature(twin.drain_results())


def _reject_push_many(engine):
    engine.push_many(BAD_CHUNK)


def _reject_push_block(engine):
    engine.push_block(SlideBlock.from_objects(BAD_CHUNK))


def _reject_wire_block(engine):
    # A block decoded from the wire, as a shard worker or WAL replay has it.
    engine.push_block(SlideBlock.from_bytes(SlideBlock.from_objects(BAD_CHUNK).to_bytes()))


def _reject_push(engine):
    engine.push(StreamObject(score=99.0, t=5))


def _reject_first_position(engine):
    # The chunk itself is ordered; its first t falls below the last admitted.
    engine.push_many([StreamObject(score=99.0, t=5)] + STREAM[100:120])


def _reject_middle_position(engine):
    engine.push_many(STREAM[100:110] + [StreamObject(score=99.0, t=5)] + STREAM[110:120])


@pytest.mark.parametrize(
    "reject",
    [
        _reject_push_many,
        _reject_push_block,
        _reject_wire_block,
        _reject_push,
        _reject_first_position,
        _reject_middle_position,
    ],
)
def test_rejected_chunk_leaves_the_engine_as_its_twin(reject):
    engine, twin = _engine(), _engine()
    engine.push_many(STREAM[:100])
    twin.push_many(STREAM[:100])
    with pytest.raises(InvalidQueryError, match="strictly increasing order of t"):
        reject(engine)
    _assert_twins(engine, twin)
    engine.push_many(STREAM[100:])
    twin.push_many(STREAM[100:])
    _assert_twins(engine, twin)


@pytest.mark.parametrize("position", [0, 10, 20])
def test_order_checks_name_the_first_decrease(position):
    """The engine edge and the window run one check with one message."""
    chunk = STREAM[100:121]
    chunk[position] = StreamObject(score=1.0, t=50)
    previous = 99 if position == 0 else chunk[position - 1].t
    message = re.escape(
        "stream objects must arrive in strictly increasing order of t; "
        f"got t=50 after t={previous}"
    )
    engine = _engine()
    engine.push_many(STREAM[:100])
    with pytest.raises(InvalidQueryError, match=message):
        engine.push_many(chunk)
    window = SlidingWindow()
    window.extend(STREAM[:100])
    with pytest.raises(InvalidQueryError, match=message):
        window.extend(chunk)
    assert window.contents() == STREAM[:100]
    tied = STREAM[100:102] + [StreamObject(score=3.0, t=101)] + STREAM[102:104]
    tie = re.escape("order of t; got t=101 after t=101")
    with pytest.raises(InvalidQueryError, match=tie):
        engine.push_many(tied)
    with pytest.raises(InvalidQueryError, match=tie):
        window.extend(tied)
    assert window.contents() == STREAM[:100]


def test_equal_t_chunk_is_rejected_whole():
    """``t`` identifies an object: a chunk repeating the last admitted
    ``t``, or repeating a ``t`` inside itself, leaves every group as it
    was, and the next valid chunk is accepted."""
    engine, twin = _engine(), _engine()
    engine.push_many(STREAM[:100])
    twin.push_many(STREAM[:100])
    before = dumps(engine.capture_groups())
    for chunk in (
        [StreamObject(score=1.0, t=99)],
        [StreamObject(score=2.0, t=99)] + STREAM[100:110],
        STREAM[100:105] + [StreamObject(score=2.0, t=104)] + STREAM[105:110],
    ):
        with pytest.raises(InvalidQueryError, match="strictly increasing order of t"):
            engine.push_many(chunk)
        assert dumps(engine.capture_groups()) == before
    engine.push_many(STREAM[100:])
    twin.push_many(STREAM[100:])
    _assert_twins(engine, twin)


def test_equal_score_and_t_never_reach_sap():
    """Objects sharing both score and ``t`` once crashed SAP mid-chunk;
    the edge refuses them and the engine stays usable."""
    query = QuerySpec(n=4, k=2, s=2).using("SAP")
    engine = StreamEngine(keep_results=True, return_results=False)
    sap = engine.subscribe("sap", query)
    with pytest.raises(InvalidQueryError):
        engine.push_many([StreamObject(score=0.5, t=i // 2) for i in range(8)])
    # The group never started: no slide, no window position.
    assert [state.position for state in engine.capture_groups()] == [None]
    objects = [StreamObject(score=0.5, t=i) for i in range(8)]
    engine.push_many(objects)
    reference = create_algorithm("brute-force", sap.query).run(objects)
    assert results_agree(sap.results(), reference)


def test_durable_engine_journals_no_record_of_a_rejected_chunk(tmp_path):
    engine = StreamEngine.durable(str(tmp_path), keep_results=True, return_results=False)
    _subscribe(engine)
    engine.push_many(STREAM[:100])
    before = engine.durability.wal.next_seq
    with pytest.raises(InvalidQueryError):
        engine.push_many(BAD_CHUNK)
    with pytest.raises(InvalidQueryError):
        engine.push_block(SlideBlock.from_objects(BAD_CHUNK))
    assert engine.durability.wal.next_seq == before
    engine.push_many(STREAM[100:])
    # Abandon without close (a crash), then recover from the directory.
    recovered = StreamEngine.recover(
        str(tmp_path), keep_results=True, return_results=False
    )
    assert recovered.recovery_report.skipped_chunks == 0
    twin = _engine()
    twin.push_many(STREAM)
    _assert_twins(recovered, twin)
    recovered.close()


def test_restored_window_raises_the_order_mark():
    source = _engine()
    source.push_many(STREAM[:100])
    state = source.capture_subscription("sap")
    target = StreamEngine(keep_results=True, return_results=False)
    # A fresh group first: it would accept anything, so only the mark
    # raised by the restored window (newest t=99) can refuse t=50 before
    # the fresh group starts on it.
    target.subscribe("late", QuerySpec(n=20, k=2, s=5))
    target.restore_subscription(state)
    with pytest.raises(InvalidQueryError):
        target.push_many([StreamObject(score=1.0, t=50)] + STREAM[100:110])
    twin = StreamEngine(keep_results=True, return_results=False)
    twin.subscribe("late", QuerySpec(n=20, k=2, s=5))
    twin.restore_subscription(state)
    _assert_twins(target, twin)
    source.drain_results()
    for engine in (target, twin, source):
        engine.push_many(STREAM[100:])
    drained = target.drain_results()
    assert _signature(drained) == _signature(twin.drain_results())
    assert _signature({"sap": drained["sap"]}) == _signature(
        {"sap": source.drain_results()["sap"]}
    )



def test_standalone_batcher_and_reference_driver_keep_the_order_check():
    """Only windows fed by the engine edge skip the check; a standalone
    ``SlideBatcher`` and ``ContinuousTopKAlgorithm.run`` refuse a
    decrease with the edge's message."""
    query = QuerySpec(n=40, k=3, s=10).build()
    message = re.escape(
        "stream objects must arrive in strictly increasing order of t; "
        "got t=5 after t=119"
    )
    batcher = SlideBatcher(query)
    batcher.push_batch(STREAM[:100])
    with pytest.raises(InvalidQueryError, match=message):
        batcher.push_batch(BAD_CHUNK)
    with pytest.raises(InvalidQueryError, match=message):
        create_algorithm("SAP", query).run(STREAM[:100] + BAD_CHUNK)
    with pytest.raises(InvalidQueryError, match=message):
        _engine().push_many(STREAM[:100] + BAD_CHUNK, chunk_size=121)


def test_engine_path_checks_each_chunk_once(tmp_path, monkeypatch):
    """The edge is the one order check: neither the groups' windows nor
    the write-ahead log check an admitted chunk again."""
    calls = []

    def counting(objects, previous):
        calls.append(len(objects))
        return check_order(objects, previous)

    monkeypatch.setattr(window_module, "check_order", counting)
    monkeypatch.setattr(engine_core, "check_order", counting)
    engine = StreamEngine.durable(str(tmp_path), keep_results=True, return_results=False)
    _subscribe(engine)
    engine.subscribe("late", QuerySpec(n=20, k=2, s=5))
    assert len(engine.groups()) == 3
    engine.push_many(STREAM, chunk_size=40)
    assert calls == [40] * 5
    engine.close()


def test_recovered_engine_resumes_the_order_mark_of_its_log(tmp_path):
    """A checkpoint whose groups have not started holds no window, so
    the recovered engine takes the newest admitted ``t`` from the log."""
    engine = StreamEngine.durable(str(tmp_path), keep_results=True, return_results=False)
    engine.subscribe("gone", QuerySpec(n=20, k=2, s=5))
    engine.push_many(STREAM[:100])
    engine.unsubscribe("gone")
    engine.subscribe("fresh", QuerySpec(n=20, k=2, s=5))
    assert engine.durability.checkpoint(engine)
    engine.durability.close()

    recovered = StreamEngine.recover(str(tmp_path), keep_results=True, return_results=False)
    assert recovered.last_t == 99
    with pytest.raises(InvalidQueryError, match="got t=50 after t=99"):
        recovered.push_many([StreamObject(score=1.0, t=50)])
    recovered.push_many(STREAM[100:])
    reference = create_algorithm("brute-force", recovered.subscription("fresh").query)
    assert results_agree(recovered.results("fresh"), reference.run(STREAM[100:]))
    recovered.close()


#: n=200, k=10, s=20 over 600 objects: the shape that a NaN poisoned.
FINITE_STREAM = make_objects(random_scores(600, seed=29))
WIDE = (200, 10, 20)


def _poisoned(value):
    """``FINITE_STREAM[200:220]`` with ``value`` as the score at t=205."""
    chunk = list(FINITE_STREAM[200:220])
    chunk[5] = StreamObject(score=value, t=chunk[5].t)
    return chunk


def _wide_engine(algorithm):
    engine = StreamEngine(keep_results=True, return_results=False)
    n, k, s = WIDE
    engine.subscribe("q", QuerySpec(n=n, k=k, s=s).using(algorithm))
    return engine


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("algorithm", ["SAP", "SAP-equal", "MinTopK"])
def test_non_finite_score_is_rejected_whole(algorithm, value):
    """One NaN score used to be admitted and then break every later chunk
    of a SAP engine; MinTopK ran on with wrong answers.  The edge refuses
    the chunk, and the engine runs on as a twin that never saw it."""
    engine, twin = _wide_engine(algorithm), _wide_engine(algorithm)
    engine.push_many(FINITE_STREAM[:200])
    twin.push_many(FINITE_STREAM[:200])
    with pytest.raises(InvalidQueryError, match="scores must be finite; got .* at t=205"):
        engine.push_many(_poisoned(value))
    _assert_twins(engine, twin)
    engine.push_many(FINITE_STREAM[200:])
    twin.push_many(FINITE_STREAM[200:])
    _assert_twins(engine, twin)


def _assert_sharded_facade_refuses(value, message):
    from repro.cluster import ShardedStreamEngine

    n, k, s = WIDE
    twin = _wide_engine("SAP")
    with ShardedStreamEngine(2, keep_results=True) as engine:
        engine.subscribe("q", QuerySpec(n=n, k=k, s=s).using("SAP"))
        engine.push_many(FINITE_STREAM[:200])
        twin.push_many(FINITE_STREAM[:200])
        with pytest.raises(InvalidQueryError, match=message):
            engine.push_many(_poisoned(value))
        engine.push_many(FINITE_STREAM[200:])
        twin.push_many(FINITE_STREAM[200:])
        engine.synchronize()
        assert _signature(engine.drain_results()) == _signature(twin.drain_results())


def test_sharded_facade_rejects_a_non_finite_chunk_whole():
    _assert_sharded_facade_refuses(float("nan"), "scores must be finite")


def test_durable_engine_journals_no_record_of_a_non_finite_chunk(tmp_path):
    engine = StreamEngine.durable(str(tmp_path), keep_results=True, return_results=False)
    _subscribe(engine)
    engine.push_many(STREAM[:100])
    before = engine.durability.wal.next_seq
    bad = STREAM[100:110] + [StreamObject(score=float("nan"), t=110)]
    with pytest.raises(InvalidQueryError, match="scores must be finite"):
        engine.push_many(bad)
    with pytest.raises(InvalidQueryError, match="scores must be finite"):
        engine.push_block(SlideBlock.from_objects(bad))
    assert engine.durability.wal.next_seq == before
    engine.close()


def test_checked_windows_refuse_non_finite_scores():
    """Standalone windows and the reference driver run the same check."""
    query = QuerySpec(n=40, k=3, s=10).build()
    bad = STREAM[100:110] + [StreamObject(score=float("inf"), t=110)]
    window = SlidingWindow()
    window.extend(STREAM[:100])
    with pytest.raises(InvalidQueryError, match="got inf at t=110"):
        window.extend(bad)
    assert window.contents() == STREAM[:100]
    with pytest.raises(InvalidQueryError, match="got inf at t=110"):
        create_algorithm("SAP", query).run(STREAM[:100] + bad)


def test_finite_scores_whose_sum_overflows_are_admitted():
    """The check sums the scores first; an overflowing sum of finite
    scores (or an int past 2**53 that float64 holds exactly) is no reason
    to refuse."""
    chunk = [StreamObject(score=1e308, t=i) for i in range(3)]
    chunk.append(StreamObject(score=2**1000, t=3))
    assert check_order(chunk, -1) == 3


#: Scores float64 cannot hold: a repeating fraction, an odd int past 2**53
#: (Python and numpy), and an int past the float64 range.
INEXACT = [Fraction(1, 3), 2**60 + 1, np.int64(2**60 + 1), 10**400]


def _inexact_push_many(engine, chunk):
    engine.push_many(chunk)


def _inexact_push(engine, chunk):
    engine.push_many(chunk[:5])
    engine.push(chunk[5])


def _inexact_push_block(engine, chunk):
    # A packed block cannot hold such a score; one built with an object
    # column hands it to the edge as it is.
    block = SlideBlock.from_objects(FINITE_STREAM[200:220])
    block.scores = np.array([obj.score for obj in chunk], dtype=object)
    engine.push_block(block)


@pytest.mark.parametrize("value", INEXACT, ids=repr)
@pytest.mark.parametrize("push", [_inexact_push_many, _inexact_push, _inexact_push_block])
def test_inexact_score_is_rejected_whole(push, value):
    """Scores like ``Fraction(1, 3) - j / 10**30`` or ``2**60 - j`` once
    reached SAP, whose float64 ranking then disagreed with brute force.
    The edge refuses the chunk and names the offending object."""
    engine, twin = _wide_engine("SAP"), _wide_engine("SAP")
    engine.push_many(FINITE_STREAM[:200])
    twin.push_many(FINITE_STREAM[:200])
    if push is _inexact_push:
        twin.push_many(FINITE_STREAM[200:205])
    message = re.escape(f"held exactly by float64; got {value!r} at t=205")
    with pytest.raises(InvalidQueryError, match=message):
        push(engine, _poisoned(value))
    _assert_twins(engine, twin)
    rest = FINITE_STREAM[205:] if push is _inexact_push else FINITE_STREAM[200:]
    engine.push_many(rest)
    twin.push_many(rest)
    _assert_twins(engine, twin)


def test_sharded_facade_rejects_an_inexact_chunk_whole():
    _assert_sharded_facade_refuses(Fraction(1, 3), "held exactly by float64")


def test_exact_non_float_scores_are_admitted_and_agree():
    """Ints within 2**53 and fractions with a power-of-two denominator
    are exact in float64: the edge admits them and SAP stays exact."""
    objects = [
        StreamObject(score=(j * 7919) % 1000 if j % 2 else Fraction((j * 31) % 97, 4), t=j)
        for j in range(400)
    ]
    engine = _wide_engine("SAP")
    engine.push_many(objects)
    reference = create_algorithm("brute-force", engine.subscription("q").query)
    assert results_agree(engine.results("q"), reference.run(objects))


#: Arrival orders and timestamps the columns cannot hold, each on the last
#: object of ``FINITE_STREAM[200:220]`` (t=219), with the edge's message.
BAD_ORDERS = {
    "t past int64": (dict(t=2**63), "t must fit in int64; got t=9223372036854775808"),
    "float t": (dict(t=219.5), "t must be an integer; got 219.5"),
    "bool t": (dict(t=True), "t must be an integer; got True"),
    "float timestamp": (dict(timestamp=219.0), "None or an integer within int64; got 219.0"),
}


def _bad_order(fields):
    chunk = list(FINITE_STREAM[200:220])
    last = chunk[-1]
    chunk[-1] = StreamObject(**{"score": last.score, "t": last.t, **fields})
    return chunk


def test_sharded_facade_refuses_what_the_columns_cannot_hold():
    """The facade checks each chunk before its router encodes it: a chunk
    the columns cannot hold is refused whole, the order mark stays, and
    the shards run on as a twin that never saw it."""
    from repro.cluster import ShardedStreamEngine

    n, k, s = WIDE
    twin = _wide_engine("SAP")
    with ShardedStreamEngine(2, keep_results=True) as engine:
        engine.subscribe("q", QuerySpec(n=n, k=k, s=s).using("SAP"))
        engine.push_many(FINITE_STREAM[:200])
        twin.push_many(FINITE_STREAM[:200])
        for fields, message in BAD_ORDERS.values():
            with pytest.raises(InvalidQueryError, match=re.escape(message)):
                engine.push_many(_bad_order(fields))
            assert engine.last_t == 199
        engine.push_many(FINITE_STREAM[200:])
        twin.push_many(FINITE_STREAM[200:])
        engine.synchronize()
        assert _signature(engine.drain_results()) == _signature(twin.drain_results())


@pytest.mark.parametrize("name", list(BAD_ORDERS))
def test_standalone_window_refuses_what_the_columns_cannot_hold(name):
    fields, message = BAD_ORDERS[name]
    window = SlidingWindow()
    window.extend(FINITE_STREAM[:200])
    with pytest.raises(InvalidQueryError, match=re.escape(message)):
        window.extend(_bad_order(fields))
    assert window.contents() == FINITE_STREAM[:200]
    assert window.newest.t == 199
    window.extend(FINITE_STREAM[200:220])
    assert window.newest.t == 219
