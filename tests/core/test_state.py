"""Unit tests for the serialization layer (:mod:`repro.core.state`)."""

import pickle

import pytest

from repro import StreamEngine
from repro.core.exceptions import InvalidQueryError
from repro.core.framework import SAPTopK
from repro.core.query import TopKQuery
from repro.core.state import (
    STATE_FORMAT_VERSION,
    GroupState,
    StateSerializationError,
    StateVersionError,
    check_version,
    dumps,
    loads,
    replay_event,
)
from repro.core.window import SlideBatcher
from repro.baselines.brute_force import BruteForceTopK
from repro.baselines.sma import SMATopK

from ..conftest import make_objects, random_scores

QUERY = TopKQuery(n=60, k=4, s=10)


def engine_at(objects, query=QUERY):
    """A one-subscription engine ("q") fed ``objects`` in slide chunks."""
    engine = StreamEngine()
    engine.subscribe("q", query, algorithm="SAP")
    if objects:
        engine.push_many(objects, chunk_size=query.s)
    return engine


class TestCapture:
    def test_capture_is_versioned_and_fresh(self):
        engine = engine_at(make_objects(random_scores(120)))
        group = engine.subscription("q").group
        state = engine.capture_subscription("q")
        assert isinstance(state, GroupState)
        assert state.version == STATE_FORMAT_VERSION
        assert state.slide_index == group.last_slide_index()
        assert state.position == (state.slide_index, tuple(range(60, 120)), 0, None)
        assert len(state.window) == QUERY.n
        (member,) = state.members
        assert member.version == STATE_FORMAT_VERSION
        # The captured algorithm is a respawn: configuration, no state.
        assert member.algorithm is not engine.subscription("q").algorithm
        assert member.algorithm.candidate_count() == 0

    def test_capture_before_first_slide_holds_the_filling_window(self):
        fresh = engine_at(())
        state = fresh.capture_subscription("q")
        assert state.window == () and state.slide_index is None
        assert state.position is None
        # A partially filled window is all pending, and restores as such.
        objects = make_objects(random_scores(130, seed=5))
        partial = engine_at(objects[:30])
        state = partial.capture_subscription("q")
        assert state.window == () and state.slide_index is None
        assert state.pending == tuple(objects[:30])
        assert state.position == (None, tuple(range(30)), 30, None)
        resumed = StreamEngine()
        resumed.restore_subscription(state)
        resumed.push_many(objects[30:])
        assert [r.scores for r in resumed.results("q")] == [
            r.scores for r in engine_at(objects).results("q")
        ]

    def test_restored_member_is_a_respawned_instance(self):
        state = engine_at(make_objects(random_scores(120))).capture_subscription("q")
        restored = StreamEngine().restore_subscription(state)
        assert isinstance(restored.algorithm, SAPTopK)
        assert restored.algorithm is not state.members[0].algorithm


class TestRestore:
    def test_round_trip_continues_byte_identical(self):
        objects = make_objects(random_scores(300, seed=7))
        expected = [r.scores for r in engine_at(objects).results("q")]

        source = engine_at(objects[:150])
        state = loads(dumps(source.capture_subscription("q")))
        head = [r.scores for r in source.results("q")]
        resumed = StreamEngine()
        resumed.restore_groups((state,))
        assert [r.scores for r in resumed.results("q")] == head
        resumed.push_many(objects[150:], chunk_size=QUERY.s)
        assert [r.scores for r in resumed.results("q")] == expected

    def test_restore_twice_yields_independent_instances(self):
        state = engine_at(make_objects(random_scores(120))).capture_subscription("q")
        first = StreamEngine().restore_subscription(state)
        second = StreamEngine().restore_subscription(state)
        assert first.algorithm is not second.algorithm
        assert first.algorithm is not state.members[0].algorithm
        assert second.algorithm is not state.members[0].algorithm

    def test_sma_respawn_preserves_configuration(self):
        algorithm = SMATopK(QUERY, kmax_factor=3, grid_cells=16)
        respawned = algorithm.respawn()
        assert respawned._kmax == 3 * QUERY.k
        assert respawned._grid_cells == 16


class TestWireFormat:
    def test_version_mismatch_rejected(self):
        state = engine_at(()).capture_subscription("q")
        stale = GroupState(
            version=STATE_FORMAT_VERSION + 1,
            n=state.n,
            s=state.s,
            window=state.window,
            slide_index=state.slide_index,
            members=state.members,
        )
        with pytest.raises(StateVersionError, match="GroupState format version"):
            loads(dumps(stale))
        with pytest.raises(StateVersionError):
            check_version(stale)
        with pytest.raises(StateVersionError):
            StreamEngine().restore_groups((stale,))
        with pytest.raises(TypeError, match="expected GroupState"):
            check_version(state.members[0], GroupState)

    def test_unpicklable_state_raises_clear_error(self):
        class Local(BruteForceTopK):  # defined in a function: not picklable
            pass

        engine = StreamEngine()
        engine.subscribe("q", algorithm=Local(TopKQuery(n=60, k=4, s=10)))
        with pytest.raises(StateSerializationError, match="picklable"):
            dumps(engine.capture_subscription("q"))

    def test_loads_round_trips_plain_pickles(self):
        # Payloads without a ``version`` attribute pass through untouched.
        assert loads(pickle.dumps({"a": 1})) == {"a": 1}


class TestReplayEvent:
    def test_replay_event_shape(self):
        window = tuple(make_objects([1.0, 2.0, 3.0]))
        event = replay_event(window, 7)
        assert event.index == 7
        assert event.arrivals == window
        assert event.expirations == ()
        assert event.window_end == window[-1].t

    def test_empty_window_replay(self):
        event = replay_event((), 0)
        assert event.window_end == 0


class TestBatcherSeed:
    def test_seed_continues_like_uninterrupted(self):
        objects = make_objects(random_scores(200, seed=3))
        reference = SlideBatcher(QUERY)
        expected = []
        for obj in objects:
            expected.extend(reference.push(obj))

        first = SlideBatcher(QUERY)
        head = []
        for obj in objects[:103]:
            head.extend(first.push(obj))
        second = SlideBatcher(QUERY)
        second.seed(first.reported_window(), first.last_index, first.pending())
        assert second.window_contents() == first.window_contents()
        assert second.pending_count() == 3
        tail = []
        for obj in objects[103:]:
            tail.extend(second.push(obj))
        got = head + tail
        assert [e.index for e in got] == [e.index for e in expected]
        assert [e.arrivals for e in got] == [e.arrivals for e in expected]
        assert [e.expirations for e in got] == [e.expirations for e in expected]

    def test_seed_rejects_wrong_size(self):
        batcher = SlideBatcher(QUERY)
        with pytest.raises(InvalidQueryError, match="cannot hold"):
            batcher.seed(tuple(make_objects([1.0])), 0)
        with pytest.raises(InvalidQueryError, match="cannot hold"):
            batcher.seed((), None, tuple(make_objects(random_scores(60))))

    def test_seed_rejects_used_batcher(self):
        batcher = SlideBatcher(QUERY)
        batcher.push(make_objects([1.0])[0])
        with pytest.raises(InvalidQueryError, match="consumed"):
            batcher.seed(tuple(make_objects(random_scores(60))), 0)

    def test_seed_continues_a_time_based_window(self):
        query = TopKQuery(n=60, k=4, s=10, time_based=True)
        objects = make_objects(random_scores(200, seed=3))
        expected = SlideBatcher(query).push_batch(objects)
        first = SlideBatcher(query)
        head = first.push_batch(objects[:97])
        second = SlideBatcher(query)
        second.seed(first.reported_window(), first.last_index, first.pending(),
                    first.report_time)
        got = head + second.push_batch(objects[97:])
        assert [(e.index, e.arrivals, e.expirations) for e in got] == [
            (e.index, e.arrivals, e.expirations) for e in expected
        ]

    def test_seed_rejects_negative_index(self):
        batcher = SlideBatcher(QUERY)
        with pytest.raises(InvalidQueryError, match="last_index"):
            batcher.seed(tuple(make_objects(random_scores(60))), -1)
