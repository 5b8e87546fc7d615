"""Unit tests for the sliding-window substrate (count- and time-based)."""

import pytest

from repro.core.exceptions import InvalidQueryError
from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.core.state import dumps, loads
from repro.core.window import (
    SlidingWindow,
    count_based_slides,
    slides_for_query,
    time_based_slides,
)
from repro.engine import StreamEngine
from repro.engine.group import QueryGroup

from ..conftest import make_objects, random_scores


def _count(s):
    return TopKQuery(n=s * 4, k=1, s=s)


def _answers(queries, objects, chunk=None):
    """Answers and groups of one engine fed ``objects`` whole, or in
    chunks of ``chunk`` and captured after every one of them and resumed
    on a fresh engine each time."""
    engine = StreamEngine()
    for index, query in enumerate(queries):
        engine.subscribe(
            f"q{index}", TopKQuery(n=query.n, k=2, s=query.s, time_based=query.time_based)
        )
    size = chunk or len(objects)
    for start in range(0, len(objects), size):
        engine.push_many(objects[start : start + size], chunk_size=size)
        if chunk is not None:
            resumed = StreamEngine()
            resumed.restore_groups(loads(dumps(engine.capture_groups())), engine.subscriptions())
            engine = resumed
    engine.flush()
    answers = {
        name: [(r.slide_index, r.window_end, r.identity()) for r in engine.results(name)]
        for name in engine.subscriptions()
    }
    return answers, engine.groups()


@pytest.mark.parametrize(
    "windows, chunk, aligned",
    [
        # ``aligned`` is the chunk the deleted slide alignment chose for
        # ``chunk``: the lcm of the slide sizes (12 here), rounded down.
        ([_count(4), _count(6)], 1, 12),
        ([_count(4), _count(6)], 10, 12),
        ([_count(4), _count(6)], 12, 12),
        ([_count(4), _count(6)], 50, 48),
        ([], 1, 1),
        ([], 50, 50),
        # Coprime slides whose lcm passed the alignment ceiling.
        ([_count(7919), _count(7927)], 1, 1),
        ([_count(7919), _count(7927)], 100, 100),
        # Time-based windows and query groups.
        ([_count(4), TopKQuery(n=60, k=1, s=6, time_based=True)], 10, 8),
        ([_count(4), QueryGroup(60, 6, False)], 10, 12),
        ([_count(4), QueryGroup(60, 6, True)], 10, 8),
    ],
)
def test_aligned_chunk(windows, chunk, aligned):
    """No chunk needs aligning to the slides: an engine captured after
    every chunk, of the old aligned size or not, and resumed on a fresh
    engine each time answers exactly as an uncaptured one."""
    queries = windows or [TopKQuery(n=9, k=1, s=4)]
    objects = make_objects(random_scores(3 * max(chunk, aligned) + 7, seed=chunk))
    expected = _answers(queries, objects)
    assert _answers(queries, objects, chunk) == expected
    assert _answers(queries, objects, aligned) == expected


class TestSlidingWindow:
    def test_append_and_len(self):
        window = SlidingWindow()
        for obj in make_objects([1, 2, 3]):
            window.append(obj)
        assert len(window) == 3
        assert window.oldest.t == 0 and window.newest.t == 2

    def test_out_of_order_append_rejected(self):
        window = SlidingWindow()
        window.append(StreamObject(score=1.0, t=5))
        with pytest.raises(InvalidQueryError):
            window.append(StreamObject(score=1.0, t=4))

    def test_expire_oldest(self):
        window = SlidingWindow()
        for obj in make_objects([1, 2, 3, 4]):
            window.append(obj)
        removed = window.expire_oldest(2)
        assert [o.t for o in removed] == [0, 1]
        assert len(window) == 2

    def test_expire_older_than_uses_arrival_time(self):
        window = SlidingWindow()
        window.append(StreamObject(score=1.0, t=0, timestamp=10))
        window.append(StreamObject(score=1.0, t=1, timestamp=20))
        removed = window.expire_older_than(15)
        assert [o.t for o in removed] == [0]


class TestCountBasedSlides:
    def test_first_event_contains_full_window(self):
        query = TopKQuery(n=5, k=2, s=2)
        events = list(count_based_slides(make_objects(range(11)), query))
        assert len(events[0].arrivals) == 5
        assert events[0].expirations == ()
        assert events[0].index == 0

    def test_subsequent_events_have_s_arrivals_and_expirations(self):
        query = TopKQuery(n=5, k=2, s=2)
        events = list(count_based_slides(make_objects(range(11)), query))
        for event in events[1:]:
            assert len(event.arrivals) == query.s
            assert len(event.expirations) == query.s

    def test_number_of_events(self):
        query = TopKQuery(n=5, k=2, s=2)
        events = list(count_based_slides(make_objects(range(11)), query))
        # 5 objects fill the window, then 3 complete slides of 2 objects.
        assert len(events) == 4

    def test_trailing_partial_slide_discarded(self):
        query = TopKQuery(n=4, k=1, s=3)
        events = list(count_based_slides(make_objects(range(9)), query))
        # window at 4 objects, one full slide (3 objects), 2 leftovers dropped.
        assert len(events) == 2

    def test_expirations_are_oldest_objects(self):
        query = TopKQuery(n=4, k=1, s=2)
        events = list(count_based_slides(make_objects(range(8)), query))
        assert [o.t for o in events[1].expirations] == [0, 1]
        assert [o.t for o in events[2].expirations] == [2, 3]

    def test_short_stream_yields_nothing(self):
        query = TopKQuery(n=10, k=1, s=1)
        assert list(count_based_slides(make_objects(range(5)), query)) == []

    def test_window_invariant_holds_at_every_event(self):
        query = TopKQuery(n=6, k=2, s=3)
        objects = make_objects(range(30))
        live = []
        for event in count_based_slides(objects, query):
            expired_ids = {o.t for o in event.expirations}
            live = [o for o in live if o.t not in expired_ids] + list(event.arrivals)
            assert len(live) == query.n
            assert [o.t for o in live] == sorted(o.t for o in live)

    def test_rejects_time_based_query(self):
        query = TopKQuery(n=5, k=2, s=2, time_based=True)
        with pytest.raises(InvalidQueryError):
            list(count_based_slides(make_objects(range(10)), query))


class TestTimeBasedSlides:
    def _timed_objects(self, timestamps, scores=None):
        scores = scores or [1.0] * len(timestamps)
        return [
            StreamObject(score=float(s), t=i, timestamp=ts)
            for i, (ts, s) in enumerate(zip(timestamps, scores))
        ]

    def test_basic_reporting(self):
        query = TopKQuery(n=10, k=2, s=5, time_based=True)
        objects = self._timed_objects(list(range(0, 30)))
        events = list(time_based_slides(objects, query))
        assert events, "expected at least one report"
        assert events[0].index == 0

    def test_live_set_matches_window_duration(self):
        query = TopKQuery(n=10, k=2, s=5, time_based=True)
        objects = self._timed_objects(list(range(0, 40)))
        live = []
        for event in time_based_slides(objects, query):
            expired_ids = {o.t for o in event.expirations}
            live = [o for o in live if o.t not in expired_ids] + list(event.arrivals)
            spread = max(o.arrival_time for o in live) - min(o.arrival_time for o in live)
            assert spread <= query.n

    def test_expirations_never_include_undelivered_objects(self):
        query = TopKQuery(n=5, k=1, s=5, time_based=True)
        # Objects arriving long before the first report must not be reported
        # as expirations of objects that never arrived.
        objects = self._timed_objects([0, 1, 2, 20, 21, 40, 41])
        delivered = set()
        for event in time_based_slides(objects, query):
            for obj in event.expirations:
                assert obj.t in delivered
            delivered.update(o.t for o in event.arrivals)

    def test_rejects_count_based_query(self):
        query = TopKQuery(n=5, k=2, s=2)
        with pytest.raises(InvalidQueryError):
            list(time_based_slides(make_objects(range(10)), query))

    def test_empty_stream(self):
        query = TopKQuery(n=5, k=2, s=2, time_based=True)
        assert list(time_based_slides([], query)) == []


class TestDispatch:
    def test_slides_for_query_dispatches_on_window_type(self):
        objects = make_objects(range(20))
        count_query = TopKQuery(n=5, k=2, s=5)
        time_query = TopKQuery(n=5, k=2, s=5, time_based=True)
        count_events = list(slides_for_query(objects, count_query))
        time_events = list(slides_for_query(objects, time_query))
        assert count_events and time_events
        assert len(count_events[0].arrivals) == 5
