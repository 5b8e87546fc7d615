"""Unit tests for the incremental slide batcher."""

import random

import pytest

from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.core.window import SlideBatcher, slides_for_query

from ..conftest import make_objects, random_scores
from ..window_reference import reference_slides


def _batch_all(objects, query):
    batcher = SlideBatcher(query)
    events = []
    for obj in objects:
        events.extend(batcher.push(obj))
    events.extend(batcher.flush())
    return events


def _events_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.index == b.index
        assert a.window_end == b.window_end
        assert [o.t for o in a.arrivals] == [o.t for o in b.arrivals]
        assert [o.t for o in a.expirations] == [o.t for o in b.expirations]


class TestCountBasedBatcher:
    @pytest.mark.parametrize("n,s", [(5, 1), (6, 2), (10, 10), (7, 3)])
    def test_matches_generator(self, n, s):
        query = TopKQuery(n=n, k=1, s=s)
        objects = make_objects(random_scores(40, seed=n * 10 + s))
        expected = list(reference_slides(objects, query))
        _events_equal(_batch_all(objects, query), expected)
        _events_equal(list(slides_for_query(objects, query)), expected)

    def test_no_events_before_window_fills(self):
        query = TopKQuery(n=10, k=2, s=2)
        batcher = SlideBatcher(query)
        for obj in make_objects(range(9)):
            assert batcher.push(obj) == []

    def test_backing_list_stays_within_twice_the_window(self):
        n, s = 200, 50
        batcher = SlideBatcher(TopKQuery(n=n, k=5, s=s))
        objects = make_objects(random_scores(100 * n, seed=4))
        largest = 0
        for start in range(0, len(objects), 37):
            batcher.push_batch(objects[start : start + 37])
            largest = max(largest, len(batcher._window._objects))
        assert largest <= 2 * (n + s)
        assert batcher.window_contents() == objects[-n - batcher.pending_count() :]

    def test_flush_is_noop_for_count_based(self):
        query = TopKQuery(n=5, k=1, s=1)
        batcher = SlideBatcher(query)
        for obj in make_objects(range(5)):
            batcher.push(obj)
        assert batcher.flush() == []


class TestTimeBasedBatcher:
    def _timed(self, count, seed=1):
        rng = random.Random(seed)
        timestamp = 0
        objects = []
        for t in range(count):
            if rng.random() < 0.6:
                timestamp += rng.randint(1, 3)
            objects.append(StreamObject(score=rng.uniform(0, 10), t=t, timestamp=timestamp))
        return objects

    def test_matches_generator_including_final_flush(self):
        query = TopKQuery(n=20, k=2, s=5, time_based=True)
        objects = self._timed(200)
        expected = list(reference_slides(objects, query))
        _events_equal(_batch_all(objects, query), expected)
        _events_equal(list(slides_for_query(objects, query)), expected)

    def test_flush_emits_final_report(self):
        query = TopKQuery(n=10, k=1, s=5, time_based=True)
        objects = self._timed(50)
        batcher = SlideBatcher(query)
        for obj in objects:
            batcher.push(obj)
        assert len(batcher.flush()) == 1
