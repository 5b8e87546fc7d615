"""O(window) memory on streams much longer than the window.

The acceptance criterion of the StreamEngine redesign: pushing a stream far
longer than ``n`` must not materialise it — the engine's working state is
one window of objects plus whatever answers the caller retains.
"""

import random
import tracemalloc
from typing import Iterator

from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.engine import StreamEngine

WINDOW = 200
STREAM_LENGTH = 50 * WINDOW  # 10,000 objects — 50 windows' worth


def endless_scores(count: int, seed: int = 0) -> Iterator[StreamObject]:
    """A generator (no ``__len__``) standing in for an unbounded feed."""
    rng = random.Random(seed)
    for t in range(count):
        yield StreamObject(score=rng.uniform(0.0, 100.0), t=t)


class TestUnboundedStreams:
    def test_engine_state_stays_bounded_by_window(self):
        query = TopKQuery(n=WINDOW, k=10, s=50)
        engine = StreamEngine()
        subscription = engine.subscribe("q", query, result_buffer=4)

        high_water = 0
        for obj in endless_scores(STREAM_LENGTH, seed=1):
            engine.push(obj)
            high_water = max(high_water, subscription.window_size())
            assert len(subscription.results()) <= 4

        # Between slides the batcher buffers at most one extra (partial)
        # slide on top of the window — still O(window), never O(stream).
        assert high_water <= WINDOW + query.s
        assert subscription.results_delivered == 1 + (STREAM_LENGTH - WINDOW) // 50
        # The buffer retained only the most recent answers.
        retained = subscription.results()
        assert len(retained) == 4
        assert retained[-1].slide_index == subscription.results_delivered - 1

    def test_push_many_consumes_generators_lazily(self):
        query = TopKQuery(n=WINDOW, k=5, s=50)
        engine = StreamEngine()
        exhausted = [False]
        first_result_saw_exhausted = []

        def feed() -> Iterator[StreamObject]:
            yield from endless_scores(STREAM_LENGTH, seed=2)
            exhausted[0] = True

        engine.subscribe(
            "q",
            query,
            keep_results=False,
            on_result=lambda name, r: first_result_saw_exhausted.append(exhausted[0]),
        )
        pushed = engine.push_many(feed())
        assert pushed == STREAM_LENGTH
        # Answers were delivered while the generator was still producing —
        # the stream was processed incrementally, not materialised first.
        assert first_result_saw_exhausted[0] is False

    def test_peak_memory_does_not_scale_with_stream_length(self):
        """Doubling the stream 5x leaves peak allocation roughly flat."""
        query = TopKQuery(n=WINDOW, k=5, s=50)

        def peak_for(length: int) -> int:
            engine = StreamEngine()
            engine.subscribe("q", query, keep_results=False)
            tracemalloc.start()
            engine.push_many(endless_scores(length, seed=3))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        short_peak = peak_for(2 * WINDOW)
        long_peak = peak_for(10 * WINDOW)
        # O(window) behaviour: a 5x longer stream must not need 3x the
        # memory (a materialising implementation needs ~5x).
        assert long_peak < 3 * short_peak


class TestAlgorithmPushLifecycle:
    """The core interface's own hooks, used without an engine."""

    def test_snapshot_and_close_hooks(self):
        from repro.registry import create_algorithm

        query = TopKQuery(n=50, k=3, s=10)
        algorithm = create_algorithm("SAP", query)
        algorithm.run(endless_scores(120, seed=5))
        snap = algorithm.snapshot()
        assert snap["algorithm"].startswith("SAP")
        assert snap["candidate_count"] == algorithm.candidate_count()
        algorithm.close()  # default hook is a no-op
