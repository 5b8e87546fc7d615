"""Tests of the push-based StreamEngine facade.

The central contract (the PR's acceptance criterion): driving any
registered algorithm through ``StreamEngine.push`` produces answers
identical to the legacy pull-based path on every registry dataset, while
the engine's working state stays O(window) even on streams far longer than
the window.
"""

import pytest

from repro.core.exceptions import AlgorithmStateError
from repro.core.query import TopKQuery
from repro.core.result import results_agree
from repro.engine import QuerySpec, StreamEngine
from repro.registry import algorithm_names, create_algorithm
from repro.core.window import slides_for_query
from repro.streams import dataset_names, make_dataset

from ..conftest import make_objects, random_scores

PARITY_QUERY = TopKQuery(n=100, k=5, s=20)
PARITY_LENGTH = 600


def _skip_preference_algorithms(algorithm):
    # Preference algorithms ("clustered") rank by their own vector, not the
    # stream's score, so the score-order parity contract does not apply;
    # their engine parity against independent per-user engines is covered
    # by tests/property/test_property_clustering.py.
    from repro.registry import get_algorithm

    if get_algorithm(algorithm).example_options:
        pytest.skip("preference algorithms are parity-tested in tests/property/")


@pytest.mark.parametrize("dataset", dataset_names())
@pytest.mark.parametrize("algorithm", algorithm_names())
class TestPushParity:
    """Push-based answers match the legacy paths, per algorithm × dataset."""

    def test_matches_pull_based_run(self, algorithm, dataset):
        _skip_preference_algorithms(algorithm)
        objects = make_dataset(dataset).take(PARITY_LENGTH)
        reference = create_algorithm(algorithm, PARITY_QUERY).run(objects)

        engine = StreamEngine()
        subscription = engine.subscribe("q", PARITY_QUERY, algorithm=algorithm)
        engine.push_many(objects)
        engine.flush()

        assert results_agree(subscription.results(), reference)

    def test_matches_run_algorithm_report(self, algorithm, dataset):
        """A subscription's metrics are the run's report: per slide, the
        same candidate count and memory as the reference driver's."""
        _skip_preference_algorithms(algorithm)
        objects = make_dataset(dataset).take(PARITY_LENGTH)
        reference = create_algorithm(algorithm, PARITY_QUERY)
        candidates, memory = [], []
        for event in slides_for_query(objects, PARITY_QUERY):
            reference.process_slide(event)
            candidates.append(reference.candidate_count())
            memory.append(reference.memory_bytes())

        engine = StreamEngine()
        subscription = engine.subscribe(
            "q", PARITY_QUERY, algorithm=algorithm, keep_results=False
        )
        engine.push_many(objects)
        engine.close()

        metrics = subscription.metrics
        assert metrics.slides == metrics.latency_count == len(candidates)
        assert metrics.candidate_total == sum(candidates)
        assert metrics.candidate_max == max(candidates)
        assert metrics.memory_total == sum(memory)
        assert subscription.results() == []


class TestTimeBasedParity:
    def test_time_based_window_matches_pull_run(self):
        objects = make_objects(random_scores(500, seed=9))
        query = QuerySpec().window(120).top(5).slide(30).over_time().build()
        reference = create_algorithm("SAP", query).run(objects)

        engine = StreamEngine()
        subscription = engine.subscribe("q", query)
        engine.push_many(objects)
        engine.flush()

        assert results_agree(subscription.results(), reference)

    def test_flush_is_required_for_final_time_based_report(self):
        objects = make_objects(random_scores(400, seed=10))
        query = TopKQuery(n=100, k=4, s=25, time_based=True)
        engine = StreamEngine()
        subscription = engine.subscribe("q", query)
        engine.push_many(objects)
        before = len(subscription.results())
        engine.flush()
        assert len(subscription.results()) == before + 1


class TestSubscribe:
    def test_accepts_spec_builder_and_query(self):
        engine = StreamEngine()
        engine.subscribe("spec", QuerySpec(n=50, k=3, s=5))
        engine.subscribe("query", TopKQuery(n=50, k=3, s=5))
        assert engine.subscriptions() == ["spec", "query"]

    def test_accepts_algorithm_instance_without_spec(self):
        algorithm = create_algorithm("MinTopK", TopKQuery(n=50, k=3, s=5))
        subscription = StreamEngine().subscribe("q", algorithm=algorithm)
        assert subscription.algorithm is algorithm
        assert subscription.query is algorithm.query

    def test_instance_with_disagreeing_spec_rejected(self):
        algorithm = create_algorithm("SAP", TopKQuery(n=50, k=3, s=5))
        with pytest.raises(ValueError, match="disagrees"):
            StreamEngine().subscribe("q", TopKQuery(n=60, k=3, s=5), algorithm=algorithm)

    def test_algorithm_options_forwarded_to_registry_factory(self):
        subscription = StreamEngine().subscribe(
            "q", TopKQuery(n=50, k=3, s=5), algorithm="SAP", meaningful_policy="eager"
        )
        assert subscription.algorithm._policy == "eager"

    def test_duplicate_name_rejected(self):
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=50, k=3, s=5))
        with pytest.raises(ValueError, match="already subscribed"):
            engine.subscribe("q", TopKQuery(n=60, k=3, s=5))

    def test_spec_required_without_instance(self):
        with pytest.raises(ValueError, match="QuerySpec"):
            StreamEngine().subscribe("q", algorithm="SAP")

    def test_push_without_subscriptions_rejected(self):
        with pytest.raises(ValueError, match="no queries"):
            StreamEngine().push(make_objects([1.0])[0])


class TestCallbacksAndResults:
    def test_callback_sees_every_answer_in_order(self):
        objects = make_objects(random_scores(300, seed=5))
        seen = []
        engine = StreamEngine()
        subscription = engine.subscribe(
            "q",
            TopKQuery(n=60, k=3, s=6),
            on_result=lambda name, result: seen.append((name, result)),
        )
        engine.push_many(objects)
        assert [r for _, r in seen] == subscription.results()
        assert {name for name, _ in seen} == {"q"}

    def test_on_result_after_subscribe_and_multiple_callbacks(self):
        objects = make_objects(random_scores(200, seed=6))
        first, second = [], []
        engine = StreamEngine()
        subscription = engine.subscribe("q", TopKQuery(n=50, k=3, s=10))
        subscription.on_result(lambda name, r: first.append(r)).on_result(
            lambda name, r: second.append(r)
        )
        engine.push_many(objects)
        assert first == second == subscription.results()

    def test_push_returns_completed_answers(self):
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=10, k=2, s=5))
        produced = [engine.push(obj) for obj in make_objects(random_scores(20, seed=7))]
        # The window first fills at object 10, then slides at 15 and 20.
        non_empty = [i for i, p in enumerate(produced) if p]
        assert non_empty == [9, 14, 19]
        assert all(len(p["q"]) == 1 for i, p in enumerate(produced) if i in non_empty)

    def test_keep_results_false_retains_nothing_but_fires_callbacks(self):
        objects = make_objects(random_scores(200, seed=8))
        delivered = []
        engine = StreamEngine()
        subscription = engine.subscribe(
            "q",
            TopKQuery(n=50, k=3, s=10),
            keep_results=False,
            on_result=lambda name, r: delivered.append(r),
        )
        engine.push_many(objects)
        assert subscription.results() == []
        assert subscription.latest() is None
        assert len(delivered) == subscription.results_delivered > 0

    def test_drain_consumes_retained_results(self):
        objects = make_objects(random_scores(200, seed=9))
        engine = StreamEngine()
        subscription = engine.subscribe("q", TopKQuery(n=50, k=3, s=10))
        engine.push_many(objects)
        drained = list(subscription.drain())
        assert len(drained) == subscription.results_delivered
        assert subscription.results() == []


class TestSnapshotAndStats:
    def test_snapshot_reports_live_state(self):
        objects = make_objects(random_scores(250, seed=11))
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=100, k=5, s=25))
        engine.push_many(objects)
        snap = engine.snapshot()["q"]
        assert snap["algorithm"].startswith("SAP")
        assert snap["slides"] == 1 + (250 - 100) // 25
        assert snap["window_size"] == 100
        assert snap["candidate_count"] > 0
        assert len(snap["latest_scores"]) == 5
        assert not snap["closed"]

    def test_stats_expose_the_papers_measures(self):
        objects = make_objects(random_scores(250, seed=12))
        engine = StreamEngine()
        subscription = engine.subscribe("q", TopKQuery(n=100, k=5, s=25))
        engine.push_many(objects)
        stats = subscription.stats()
        assert stats["slides"] == subscription.metrics.slides
        assert stats["average_candidates"] > 0
        assert stats["average_memory_kb"] > 0
        assert stats["max_latency"] >= stats["median_latency"] >= 0

    def test_collect_metrics_false_still_counts_slides(self):
        objects = make_objects(random_scores(200, seed=13))
        engine = StreamEngine()
        subscription = engine.subscribe(
            "q", TopKQuery(n=50, k=3, s=10), collect_metrics=False
        )
        engine.push_many(objects)
        assert subscription.metrics.slides > 0
        assert subscription.metrics.average_candidates == 0.0


class TestLifecycle:
    def test_closed_subscription_stops_consuming(self):
        objects = make_objects(random_scores(300, seed=14))
        engine = StreamEngine()
        keep = engine.subscribe("keep", TopKQuery(n=50, k=3, s=10))
        stop = engine.subscribe("stop", TopKQuery(n=50, k=3, s=10))
        engine.push_many(objects[:150])
        stop.close()
        engine.push_many(objects[150:])
        assert stop.closed
        assert len(keep.results()) > len(stop.results())
        assert stop.snapshot()["closed"]

    def test_unsubscribe_removes_and_closes(self):
        engine = StreamEngine()
        subscription = engine.subscribe("q", TopKQuery(n=50, k=3, s=10))
        engine.unsubscribe("q")
        assert subscription.closed
        assert "q" not in engine
        with pytest.raises(KeyError):
            engine.unsubscribe("q")

    def test_engine_close_is_final(self):
        engine = StreamEngine()
        subscription = engine.subscribe("q", TopKQuery(n=50, k=3, s=10))
        engine.close()
        assert engine.closed and subscription.closed
        assert engine.close() == {}  # idempotent
        with pytest.raises(AlgorithmStateError):
            engine.push(make_objects([1.0])[0])
        with pytest.raises(AlgorithmStateError):
            engine.subscribe("other", TopKQuery(n=50, k=3, s=10))

    def test_close_flushes_time_based_report(self):
        objects = make_objects(random_scores(400, seed=15))
        query = TopKQuery(n=100, k=4, s=25, time_based=True)
        engine = StreamEngine()
        engine.subscribe("q", query)
        engine.push_many(objects)
        produced = engine.close()
        assert "q" in produced and len(produced["q"]) == 1

    def test_context_manager_closes(self):
        with StreamEngine() as engine:
            engine.subscribe("q", TopKQuery(n=50, k=3, s=10))
        assert engine.closed

    def test_drain_results_consumes_every_subscription(self):
        objects = make_objects(random_scores(200, seed=16))
        engine = StreamEngine(keep_results=True)
        engine.subscribe("a", TopKQuery(n=50, k=3, s=10))
        engine.subscribe("b", TopKQuery(n=40, k=2, s=20))
        engine.push_many(objects)
        produced = engine.drain_results()
        assert set(produced) == {"a", "b"}
        assert all(results for results in produced.values())
        # Drained means drained: a second call finds nothing new...
        assert engine.drain_results() == {}
        engine.push_many(make_objects(random_scores(50, seed=17), start_t=200))
        # ...until new slides complete, and empty subscriptions are omitted.
        assert set(engine.drain_results()) == {"a", "b"}

    def test_drain_results_readable_after_close(self):
        engine = StreamEngine(keep_results=True)
        engine.subscribe("q", TopKQuery(n=50, k=3, s=10))
        engine.push_many(make_objects(random_scores(120, seed=18)))
        engine.close()
        # Reading retained answers off a closed engine is allowed — the
        # serving layer drains one final time during shutdown.
        assert engine.drain_results()["q"]


class TestMultiQuery:
    def test_each_subscription_matches_standalone_run(self):
        objects = make_objects(random_scores(500, seed=16))
        queries = {
            "small": TopKQuery(n=60, k=3, s=6),
            "large": TopKQuery(n=200, k=10, s=20),
            "tumbling": TopKQuery(n=100, k=5, s=100),
        }
        engine = StreamEngine()
        for name, query in queries.items():
            engine.subscribe(name, query, algorithm="SAP")
        engine.push_many(objects)
        engine.flush()

        for name, query in queries.items():
            standalone = create_algorithm("SAP", query).run(objects)
            assert results_agree(engine.results(name), standalone), name

    def test_mixed_algorithms_share_one_pass_and_agree(self):
        objects = make_objects(random_scores(400, seed=17))
        query = TopKQuery(n=80, k=4, s=8)
        engine = StreamEngine()
        for algorithm in ("SAP", "MinTopK", "brute-force"):
            engine.subscribe(algorithm, query, algorithm=algorithm)
        engine.push_many(objects)
        assert results_agree(engine.results("SAP"), engine.results("brute-force"))
        assert results_agree(engine.results("MinTopK"), engine.results("brute-force"))


class TestStreamSourceFeed:
    def test_feed_pushes_and_flushes(self):
        from repro.streams import UncorrelatedStream

        engine = StreamEngine()
        subscription = engine.subscribe("q", TopKQuery(n=100, k=5, s=25))
        pushed = UncorrelatedStream(seed=3).feed(engine, 600)
        assert pushed == 600
        assert len(subscription.results()) == 1 + (600 - 100) // 25

        reference = create_algorithm("SAP", subscription.query).run(
            UncorrelatedStream(seed=3).take(600)
        )
        assert results_agree(subscription.results(), reference)
