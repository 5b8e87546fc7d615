"""Unit tests for running one algorithm on the engine and its metrics."""

from repro.baselines.brute_force import BruteForceTopK
from repro.core.framework import SAPTopK
from repro.core.metrics import MetricsCollector, bytes_to_kb
from repro.core.query import TopKQuery
from repro.engine import StreamEngine

from ..conftest import make_objects, random_scores


class TestMetricsCollector:
    def test_averages(self):
        metrics = MetricsCollector()
        metrics.record(candidate_count=10, memory_bytes=1024)
        metrics.record(candidate_count=20, memory_bytes=3072)
        assert metrics.slides == 2
        assert metrics.average_candidates == 15
        assert metrics.candidate_max == 20
        assert metrics.average_memory_kb == 2.0

    def test_empty_collector(self):
        metrics = MetricsCollector()
        assert metrics.average_candidates == 0.0
        assert metrics.average_memory_bytes == 0.0

    def test_bytes_to_kb(self):
        assert bytes_to_kb(2048) == 2.0


def _run(algorithm, objects, **options):
    """One subscription alone on an engine, after the whole stream."""
    engine = StreamEngine()
    run = engine.subscribe("run", algorithm=algorithm, **options)
    engine.push_many(objects)
    engine.close()
    return run


class TestRunAlgorithm:
    def test_report_contains_results_and_metrics(self):
        query = TopKQuery(n=50, k=3, s=5)
        objects = make_objects(random_scores(300, seed=1))
        run = _run(SAPTopK(query), objects)
        expected_slides = 1 + (300 - 50) // 5
        assert run.metrics.slides == expected_slides
        assert len(run.results()) == expected_slides
        assert run.metrics.latency_total >= 0
        assert run.metrics.average_candidates > 0
        assert run.stats()["slides"] == expected_slides

    def test_keep_results_false_drops_results(self):
        query = TopKQuery(n=50, k=3, s=5)
        objects = make_objects(random_scores(200, seed=2))
        run = _run(SAPTopK(query), objects, keep_results=False)
        assert run.results() == []
        assert run.metrics.slides > 0

    def test_metrics_disabled_still_counts_slides(self):
        query = TopKQuery(n=50, k=3, s=5)
        objects = make_objects(random_scores(200, seed=3))
        run = _run(BruteForceTopK(query), objects, collect_metrics=False)
        assert run.metrics.slides == 1 + (200 - 50) // 5
        assert run.metrics.average_candidates == 0.0

    def test_every_result_has_k_objects(self):
        query = TopKQuery(n=50, k=3, s=5)
        objects = make_objects(random_scores(200, seed=4))
        run = _run(SAPTopK(query), objects)
        assert all(len(result) == query.k for result in run.results())
