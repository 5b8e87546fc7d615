"""Tests for the full MAPE-K loop wired onto a StreamEngine."""

import pytest

from repro.control import AdaptiveController, Policy
from repro.core.exceptions import AlgorithmStateError
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.engine.group import QueryGroup
from repro.streams import make_dataset


def drift_stream(count=8_000):
    return make_dataset("DRIFT").take(count)


class TestAttachment:
    def test_attach_detach_lifecycle(self):
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=200, k=5, s=10), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        assert engine.controller is controller
        assert controller.attached
        assert engine.detach_controller() is controller
        assert engine.controller is None
        assert not controller.attached
        assert engine.detach_controller() is None

    def test_single_controller_per_engine(self):
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=200, k=5, s=10), algorithm="SAP")
        engine.attach_controller(AdaptiveController())
        with pytest.raises(AlgorithmStateError):
            engine.attach_controller(AdaptiveController())

    def test_controller_not_shareable_across_engines(self):
        left, right = StreamEngine(), StreamEngine()
        left.subscribe("q", TopKQuery(n=200, k=5, s=10), algorithm="SAP")
        right.subscribe("q", TopKQuery(n=200, k=5, s=10), algorithm="SAP")
        controller = AdaptiveController()
        left.attach_controller(controller)
        with pytest.raises(AlgorithmStateError):
            right.attach_controller(controller)

    def test_groups_created_after_attach_are_monitored(self):
        engine = StreamEngine(return_results=False)
        controller = AdaptiveController()
        engine.subscribe("early", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        engine.attach_controller(controller)
        engine.subscribe("late", TopKQuery(n=50, k=3, s=5), algorithm="SAP")
        engine.push_many(make_dataset("STOCK").take(400))
        assert controller.knowledge.sample_count("early") > 0
        assert controller.knowledge.sample_count("late") > 0

    def test_detach_stops_telemetry(self):
        engine = StreamEngine(return_results=False)
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        stream = make_dataset("STOCK").take(400)
        engine.push_many(stream[:200])
        seen = controller.knowledge.sample_count("q")
        assert seen > 0
        engine.detach_controller()
        seals_seen = len(controller.knowledge.seals("q"))
        engine.push_many(stream[200:])
        assert controller.knowledge.sample_count("q") == seen
        # Seal taps are uninstalled too: no telemetry of any kind flows
        # into a detached controller.
        assert len(controller.knowledge.seals("q")) == seals_seen


class TestMonitorStage:
    def test_per_slide_samples_recorded(self):
        engine = StreamEngine(return_results=False)
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        engine.push_many(make_dataset("STOCK").take(500))
        samples = controller.knowledge.slides("q")
        # 500 objects, n=100, s=10 -> 41 slides.
        assert len(samples) == 41
        assert [s.slide_index for s in samples] == list(range(41))
        assert all(s.latency >= 0.0 for s in samples)
        assert all(s.candidates > 0 for s in samples)
        assert all(s.top_score is not None for s in samples)
        assert samples[-1].window_size == 100

    def test_seal_telemetry_from_framework(self):
        engine = StreamEngine(return_results=False)
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        engine.push_many(make_dataset("STOCK").take(500))
        seals = controller.knowledge.seals("q")
        assert seals, "SAP partition seals must reach the knowledge store"
        assert sum(s.size for s in seals) > 0

    def test_seal_stats_introspection(self):
        engine = StreamEngine(return_results=False)
        sub = engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        engine.push_many(make_dataset("STOCK").take(500))
        stats = sub.algorithm.seal_stats()
        assert stats["partitions_sealed"] > 0
        assert stats["average_partition_size"] > 0
        assert stats["partitions_live"] >= 1
        assert stats["framework"]["partitions_sealed"] == stats["partitions_sealed"]

    def test_single_object_push_path(self):
        engine = StreamEngine()
        sub = engine.subscribe("q", TopKQuery(n=50, k=3, s=5), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        for obj in make_dataset("STOCK").take(120):
            engine.push(obj)
        assert controller.knowledge.sample_count("q") == len(sub.results())


class TestAdaptationEndToEnd:
    def test_drift_triggers_partitioner_swap(self):
        engine = StreamEngine(keep_results=False, return_results=False)
        sub = engine.subscribe(
            "watch", TopKQuery(n=1000, k=10, s=50), algorithm="SAP"
        )
        controller = AdaptiveController(Policy.default())
        engine.attach_controller(controller)
        engine.push_many(drift_stream())
        engine.flush()
        applied = controller.knowledge.applied_events()
        assert applied, "the DRIFT stream must trigger at least one tactic"
        assert applied[0].tactic == "swap-partitioner"
        assert applied[0].trigger == "score-drift"
        assert sub.algorithm.partitioner.name.startswith("equal")

    def test_controlled_answers_byte_identical(self):
        def run(controlled):
            engine = StreamEngine(return_results=False)
            sub = engine.subscribe(
                "watch", TopKQuery(n=1000, k=10, s=50), algorithm="SAP"
            )
            if controlled:
                engine.attach_controller(AdaptiveController(Policy.default()))
            engine.push_many(drift_stream())
            engine.flush()
            return [(r.slide_index, tuple(r.scores)) for r in sub.results()]

        assert run(True) == run(False)

    def test_cooldown_limits_adaptation_rate(self):
        engine = StreamEngine(keep_results=False, return_results=False)
        engine.subscribe("watch", TopKQuery(n=500, k=10, s=25), algorithm="SAP")
        policy = Policy.default()
        controller = AdaptiveController(policy)
        engine.attach_controller(controller)
        engine.push_many(drift_stream(16_000))
        engine.flush()
        applied = controller.knowledge.applied_events()
        for earlier, later in zip(applied, applied[1:]):
            if earlier.subscription == later.subscription:
                assert later.slide_index - earlier.slide_index >= policy.cooldown_slides

    def test_aligned_chunk(self):
        engine = StreamEngine(return_results=False)
        engine.subscribe("a", TopKQuery(n=200, k=5, s=12), algorithm="SAP")
        engine.subscribe("b", TopKQuery(n=100, k=5, s=8), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        # lcm(12, 8) = 24; 256 rounds down to 240.
        assert controller.aligned_chunk(256) == 240
        assert controller.aligned_chunk(10) == 24
        # A group adopted before its first member joins does not align.
        controller._adopt_group(QueryGroup(70, 7, False))
        assert controller.aligned_chunk(256) == 240

    def test_describe_reports_state(self):
        engine = StreamEngine(return_results=False)
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        controller = AdaptiveController()
        engine.attach_controller(controller)
        engine.push_many(make_dataset("STOCK").take(300))
        description = controller.describe()
        assert description["attached"] is True
        assert description["groups"] == 1


class TestStatsPercentiles:
    def test_subscription_stats_expose_percentiles(self):
        engine = StreamEngine(return_results=False)
        sub = engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        engine.push_many(make_dataset("STOCK").take(500))
        stats = sub.stats()
        for key in ("p50_latency", "p95_latency", "p99_latency"):
            assert key in stats
        assert stats["p50_latency"] == stats["median_latency"]
        assert stats["p50_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
        assert stats["p99_latency"] <= stats["max_latency"]

    def test_engine_stats_pass_through(self):
        engine = StreamEngine(return_results=False)
        engine.subscribe("q", TopKQuery(n=100, k=5, s=10), algorithm="SAP")
        engine.push_many(make_dataset("STOCK").take(300))
        assert "p99_latency" in engine.stats()["q"]


class TestReviewRegressions:
    def test_unsubscribe_discards_group_from_controller(self):
        engine = StreamEngine(return_results=False)
        controller = AdaptiveController()
        engine.attach_controller(controller)
        stream = make_dataset("STOCK").take(3000)
        for i in range(20):
            engine.subscribe(f"q{i}", TopKQuery(n=50, k=3, s=5), algorithm="SAP")
            engine.push_many(stream[i * 100 : (i + 1) * 100])
            engine.unsubscribe(f"q{i}")
        assert len(controller._groups) == 0

    def test_unsubscribe_forgets_the_query(self):
        """A departed query leaves no samples, cooldown or drift state in
        the controller, so a new query reusing its name is judged on its
        own history only."""
        policy = Policy.from_dict(
            {
                "cooldown_slides": 0,
                "analysis_interval_slides": 1,
                "analyzers": {"drift": {"alpha": 0.05, "window": 10}},
                "rules": [
                    {"when": "score-drift", "tactic": "swap-partitioner", "to": "equal"}
                ],
            }
        )
        query = TopKQuery(n=300, k=5, s=20)
        engine = StreamEngine(keep_results=False, return_results=False)
        controller = AdaptiveController(policy)
        engine.attach_controller(controller)
        knowledge = controller.knowledge
        (drift,) = controller.analyzers
        stream = drift_stream(6_000)
        engine.subscribe("long", query, algorithm="SAP")
        for i in range(5):
            engine.subscribe(f"churn{i}", query, algorithm="SAP")
            engine.push_many(stream[i * 300 : (i + 1) * 300])
            engine.unsubscribe(f"churn{i}")
        assert knowledge.subscriptions() == ["long"]

        engine.subscribe("churn0", query, algorithm="SAP")
        engine.push_many(stream[1_500:5_500])
        assert knowledge.sample_count("churn0") > 0
        assert knowledge.last_adaptation_slide("churn0") is not None
        assert "churn0" in drift._last_fired
        engine.unsubscribe("churn0")
        assert knowledge.sample_count("churn0") == 0
        assert knowledge.seals("churn0") == []
        assert knowledge.last_adaptation_slide("churn0") is None
        assert "churn0" not in drift._last_fired

        reborn = engine.subscribe("churn0", query, algorithm="SAP-equal")
        assert knowledge.sample_count("churn0") == 0
        engine.push_many(stream[5_500:])
        first = knowledge.slides("churn0")[0]
        assert first.algorithm == reborn.algorithm.name
        assert first.slide_index == 0

    def test_default_policy_budget_has_a_consuming_rule(self):
        policy = Policy.default(latency_budget_seconds=0.005)
        assert policy.rules_for("latency-violation"), (
            "a latency budget must come with a rule that reacts to it"
        )
