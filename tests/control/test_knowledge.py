"""Unit tests for the Knowledge store (the K of MAPE-K)."""

import pytest

from repro.control.knowledge import (
    AdaptationEvent,
    Knowledge,
    SealSample,
    SlideSample,
)


def sample(name="q", index=0, latency=0.001, candidates=10, top=1.0):
    return SlideSample(
        subscription=name,
        algorithm="SAP",
        slide_index=index,
        latency=latency,
        candidates=candidates,
        memory_bytes=candidates * 32,
        top_score=top,
        window_size=100,
    )


class TestRings:
    def test_capacity_bounds_history(self):
        knowledge = Knowledge(capacity=8)
        for i in range(20):
            knowledge.add_slide(sample(index=i))
        slides = knowledge.slides("q")
        assert len(slides) == 8
        assert [s.slide_index for s in slides] == list(range(12, 20))

    def test_tail_is_oldest_first(self):
        knowledge = Knowledge(capacity=64)
        for i in range(10):
            knowledge.add_slide(sample(index=i))
        assert [s.slide_index for s in knowledge.slides("q", 3)] == [7, 8, 9]
        assert len(knowledge.slides("q", 100)) == 10

    def test_per_subscription_isolation(self):
        knowledge = Knowledge()
        knowledge.add_slide(sample(name="a", index=1))
        knowledge.add_slide(sample(name="b", index=7))
        assert knowledge.latest_slide_index("a") == 1
        assert knowledge.latest_slide_index("b") == 7
        assert knowledge.latest_slide_index("missing") is None
        assert set(knowledge.subscriptions()) == {"a", "b"}

    def test_seal_samples(self):
        knowledge = Knowledge(capacity=4)
        for size in (10, 20, 30, 40, 50):
            knowledge.add_seal(SealSample(subscription="q", size=size))
        assert [s.size for s in knowledge.seals("q")] == [20, 30, 40, 50]
        assert knowledge.seals("nope") == []

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Knowledge(capacity=0)


class TestAggregates:
    def test_latency_percentile(self):
        knowledge = Knowledge()
        for i, latency in enumerate([0.001, 0.002, 0.003, 0.004, 0.100]):
            knowledge.add_slide(sample(index=i, latency=latency))
        assert knowledge.latency_percentile("q", 0.5, window=5) == 0.003
        # The window restricts the sample to the most recent slides.
        assert knowledge.latency_percentile("q", 0.95, window=2) == pytest.approx(0.1)
        assert knowledge.latency_percentile("missing", 0.5, window=5) == 0.0

    def test_top_score_series_drops_none(self):
        knowledge = Knowledge()
        knowledge.add_slide(sample(index=0, top=1.0))
        knowledge.add_slide(sample(index=1, top=None))
        knowledge.add_slide(sample(index=2, top=3.0))
        assert knowledge.top_score_series("q") == [1.0, 3.0]


class TestAdaptationLog:
    def test_events_and_cooldown_tracking(self):
        knowledge = Knowledge()
        applied = AdaptationEvent(
            slide_index=10, subscription="q", tactic="swap-partitioner",
            trigger="score-drift", applied=True,
        )
        declined = AdaptationEvent(
            slide_index=12, subscription="q", tactic="retune-eta",
            trigger="latency-violation", applied=False,
        )
        knowledge.log_event(applied)
        knowledge.log_event(declined)
        assert knowledge.events() == [applied, declined]
        assert knowledge.applied_events() == [applied]
        # Declined tactics reset the cooldown clock too (no decline spam).
        assert knowledge.last_adaptation_slide("q") == 12

    def test_event_log_is_bounded(self):
        from repro.control.knowledge import EVENT_LOG_CAPACITY

        knowledge = Knowledge()
        for i in range(EVENT_LOG_CAPACITY + 50):
            knowledge.log_event(
                AdaptationEvent(
                    slide_index=i, subscription="q", tactic="retune-eta",
                    trigger="score-drift", applied=False,
                )
            )
        events = knowledge.events()
        assert len(events) == EVENT_LOG_CAPACITY
        assert knowledge.events_total == EVENT_LOG_CAPACITY + 50
        assert events[-1].slide_index == EVENT_LOG_CAPACITY + 49

    def test_describe_round_trips_to_json(self):
        import json

        knowledge = Knowledge()
        knowledge.add_slide(sample(index=3))
        knowledge.log_event(
            AdaptationEvent(
                slide_index=3, subscription="q", tactic="retune-eta",
                trigger="candidate-blowup", applied=True,
                detail={"to_eta_scale": 1.5},
            )
        )
        payload = json.dumps(knowledge.describe())
        assert "retune-eta" in payload

    def test_forget_drops_rings_and_cooldown_but_keeps_the_log(self):
        knowledge = Knowledge()
        knowledge.add_slide(sample(index=3))
        knowledge.add_seal(SealSample(subscription="q", size=4))
        knowledge.log_event(
            AdaptationEvent(
                slide_index=3, subscription="q", tactic="retune-eta",
                trigger="candidate-blowup", applied=True,
            )
        )
        knowledge.forget("q")
        assert knowledge.subscriptions() == []
        assert knowledge.sample_count("q") == 0
        assert knowledge.seals("q") == []
        assert knowledge.last_adaptation_slide("q") is None
        assert [event.tactic for event in knowledge.events()] == ["retune-eta"]
        knowledge.forget("never-seen")  # forgetting an unknown name is a no-op
