"""Unit tests for the Analyze stage (symptom detectors)."""

import random

import pytest

from repro.control.analyzers import (
    CandidateBlowupAnalyzer,
    LatencyBudgetAnalyzer,
    ScoreDriftAnalyzer,
    ShardPressure,
    ShardPressureSample,
)
from repro.control.knowledge import Knowledge, SlideSample


def feed(knowledge, *, latencies=None, candidates=None, tops=None, start=0):
    """Append one slide sample per entry of the longest list."""
    n = max(len(x) for x in (latencies or [], candidates or [], tops or []) if x is not None)
    for i in range(n):
        knowledge.add_slide(
            SlideSample(
                subscription="q",
                algorithm="SAP",
                slide_index=start + i,
                latency=latencies[i] if latencies else 0.001,
                candidates=candidates[i] if candidates else 10,
                memory_bytes=320,
                top_score=tops[i] if tops else 1.0,
                window_size=100,
            )
        )


class TestLatencyBudget:
    def test_fires_above_budget(self):
        knowledge = Knowledge()
        feed(knowledge, latencies=[0.010] * 32)
        analyzer = LatencyBudgetAnalyzer(0.005, percentile=0.95, window=32, min_samples=16)
        symptom = analyzer.analyze(knowledge, "q")
        assert symptom is not None
        assert symptom.kind == "latency-violation"
        assert symptom.severity == pytest.approx(2.0)
        assert symptom.evidence["observed_seconds"] == pytest.approx(0.010)

    def test_quiet_below_budget(self):
        knowledge = Knowledge()
        feed(knowledge, latencies=[0.001] * 32)
        analyzer = LatencyBudgetAnalyzer(0.005)
        assert analyzer.analyze(knowledge, "q") is None

    def test_needs_min_samples(self):
        knowledge = Knowledge()
        feed(knowledge, latencies=[1.0] * 5)
        analyzer = LatencyBudgetAnalyzer(0.005, min_samples=16)
        assert analyzer.analyze(knowledge, "q") is None

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            LatencyBudgetAnalyzer(0.0)


class TestCandidateBlowup:
    def test_fires_on_relative_blowup(self):
        knowledge = Knowledge()
        feed(knowledge, candidates=[20] * 96)
        feed(knowledge, candidates=[200] * 32, start=96)
        analyzer = CandidateBlowupAnalyzer(factor=3.0, window=32, min_samples=96)
        symptom = analyzer.analyze(knowledge, "q")
        assert symptom is not None
        assert symptom.kind == "candidate-blowup"
        assert symptom.evidence["recent_mean"] == pytest.approx(200.0)

    def test_quiet_on_stable_level(self):
        knowledge = Knowledge()
        feed(knowledge, candidates=[500] * 160)
        analyzer = CandidateBlowupAnalyzer(factor=3.0, window=32)
        assert analyzer.analyze(knowledge, "q") is None

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            CandidateBlowupAnalyzer(factor=1.0)


class TestScoreDrift:
    def test_fires_on_level_shift(self):
        knowledge = Knowledge()
        rng = random.Random(5)
        lows = [0.3 + rng.uniform(-0.05, 0.05) for _ in range(16)]
        highs = [0.8 + rng.uniform(-0.05, 0.05) for _ in range(16)]
        feed(knowledge, tops=lows)
        feed(knowledge, tops=highs, start=16)
        analyzer = ScoreDriftAnalyzer(alpha=0.01, window=16)
        symptom = analyzer.analyze(knowledge, "q")
        assert symptom is not None
        assert symptom.kind == "score-drift"
        assert symptom.evidence["direction"] == "up"

    def test_detects_downward_drift(self):
        knowledge = Knowledge()
        rng = random.Random(6)
        highs = [0.8 + rng.uniform(-0.05, 0.05) for _ in range(16)]
        lows = [0.3 + rng.uniform(-0.05, 0.05) for _ in range(16)]
        feed(knowledge, tops=highs)
        feed(knowledge, tops=lows, start=16)
        symptom = ScoreDriftAnalyzer(window=16).analyze(knowledge, "q")
        assert symptom is not None and symptom.evidence["direction"] == "down"

    def test_quiet_on_stationary_scores(self):
        knowledge = Knowledge()
        rng = random.Random(7)
        feed(knowledge, tops=[0.5 + rng.uniform(-0.1, 0.1) for _ in range(64)])
        assert ScoreDriftAnalyzer(window=16).analyze(knowledge, "q") is None

    def test_refractory_period_after_detection(self):
        knowledge = Knowledge()
        feed(knowledge, tops=[0.3 + 0.001 * i for i in range(16)])
        feed(knowledge, tops=[0.8 + 0.001 * i for i in range(16)], start=16)
        analyzer = ScoreDriftAnalyzer(window=16)
        assert analyzer.analyze(knowledge, "q") is not None
        # One more slide at the new level: still inside the refractory
        # window, so the same regime change is not reported again.
        feed(knowledge, tops=[0.81], start=32)
        assert analyzer.analyze(knowledge, "q") is None

    def test_window_floor(self):
        with pytest.raises(ValueError):
            ScoreDriftAnalyzer(window=4)

    def test_matches_library_rank_sum_verdict(self):
        """The analyzer's one-sort two-sided test agrees with running the
        library's rank_sum_test in both directions (normal-approximation
        regime, which window >= 10 guarantees)."""
        from repro.stats.mannwhitney import rank_sum_test

        rng = random.Random(11)
        for shift in (0.0, 0.05, 0.2, 0.5):
            recent = [0.5 + shift + rng.uniform(-0.1, 0.1) for _ in range(16)]
            reference = [0.5 + rng.uniform(-0.1, 0.1) for _ in range(16)]
            knowledge = Knowledge()
            feed(knowledge, tops=reference)
            feed(knowledge, tops=recent, start=16)
            symptom = ScoreDriftAnalyzer(alpha=0.01, window=16, min_shift=0.0).analyze(knowledge, "q")
            up = rank_sum_test(recent, reference, alpha=0.01)
            down = rank_sum_test(reference, recent, alpha=0.01)
            expected = up.first_is_larger or down.first_is_larger
            assert (symptom is not None) == expected, f"shift={shift}"


def pressure(shard, *, load_share, stalls=0):
    return ShardPressureSample(
        shard=shard, load_share=load_share, bp_wait_delta=stalls, subscriptions=1
    )


class TestShardPressure:
    def test_overload_from_stalls_names_the_worst_shard(self):
        symptom = ShardPressure().analyze_cluster(
            [
                pressure(0, load_share=0.5, stalls=1),
                pressure(1, load_share=0.5, stalls=3),
            ]
        )
        assert symptom.kind == "shard-overload"
        assert symptom.evidence["shard"] == 1
        assert symptom.severity == 4.0

    def test_stalls_within_tolerance_are_not_overload(self):
        analyzer = ShardPressure(bp_wait_tolerance=2)
        samples = [pressure(0, load_share=0.5, stalls=2), pressure(1, load_share=0.5)]
        assert analyzer.analyze_cluster(samples) is None

    def test_underload_from_load_share(self):
        symptom = ShardPressure().analyze_cluster(
            [pressure(0, load_share=0.8), pressure(1, load_share=0.2)]
        )
        assert symptom.kind == "cluster-underload"
        assert symptom.evidence["shard"] == 1
        assert symptom.severity == pytest.approx(1.6)

    def test_no_underload_while_any_shard_stalls_or_on_an_even_split(self):
        analyzer = ShardPressure(bp_wait_tolerance=1)
        stalled = [pressure(0, load_share=0.8, stalls=1), pressure(1, load_share=0.2)]
        assert analyzer.analyze_cluster(stalled) is None
        even = [pressure(0, load_share=0.5), pressure(1, load_share=0.5)]
        assert analyzer.analyze_cluster(even) is None
        assert analyzer.analyze_cluster([pressure(0, load_share=1.0)]) is None

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ShardPressure(bp_wait_tolerance=-1)
