"""Unit tests for the declarative policy format and the Plan stage."""

import json

import pytest

from repro.control.analyzers import Symptom
from repro.control.knowledge import AdaptationEvent, Knowledge, SlideSample
from repro.control.planner import Planner
from repro.control.policy import Policy, Rule, Tactic
from repro.core.query import TopKQuery
from repro.engine import StreamEngine


POLICY_DOC = {
    "latency_budget_seconds": 0.01,
    "cooldown_slides": 10,
    "analyzers": {
        "latency": {"percentile": 0.95, "window": 32, "min_samples": 16},
        "candidates": {"factor": 3.0, "window": 32},
        "drift": {"alpha": 0.01, "window": 16},
    },
    "rules": [
        {"when": "score-drift", "tactic": "swap-partitioner", "to": "equal"},
        {"when": "candidate-blowup", "tactic": "retune-eta", "scale": 1.5},
        {"when": "latency-violation", "tactic": "load-shed", "stride": 8},
    ],
    "load_shedding": {"enabled": True, "max_fraction": 0.25},
}


class TestPolicyFormat:
    def test_round_trip_from_dict(self):
        policy = Policy.from_dict(POLICY_DOC)
        assert policy.latency_budget_seconds == 0.01
        assert policy.cooldown_slides == 10
        assert [rule.tactic.kind for rule in policy.rules] == [
            "swap-partitioner", "retune-eta", "load-shed",
        ]
        assert policy.load_shedding.enabled is True
        assert len(policy.build_analyzers()) == 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(POLICY_DOC))
        policy = Policy.from_file(str(path))
        assert policy.rules[0].when == "score-drift"

    def test_example_policy_file_parses(self):
        import os

        example = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "control_policy.json"
        )
        policy = Policy.from_file(example)
        assert policy.rules, "the documented example policy must define rules"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown policy keys"):
            Policy.from_dict({"latency_budget": 1.0})

    def test_unknown_tactic_rejected(self):
        # The shard-pool tactics are gone: the pool changes only by hand.
        for tactic in ("reboot", "spawn-shard", "retire-shard"):
            with pytest.raises(ValueError, match="unknown tactic"):
                Policy.from_dict({"rules": [{"when": "score-drift", "tactic": tactic}]})

    def test_swap_partitioner_needs_valid_target(self):
        with pytest.raises(ValueError, match="swap-partitioner"):
            Policy.from_dict(
                {"rules": [{"when": "score-drift", "tactic": "swap-partitioner", "to": "magic"}]}
            )

    def test_load_shed_stride_validated(self):
        with pytest.raises(ValueError, match="stride"):
            Policy.from_dict(
                {"rules": [{"when": "latency-violation", "tactic": "load-shed", "stride": 1}]}
            )

    def test_shedding_fraction_validated(self):
        with pytest.raises(ValueError, match="max_fraction"):
            Policy.from_dict({"load_shedding": {"enabled": True, "max_fraction": 2.0}})

    def test_default_policy_is_exact(self):
        policy = Policy.default()
        assert policy.load_shedding.enabled is False
        assert {rule.tactic.kind for rule in policy.rules} <= {
            "swap-partitioner", "retune-eta",
        }

    def test_describe_is_json_serialisable(self):
        json.dumps(Policy.from_dict(POLICY_DOC).describe())


def make_group(algorithm="SAP", n=200, k=5, s=10):
    engine = StreamEngine()
    subscription = engine.subscribe("q", TopKQuery(n=n, k=k, s=s), algorithm=algorithm)
    return engine, subscription, subscription.group


def symptom(kind, name="q"):
    return Symptom(kind=kind, subscription=name, severity=2.0)


def knowledge_at_slide(index, name="q"):
    knowledge = Knowledge()
    knowledge.add_slide(
        SlideSample(
            subscription=name, algorithm="SAP", slide_index=index,
            latency=0.001, candidates=10, memory_bytes=320,
            top_score=1.0, window_size=200,
        )
    )
    return knowledge


class TestPlanner:
    def test_maps_symptom_to_first_applicable_rule(self):
        _, _, group = make_group("SAP")
        planner = Planner(Policy.from_dict(POLICY_DOC))
        actions = planner.plan(group, [symptom("score-drift")], knowledge_at_slide(50))
        assert len(actions) == 1
        assert actions[0].tactic.kind == "swap-partitioner"
        assert actions[0].trigger == "score-drift"

    def test_swap_partitioner_skipped_when_already_there(self):
        _, _, group = make_group("SAP-equal")
        planner = Planner(Policy.from_dict(POLICY_DOC))
        actions = planner.plan(group, [symptom("score-drift")], knowledge_at_slide(50))
        assert actions == []

    def test_retune_eta_only_for_dynamic_partitioners(self):
        _, _, group = make_group("SAP-equal")
        planner = Planner(Policy.from_dict(POLICY_DOC))
        assert planner.plan(group, [symptom("candidate-blowup")], knowledge_at_slide(50)) == []

        _, _, dyn_group = make_group("SAP-dynamic")
        actions = planner.plan(dyn_group, [symptom("candidate-blowup")], knowledge_at_slide(50))
        assert len(actions) == 1
        assert actions[0].tactic.params["eta_scale"] == pytest.approx(1.5)

    def test_eta_scale_clamped(self):
        from repro.control.planner import ETA_SCALE_MAX

        _, sub, group = make_group("SAP-dynamic")
        planner = Planner(Policy.from_dict(POLICY_DOC))
        knowledge = knowledge_at_slide(50)
        # Repeated retunes saturate at the bound, after which the tactic
        # stops being applicable (no-op retunes are never planned).
        scale = sub.algorithm.partitioner.eta_scale
        assert scale == 1.0
        action = planner.plan(group, [symptom("candidate-blowup")], knowledge)[0]
        assert action.tactic.params["eta_scale"] <= ETA_SCALE_MAX

    def test_cooldown_blocks_repeat_adaptation(self):
        _, _, group = make_group("SAP")
        policy = Policy.from_dict(POLICY_DOC)
        planner = Planner(policy)
        knowledge = knowledge_at_slide(50)
        knowledge.log_event(
            AdaptationEvent(
                slide_index=45, subscription="q", tactic="swap-partitioner",
                trigger="score-drift", applied=True,
            )
        )
        assert planner.plan(group, [symptom("score-drift")], knowledge) == []
        # Outside the cooldown the same symptom plans again.
        knowledge2 = knowledge_at_slide(80)
        knowledge2.log_event(
            AdaptationEvent(
                slide_index=45, subscription="q", tactic="swap-partitioner",
                trigger="score-drift", applied=True,
            )
        )
        assert len(planner.plan(group, [symptom("score-drift")], knowledge2)) == 1

    def test_load_shed_respects_enable_gate_and_fraction(self):
        _, _, group = make_group("SAP")
        disabled = Policy.from_dict({**POLICY_DOC, "load_shedding": {"enabled": False}})
        assert Planner(disabled).plan(
            group, [symptom("latency-violation")], knowledge_at_slide(50)
        ) == []
        # stride 8 sheds 12.5% > max_fraction 10% -> not applicable.
        tight = Policy.from_dict(
            {**POLICY_DOC, "load_shedding": {"enabled": True, "max_fraction": 0.1}}
        )
        assert Planner(tight).plan(
            group, [symptom("latency-violation")], knowledge_at_slide(50)
        ) == []

    def test_load_shed_planned_once_per_tick(self):
        engine = StreamEngine()
        engine.subscribe("a", TopKQuery(n=200, k=5, s=10), algorithm="SAP")
        engine.subscribe("b", TopKQuery(n=200, k=5, s=10), algorithm="SAP")
        group = engine.subscription("a").group
        planner = Planner(Policy.from_dict(POLICY_DOC))
        knowledge = knowledge_at_slide(50, "a")
        knowledge.add_slide(
            SlideSample(
                subscription="b", algorithm="SAP", slide_index=50,
                latency=0.1, candidates=10, memory_bytes=320,
                top_score=1.0, window_size=200,
            )
        )
        actions = planner.plan(
            group,
            [symptom("latency-violation", "a"), symptom("latency-violation", "b")],
            knowledge,
        )
        assert [a.tactic.kind for a in actions] == ["load-shed"]

    def test_recovery_planned_when_latencies_back_under_budget(self):
        planner = Planner(Policy.from_dict(POLICY_DOC))
        calm = Knowledge()
        for i in range(40):
            calm.add_slide(
                SlideSample(
                    subscription="q", algorithm="SAP", slide_index=i,
                    latency=0.0001, candidates=10, memory_bytes=320,
                    top_score=1.0, window_size=200,
                )
            )
        recovery = planner.plan_recovery(calm, shedding_active=True)
        assert recovery is not None and recovery.tactic.kind == "load-recover"
        assert planner.plan_recovery(calm, shedding_active=False) is None

    def test_swap_algorithm_applicability(self):
        _, _, group = make_group("SAP")
        policy = Policy.from_dict(
            {"rules": [{"when": "score-drift", "tactic": "swap-algorithm", "to": "MinTopK"}]}
        )
        actions = Planner(policy).plan(group, [symptom("score-drift")], knowledge_at_slide(50))
        assert len(actions) == 1
        # Already on MinTopK: nothing to do.
        _, _, mt_group = make_group("MinTopK")
        assert Planner(policy).plan(
            mt_group, [symptom("score-drift")], knowledge_at_slide(50)
        ) == []


class TestRuleConstruction:
    def test_rule_needs_when_and_tactic(self):
        with pytest.raises(ValueError):
            Rule.from_dict({"when": "score-drift"})

    def test_tactic_describe(self):
        assert Tactic("swap-partitioner", {"to": "equal"}).describe() == (
            "swap-partitioner(to=equal)"
        )
        assert Tactic("load-recover").describe() == "load-recover"
