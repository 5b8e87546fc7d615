"""Unit tests for the declarative policy format and the Plan stage."""

import json
import re

import pytest

from repro.control.analyzers import Symptom
from repro.control.knowledge import AdaptationEvent, Knowledge, SlideSample
from repro.control.planner import Planner
from repro.control.policy import TACTICS, Policy, Rule, Tactic
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
        {"when": "latency-violation", "tactic": "swap-partitioner", "to": "equal"},
    ],
}


class TestPolicyFormat:
    def test_round_trip_from_dict(self):
        policy = Policy.from_dict(POLICY_DOC)
        assert policy.latency_budget_seconds == 0.01
        assert policy.cooldown_slides == 10
        assert [rule.tactic.kind for rule in policy.rules] == [
            "swap-partitioner", "retune-eta", "swap-partitioner",
        ]
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
        # The latency budget drives the same exact tactic as the default
        # policy with a budget.
        (latency_rule,) = policy.rules_for("latency-violation")
        assert latency_rule.tactic == Tactic("swap-partitioner", {"to": "equal"})
        assert latency_rule.tactic in [
            rule.tactic for rule in Policy.default(latency_budget_seconds=0.01).rules
        ]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown policy keys"):
            Policy.from_dict({"latency_budget": 1.0})

    def test_unknown_tactic_rejected(self):
        # The shard pool changes only by hand, and every tactic rebuilds
        # a SAP partitioner.
        known = re.escape(str(TACTICS))
        for tactic in ("reboot", "spawn-shard", "retire-shard", "swap-algorithm"):
            with pytest.raises(ValueError, match=f"unknown tactic .*known: {known}"):
                Policy.from_dict(
                    {"rules": [{"when": "score-drift", "tactic": tactic, "to": "MinTopK"}]}
                )

    def test_swap_partitioner_needs_valid_target(self):
        with pytest.raises(ValueError, match="swap-partitioner"):
            Policy.from_dict(
                {"rules": [{"when": "score-drift", "tactic": "swap-partitioner", "to": "magic"}]}
            )

    def test_load_shed_stride_validated(self):
        for stride in (1, 8):
            with pytest.raises(ValueError, match="unknown tactic 'load-shed'; known"):
                Policy.from_dict(
                    {"rules": [
                        {"when": "latency-violation", "tactic": "load-shed", "stride": stride}
                    ]}
                )

    def test_shedding_fraction_validated(self):
        with pytest.raises(
            ValueError, match=r"unknown policy keys: \['load_shedding'\]; known"
        ):
            Policy.from_dict({"load_shedding": {"enabled": True, "max_fraction": 0.2}})

    def test_default_policy_is_exact(self):
        for policy in (Policy.default(), Policy.default(latency_budget_seconds=0.01)):
            assert {rule.tactic.kind for rule in policy.rules} <= set(TACTICS)
        policy = Policy.default()
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

    def test_tactics_only_apply_to_sap(self):
        _, _, group = make_group("MinTopK")
        planner = Planner(Policy.from_dict(POLICY_DOC))
        for kind in ("score-drift", "candidate-blowup", "latency-violation"):
            assert planner.plan(group, [symptom(kind)], knowledge_at_slide(50)) == []

class TestRuleConstruction:
    def test_rule_needs_when_and_tactic(self):
        with pytest.raises(ValueError):
            Rule.from_dict({"when": "score-drift"})

    def test_tactic_describe(self):
        assert Tactic("swap-partitioner", {"to": "equal"}).describe() == (
            "swap-partitioner(to=equal)"
        )
        assert Tactic("retune-eta").describe() == "retune-eta"
