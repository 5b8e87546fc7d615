"""Unit tests for the Execute stage and the group rebuild mechanism.

The load-bearing property: every tactic is answer-preserving.  A
controlled engine that swaps a SAP query's partitioner or retunes its η
mid-run must produce byte-identical results to an uncontrolled engine on
the same stream, because the group is drained at a slide boundary and the
replacement pipeline is rebuilt from live window state.
"""

import pytest

from repro.baselines.mintopk import MinTopK
from repro.control import AdaptiveController, Knowledge, Policy
from repro.control.executor import Executor
from repro.control.planner import Action
from repro.control.policy import Tactic
from repro.core.exceptions import AlgorithmStateError
from repro.core.framework import SAPTopK
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.partitioning import DynamicPartitioner, EqualPartitioner
from repro.streams import make_dataset

QUERY = TopKQuery(n=300, k=8, s=20)
STREAM = make_dataset("STOCK").take(2_400)


def run_uncontrolled(algorithm="SAP", query=QUERY):
    engine = StreamEngine(return_results=False)
    subscription = engine.subscribe("q", query, algorithm=algorithm)
    engine.push_many(STREAM)
    engine.flush()
    return [(r.slide_index, tuple(r.scores)) for r in subscription.results()]


def run_with_midstream_tactic(tactic, algorithm="SAP", query=QUERY, at_slide=40):
    """Drive half the stream, apply one tactic through the executor, finish."""
    engine = StreamEngine(return_results=False)
    subscription = engine.subscribe("q", query, algorithm=algorithm)
    controller = AdaptiveController(Policy(rules=[], analyzer_config={}))
    engine.attach_controller(controller)
    split = (at_slide + 1) * query.s + query.n - query.s
    engine.push_many(STREAM[:split], chunk_size=query.s)
    group = subscription.group
    assert group.at_slide_boundary()
    executor = Executor(controller.knowledge)
    events = executor.execute(
        group,
        [Action(subscription=subscription, tactic=tactic, trigger="test")],
        controller,
    )
    engine.push_many(STREAM[split:], chunk_size=query.s)
    engine.flush()
    answers = [(r.slide_index, tuple(r.scores)) for r in subscription.results()]
    return answers, events, subscription


class TestAnswerPreservation:
    def test_swap_partitioner_to_equal(self):
        answers, events, sub = run_with_midstream_tactic(
            Tactic("swap-partitioner", {"to": "equal"})
        )
        assert [e.applied for e in events] == [True]
        assert isinstance(sub.algorithm.partitioner, EqualPartitioner)
        assert answers == run_uncontrolled()

    def test_swap_partitioner_to_enhanced(self):
        answers, events, sub = run_with_midstream_tactic(
            Tactic("swap-partitioner", {"to": "enhanced-dynamic"}), algorithm="SAP-equal"
        )
        assert [e.applied for e in events] == [True]
        assert sub.algorithm.partitioner.name == "enhanced-dynamic"
        assert answers == run_uncontrolled("SAP-equal")

    def test_retune_eta(self):
        answers, events, sub = run_with_midstream_tactic(
            Tactic("retune-eta", {"scale": 2.0, "eta_scale": 2.0}), algorithm="SAP-dynamic"
        )
        assert [e.applied for e in events] == [True]
        partitioner = sub.algorithm.partitioner
        assert isinstance(partitioner, DynamicPartitioner)
        assert partitioner.eta_scale == pytest.approx(2.0)
        assert answers == run_uncontrolled("SAP-dynamic")

    def test_metrics_and_results_carry_over(self):
        _, _, sub = run_with_midstream_tactic(Tactic("swap-partitioner", {"to": "equal"}))
        stats = sub.stats()
        # One stats record spanning the whole run, not a reset at the swap.
        assert stats["slides"] == len(run_uncontrolled())


class TestSharedPlanRebuild:
    def test_swap_rebuilds_every_plan_member(self):
        engine = StreamEngine(return_results=False)
        subs = [
            engine.subscribe(f"q{k}", TopKQuery(n=300, k=k, s=20), algorithm="SAP")
            for k in (4, 8, 16)
        ]
        controller = AdaptiveController(Policy(rules=[], analyzer_config={}))
        engine.attach_controller(controller)
        engine.push_many(STREAM[:1200], chunk_size=20)
        group = subs[0].group
        assert group.plans(), "the three SAP queries must share a plan"
        executor = Executor(controller.knowledge)
        executor.execute(
            group,
            [
                Action(
                    subscription=subs[1],
                    tactic=Tactic("swap-partitioner", {"to": "equal"}),
                    trigger="test",
                )
            ],
            controller,
        )
        # The dissolved plan re-formed over the rebuilt members: the
        # swapped member left the bucket, the other two (rebuilt with
        # their existing configuration) share a fresh plan.
        assert len(group.plans()) == 1
        assert isinstance(subs[1].algorithm.partitioner, EqualPartitioner)
        assert subs[0].algorithm.partitioner.name == "enhanced-dynamic"
        assert subs[2].algorithm.partitioner.name == "enhanced-dynamic"
        plan_members = {m.name for m in group.plans()[0].subscriptions()}
        assert plan_members == {"q4", "q16"}
        engine.push_many(STREAM[1200:], chunk_size=20)
        engine.flush()
        for sub in subs:
            solo = StreamEngine(return_results=False)
            ref = solo.subscribe("ref", sub.query, algorithm="SAP")
            solo.push_many(STREAM)
            solo.flush()
            assert [r.identity() for r in sub.results()] == [
                r.identity() for r in ref.results()
            ], sub.name


    def test_sap_rebuild_leaves_a_mintopk_plan_alone(self):
        """A SAP plan never holds a MinTopK member, so rebuilding SAP
        members leaves MinTopK's plan running, even on arrival orders
        with gaps, which a MinTopK respawn could not adopt."""
        from repro.core.object import StreamObject

        gapped = [StreamObject(score=float(i * 37 % 101), t=2 * i) for i in range(1200)]
        algorithms = {"sap4": "SAP", "sap8": "SAP", "mt4": "MinTopK", "mt8": "MinTopK"}
        engine = StreamEngine(return_results=False)
        subs = [
            engine.subscribe(name, TopKQuery(n=300, k=int(name[-1]), s=20),
                             algorithm=algorithm)
            for name, algorithm in algorithms.items()
        ]
        controller = AdaptiveController(Policy(rules=[], analyzer_config={}))
        engine.attach_controller(controller)
        engine.push_many(gapped[:600], chunk_size=20)
        group = subs[0].group
        mintopk_plan = [
            plan for plan in group.plans()
            if isinstance(plan.subscriptions()[0].algorithm, MinTopK)
        ]
        events = Executor(controller.knowledge).execute(
            group,
            [
                Action(
                    subscription=subs[0],
                    tactic=Tactic("swap-partitioner", {"to": "equal"}),
                    trigger="test",
                )
            ],
            controller,
        )
        assert [e.applied for e in events] == [True]
        assert mintopk_plan and mintopk_plan[0] in group.plans()
        engine.push_many(gapped[600:], chunk_size=20)
        engine.flush()
        for sub in subs:
            solo = StreamEngine(return_results=False)
            ref = solo.subscribe("ref", sub.query, algorithm=algorithms[sub.name])
            solo.push_many(gapped)
            solo.flush()
            assert [r.identity() for r in sub.results()] == [
                r.identity() for r in ref.results()
            ], sub.name


class TestRebuildPreconditions:
    def test_rebuild_requires_slide_boundary(self):
        engine = StreamEngine(return_results=False)
        subscription = engine.subscribe("q", QUERY, algorithm="SAP")
        engine.push_many(STREAM[: QUERY.n + 7])  # mid-slide
        with pytest.raises(AlgorithmStateError):
            subscription.group.rebuild({"q": subscription.algorithm.respawn()})

    def test_rebuild_rejects_unknown_members(self):
        engine = StreamEngine(return_results=False)
        subscription = engine.subscribe("q", QUERY, algorithm="SAP")
        engine.push_many(STREAM[: QUERY.n])
        with pytest.raises(KeyError):
            subscription.group.rebuild({"nope": subscription.algorithm.respawn()})

    def test_non_sap_member_declined(self):
        """Every tactic rebuilds a SAP partitioner; the executor declines
        (and logs) a tactic aimed at any other algorithm."""
        _, events, sub = run_with_midstream_tactic(
            Tactic("swap-partitioner", {"to": "equal"}), algorithm="MinTopK"
        )
        assert [e.applied for e in events] == [False]
        assert events[0].detail["skipped"] == "not a SAP subscription"
        assert isinstance(sub.algorithm, MinTopK)

    def test_rebuild_cost_logged(self):
        _, events, _ = run_with_midstream_tactic(
            Tactic("swap-partitioner", {"to": "equal"})
        )
        assert events[0].detail["rebuild_seconds"] >= 0.0


class TestFastForward:
    def test_mintopk_fast_forward_guard(self):
        algorithm = MinTopK(QUERY)
        algorithm.fast_forward(5)  # fresh: allowed
        assert algorithm._next_report == 5
        engine_query = TopKQuery(n=40, k=2, s=10)
        live = MinTopK(engine_query)
        live.run(make_dataset("STOCK").take(60))
        with pytest.raises(AlgorithmStateError):
            live.fast_forward(3)

    def test_default_fast_forward_is_noop(self):
        algorithm = SAPTopK(QUERY)
        algorithm.fast_forward(10)  # must not raise


class TestKnowledgeWiring:
    def test_executor_uses_shared_knowledge(self):
        knowledge = Knowledge()
        executor = Executor(knowledge)
        assert executor.knowledge is knowledge
