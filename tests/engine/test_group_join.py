"""Seating members into a started query group, and dissolving plans.

A captured subscription restored at the window position of a live group
joins that group (``QueryGroup.admit`` -> ``_join``): fresh instances are
fast-forwarded to the group's slide, form plans among themselves, and are
fed the live window as one replayed slide.  Existing members and their
plans never notice.  Unsubscribing the last member of a plan dissolves the
plan and leaves the group's other members running.
"""

import pytest

from repro.baselines.mintopk import MinTopK
from repro.core.exceptions import AlgorithmStateError
from repro.core.framework import SAPTopK
from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.engine import StreamEngine
from repro.streams import make_dataset

STREAM = make_dataset("STOCK").take(2_400)


def _solo_answers(query, algorithm, objects):
    solo = StreamEngine(return_results=False)
    reference = solo.subscribe("ref", query, algorithm=algorithm)
    solo.push_many(objects)
    solo.flush()
    return [r.identity() for r in reference.results()]


def _move_back(engine, names):
    """Capture ``names``, unsubscribe them and restore them here: the
    records carry the live group's position, so they join that group."""
    states = engine.capture_groups(names)
    retained = {name: engine.subscription(name).results() for name in names}
    for name in names:
        engine.unsubscribe(name)
    engine.restore_groups(states)
    for name in names:
        assert engine.subscription(name).results() == retained[name]


class TestJoinStartedGroup:
    def test_restored_members_join_and_form_their_own_plan(self):
        engine = StreamEngine(return_results=False)
        subs = {
            k: engine.subscribe(f"q{k}", TopKQuery(n=300, k=k, s=20), algorithm="SAP")
            for k in (4, 8, 16)
        }
        engine.push_many(STREAM[:1200], chunk_size=20)
        (group,) = {sub.group for sub in subs.values()}
        (original,) = group.plans()

        _move_back(engine, ["q8", "q16"])

        (joined,) = engine.groups()
        assert joined["members"] == ["q4", "q8", "q16"]
        plans = group.plans()
        assert plans[0] is original
        assert [m.name for m in original.subscriptions()] == ["q4"]
        assert [m.name for m in plans[1].subscriptions()] == ["q8", "q16"]
        engine.push_many(STREAM[1200:], chunk_size=20)
        engine.flush()
        for k in (4, 8, 16):
            sub = engine.subscription(f"q{k}")
            assert [r.identity() for r in sub.results()] == _solo_answers(
                sub.query, "SAP", STREAM
            ), sub.name

    def test_join_leaves_a_mintopk_plan_alone(self):
        """A SAP join never touches MinTopK's plan, even on arrival orders
        with gaps, which a respawned MinTopK could not adopt."""
        gapped = [StreamObject(score=float(i * 37 % 101), t=2 * i) for i in range(1200)]
        algorithms = {"sap4": "SAP", "sap8": "SAP", "mt4": "MinTopK", "mt8": "MinTopK"}
        engine = StreamEngine(return_results=False)
        for name, algorithm in algorithms.items():
            engine.subscribe(name, TopKQuery(n=300, k=int(name[-1]), s=20),
                             algorithm=algorithm)
        engine.push_many(gapped[:600], chunk_size=20)
        group = engine.subscription("mt4").group
        (mintopk_plan,) = [
            plan for plan in group.plans()
            if isinstance(plan.subscriptions()[0].algorithm, MinTopK)
        ]
        mintopk_algorithms = [sub.algorithm for sub in mintopk_plan.subscriptions()]

        _move_back(engine, ["sap4", "sap8"])

        assert mintopk_plan in group.plans()
        assert [sub.algorithm for sub in mintopk_plan.subscriptions()] == mintopk_algorithms
        engine.push_many(gapped[600:], chunk_size=20)
        engine.flush()
        for name, algorithm in algorithms.items():
            sub = engine.subscription(name)
            assert [r.identity() for r in sub.results()] == _solo_answers(
                sub.query, algorithm, gapped
            ), name


class TestPlanDissolution:
    def test_unsubscribing_every_plan_member_drops_the_plan(self):
        engine = StreamEngine(return_results=False)
        for name, algorithm in (("a", "SAP"), ("b", "SAP"), ("m", "MinTopK")):
            engine.subscribe(name, TopKQuery(n=300, k=5, s=20), algorithm=algorithm)
        engine.push_many(STREAM[:1000], chunk_size=20)
        (group,) = engine.groups()
        assert [plan["members"] for plan in group["plans"]] == [["a", "b"]]
        engine.unsubscribe("a")
        engine.unsubscribe("b")
        (group,) = engine.groups()
        assert group["members"] == ["m"] and group["plans"] == []
        # The remaining member is capturable (no plan without members)
        # and stays exact.
        (state,) = engine.capture_groups()
        assert state.plans == ()
        engine.push_many(STREAM[1000:], chunk_size=20)
        engine.flush()
        assert [r.identity() for r in engine.subscription("m").results()] == (
            _solo_answers(TopKQuery(n=300, k=5, s=20), "MinTopK", STREAM)
        )


class TestRespawn:
    @pytest.mark.parametrize("algorithm", ["SAP", "SAP-dynamic", "SAP-equal"])
    def test_respawn_keeps_the_configuration(self, algorithm):
        engine = StreamEngine(return_results=False)
        sub = engine.subscribe("q", TopKQuery(n=300, k=8, s=20), algorithm=algorithm)
        engine.push_many(STREAM[:600])
        fresh = sub.algorithm.respawn()
        assert fresh is not sub.algorithm
        assert fresh.shared_plan_key() == sub.algorithm.shared_plan_key()
        assert fresh.partitioner is not sub.algorithm.partitioner
        assert fresh.partitioner.name == sub.algorithm.partitioner.name
        assert fresh.stats.partitions_sealed == 0


class TestFastForward:
    def test_mintopk_fast_forward_guard(self):
        query = TopKQuery(n=300, k=8, s=20)
        algorithm = MinTopK(query)
        algorithm.fast_forward(5)  # fresh: allowed
        assert algorithm._next_report == 5
        live = MinTopK(TopKQuery(n=40, k=2, s=10))
        live.run(make_dataset("STOCK").take(60))
        with pytest.raises(AlgorithmStateError, match="has state"):
            live.fast_forward(3)

    def test_default_fast_forward_is_noop(self):
        algorithm = SAPTopK(TopKQuery(n=300, k=8, s=20))
        algorithm.fast_forward(10)  # must not raise
