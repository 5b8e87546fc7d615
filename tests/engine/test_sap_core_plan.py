"""SAP shared plans: one SAP core at ``k_max``, members slice its answer."""

import random

import pytest

from repro import StreamEngine, TopKQuery
from repro.core.framework import SAPTopK
from repro.core.object import StreamObject, top_k
from repro.core.partition import UnitSummary, build_partition
from repro.registry import create_algorithm

from ..conftest import make_objects, random_scores


def uniform_then_downtrend(count=3000, split=800, slope=-0.2, seed=1):
    """Uniform scores, then the same noise on a falling trend.

    With n=2000, s=100, k=100 the enhanced dynamic partitioner seals a
    two-unit first partition whose first unit TBUI demotes to a non-k-unit
    while it still holds about half of the partition's top-100.
    """
    rng = random.Random(seed)
    return [
        StreamObject(
            score=rng.uniform(0, 100) + (0.0 if t < split else (t - split) * slope),
            t=t,
        )
        for t in range(count)
    ]


def _identities(results):
    return [(r.slide_index, r.window_end, r.identity()) for r in results]


class TestDefaultSAPExactness:
    def test_partition_topk_ignores_lossy_unit_summaries(self):
        # The first unit is a non-k-unit (top-1 summary only) but holds
        # the partition's whole top-5; the pooled summaries would miss it.
        objects = make_objects([90.0 + i for i in range(10)] + list(range(10)))
        units = [
            UnitSummary(0, 10, False, top_k(objects[:10], 1)),
            UnitSummary(10, 20, True, top_k(objects[10:], 5)),
        ]
        partition = build_partition(0, objects, 5, units)
        assert partition.topk == top_k(objects, 5)
        assert partition.units is units

    @pytest.mark.parametrize("k", [5, 20, 50, 100])
    def test_lone_and_shared_default_sap_match_brute_force(self, k):
        objects = uniform_then_downtrend()
        query = TopKQuery(n=2000, k=k, s=100)
        reference = _identities(create_algorithm("brute-force", query).run(objects))

        lone = StreamEngine()
        lone.subscribe("solo", query, algorithm="SAP")
        lone.push_many(objects)
        assert _identities(lone.results("solo")) == reference

        shared = StreamEngine()
        shared.subscribe("q", query, algorithm="SAP")
        shared.subscribe("big", TopKQuery(n=2000, k=100, s=100), algorithm="SAP")
        shared.subscribe("small", TopKQuery(n=2000, k=3, s=100), algorithm="SAP")
        shared.push_many(objects)
        (group,) = shared.groups()
        assert [plan["kind"] for plan in group["plans"]] == ["SAP"]
        assert _identities(shared.results("q")) == reference


class TestOneCorePerPlan:
    def test_one_sap_instance_processes_each_slide(self, monkeypatch):
        objects = make_objects(random_scores(1200, seed=11))
        engine = StreamEngine(return_results=False)
        subs = [
            engine.subscribe(f"m{i}", TopKQuery(n=200, k=1 + i % 25, s=20), algorithm="SAP")
            for i in range(50)
        ]
        processed = []
        original = SAPTopK.process_slide

        def counting(self, event):
            processed.append((id(self), event.index))
            return original(self, event)

        monkeypatch.setattr(SAPTopK, "process_slide", counting)
        engine.push_many(objects)

        slides = len(subs[0].results())
        assert slides == (1200 - 200) // 20 + 1
        (group,) = engine.groups()
        (plan,) = group["plans"]
        assert plan["k_max"] == 25 and len(plan["members"]) == 50
        # Exactly one SAP instance (the core) ran, once per slide.
        assert len({instance for instance, _ in processed}) == 1
        assert [index for _, index in processed] == list(range(slides))
        member_ids = {id(sub.algorithm) for sub in subs}
        assert not member_ids & {instance for instance, _ in processed}
        for sub in subs:
            assert len(sub.algorithm._candidates) == 0
            assert sub.algorithm.partition_count == 0
            assert len(sub.algorithm._pending_topk) == 0

    def test_member_answers_are_slices_of_the_core(self):
        objects = make_objects(random_scores(600, seed=12))
        engine = StreamEngine()
        small = engine.subscribe("small", TopKQuery(n=100, k=3, s=10), algorithm="SAP")
        big = engine.subscribe("big", TopKQuery(n=100, k=9, s=10), algorithm="SAP")
        engine.push_many(objects)
        for a, b in zip(small.results(), big.results()):
            assert a.objects == b.objects[:3]
        # Members report the core's bookkeeping (memory amortised).
        assert small.snapshot()["candidate_count"] == big.snapshot()["candidate_count"] > 0
        assert small.stats()["average_candidates"] == big.stats()["average_candidates"]

    def test_one_answer_per_distinct_k_and_no_member_clock(self):
        from repro.engine import subscription as subscription_module

        objects = make_objects(random_scores(600, seed=13))
        engine = StreamEngine(return_results=False)
        subs = [
            engine.subscribe(f"m{i}", TopKQuery(n=100, k=1 + i % 8, s=10), algorithm="SAP")
            for i in range(50)
        ]
        engine.push_many(objects)
        for slide in zip(*(sub.results() for sub in subs)):
            assert len({id(result) for result in slide}) == 8
            for sub, result in zip(subs, slide):
                assert len(result) == sub.query.k
        # Plan members read no clock of their own; each latency is the
        # member's share of the plan's prepare time.
        assert not hasattr(subscription_module, "time")
        latencies = {sub.metrics.latency_total for sub in subs}
        assert len(latencies) == 1 and latencies.pop() > 0
        assert {sub.stats()["latency_samples"] for sub in subs} == {len(subs[0].results())}

    def test_policy_and_savl_split_plans(self):
        engine = StreamEngine()
        for name, options in [
            ("lazy1", {}),
            ("lazy2", {}),
            ("eager1", {"meaningful_policy": "eager"}),
            ("eager2", {"meaningful_policy": "eager"}),
            ("plain", {"use_savl": False}),
        ]:
            engine.subscribe(
                name,
                TopKQuery(n=60, k=4, s=6),
                algorithm=create_algorithm("SAP", TopKQuery(n=60, k=4, s=6), **options),
            )
        engine.push(make_objects([1.0])[0])
        (group,) = engine.groups()
        assert sorted(plan["members"] for plan in group["plans"]) == [
            ["eager1", "eager2"],
            ["lazy1", "lazy2"],
        ]

    def test_core_runs_the_members_configuration(self):
        engine = StreamEngine()
        query = TopKQuery(n=60, k=4, s=6)
        for name in ("a", "b"):
            engine.subscribe(
                name,
                query,
                algorithm=create_algorithm(
                    "SAP-dynamic", query, meaningful_policy="amortized", use_savl=False
                ),
            )
        engine.push_many(make_objects(random_scores(120, seed=13)))
        (group,) = engine.groups()
        (plan,) = group["plans"]
        (shared,) = engine.subscription("a").group.plans()
        core = shared._core
        assert plan["partitioner"] == "dynamic" == core.partitioner.name
        assert (core._policy, core._use_savl) == ("amortized", False)
        assert core.query.k == 4


class TestSealTelemetryForMembers:
    def test_member_seal_stats_report_the_core(self):
        objects = make_objects(random_scores(800, seed=15))
        engine = StreamEngine(return_results=False)
        a = engine.subscribe("a", TopKQuery(n=100, k=3, s=10), algorithm="SAP")
        b = engine.subscribe("b", TopKQuery(n=100, k=8, s=10), algorithm="SAP")
        engine.push_many(objects)
        (plan,) = a.group.plans()
        assert b.group.plans() == [plan]
        stats = plan.seal_stats()
        assert stats["partitions_sealed"] > 0
        assert stats["partitions_live"] >= 1
        assert stats["framework"]["partitions_sealed"] == stats["partitions_sealed"]
        assert stats["name"] == "enhanced-dynamic"
