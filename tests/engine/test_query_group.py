"""Tests of the query-group plane: grouping, plans, and batched ingestion."""

import pytest

from repro.core.query import TopKQuery
from repro.core.result import results_agree
from repro.core.window import SlideBatcher
from repro.engine import StreamEngine, group_key_for
from repro.registry import create_algorithm

from ..conftest import make_objects, random_scores


class TestGrouping:
    def test_same_shape_queries_share_one_group(self):
        engine = StreamEngine()
        engine.subscribe("a", TopKQuery(n=50, k=3, s=5))
        engine.subscribe("b", TopKQuery(n=50, k=9, s=5))
        engine.subscribe("c", TopKQuery(n=60, k=3, s=5))  # different shape
        groups = engine.groups()
        assert len(groups) == 2
        assert groups[0]["members"] == ["a", "b"]
        assert groups[1]["members"] == ["c"]

    def test_group_key_ignores_k_and_preference(self):
        base = group_key_for(TopKQuery(n=50, k=3, s=5))
        assert base == group_key_for(TopKQuery(n=50, k=20, s=5))
        assert base != group_key_for(TopKQuery(n=50, k=3, s=5, time_based=True))
        assert base != group_key_for(TopKQuery(n=51, k=3, s=5))

    def test_late_subscriber_gets_fresh_group(self):
        objects = make_objects(random_scores(200, seed=1))
        engine = StreamEngine()
        engine.subscribe("early", TopKQuery(n=40, k=3, s=4))
        engine.push_many(objects[:100])
        late = engine.subscribe("late", TopKQuery(n=40, k=3, s=4))
        engine.push_many(objects[100:])
        assert len(engine.groups()) == 2
        # The late window starts empty at its subscription point.
        reference = create_algorithm("SAP", late.query).run(objects[100:])
        assert results_agree(late.results(), reference)

    def test_started_group_admits_members_anywhere(self):
        # Before its window filled and mid-slide, a started group admits
        # a member captured at its position, which answers as if it had
        # never moved.
        objects = make_objects(random_scores(60, seed=4))
        for cut in (7, 13):
            source, target = StreamEngine(), StreamEngine()
            source.subscribe("a", TopKQuery(n=10, k=2, s=4))
            target.subscribe("b", TopKQuery(n=10, k=3, s=4))
            source.push_many(objects[:cut])
            target.push_many(objects[:cut])
            target.restore_subscription(source.capture_subscription("a"))
            assert [group["members"] for group in target.groups()] == [["b", "a"]]
            target.push_many(objects[cut:])
            for name in ("a", "b"):
                reference = create_algorithm("SAP", target.subscription(name).query)
                assert results_agree(target.results(name), reference.run(objects))

    def test_unsubscribe_drops_empty_group(self):
        engine = StreamEngine()
        engine.subscribe("a", TopKQuery(n=50, k=3, s=5))
        engine.subscribe("b", TopKQuery(n=50, k=9, s=5))
        engine.unsubscribe("a")
        assert len(engine.groups()) == 1
        engine.unsubscribe("b")
        assert engine.groups() == []
        # A fresh subscription of the shape works again.
        engine.subscribe("c", TopKQuery(n=50, k=3, s=5))
        assert len(engine.groups()) == 1


class TestPlanFormation:
    def test_sap_queries_form_one_plan_at_k_max(self):
        engine = StreamEngine()
        for name, k in [("a", 3), ("b", 12), ("c", 7)]:
            engine.subscribe(name, TopKQuery(n=60, k=k, s=6), algorithm="SAP")
        engine.push(make_objects([1.0])[0])  # plans form on first push
        (group,) = engine.groups()
        (plan,) = group["plans"]
        assert plan["kind"] == "SAP"
        assert plan["k_max"] == 12
        assert plan["members"] == ["a", "b", "c"]

    def test_single_member_buckets_stay_independent(self):
        engine = StreamEngine()
        engine.subscribe("sap", TopKQuery(n=60, k=3, s=6), algorithm="SAP")
        engine.subscribe("sky", TopKQuery(n=60, k=3, s=6), algorithm="k-skyband")
        engine.subscribe("oracle", TopKQuery(n=60, k=3, s=6), algorithm="brute-force")
        engine.push(make_objects([1.0])[0])
        (group,) = engine.groups()
        assert group["plans"] == []

    def test_different_partitioner_configs_do_not_share(self):
        engine = StreamEngine()
        for name, algo in [("e1", "SAP-equal"), ("e2", "SAP-equal"),
                           ("d1", "SAP-dynamic"), ("d2", "SAP-dynamic")]:
            engine.subscribe(name, TopKQuery(n=60, k=4, s=6), algorithm=algo)
        engine.push(make_objects([1.0])[0])
        (group,) = engine.groups()
        kinds = sorted(
            (plan["kind"], tuple(plan["members"])) for plan in group["plans"]
        )
        assert kinds == [("SAP", ("d1", "d2")), ("SAP", ("e1", "e2"))]

    def test_mixed_algorithms_form_separate_plans(self):
        engine = StreamEngine()
        for index in range(2):
            engine.subscribe(f"sap{index}", TopKQuery(n=60, k=4, s=6), algorithm="SAP")
            engine.subscribe(f"sky{index}", TopKQuery(n=60, k=4, s=6), algorithm="k-skyband")
            engine.subscribe(f"min{index}", TopKQuery(n=60, k=4, s=6), algorithm="MinTopK")
        engine.push(make_objects([1.0])[0])
        (group,) = engine.groups()
        assert sorted(plan["kind"] for plan in group["plans"]) == [
            "MinTopK", "SAP", "k-skyband",
        ]

    def test_shared_members_report_plan_candidates(self):
        objects = make_objects(random_scores(300, seed=2))
        engine = StreamEngine()
        small = engine.subscribe("small", TopKQuery(n=60, k=2, s=6), algorithm="k-skyband")
        big = engine.subscribe("big", TopKQuery(n=60, k=10, s=6), algorithm="k-skyband")
        engine.push_many(objects)
        # Both report the shared core (sized for k_max), so the paper's
        # candidate bookkeeping stays visible per query.
        assert small.snapshot()["candidate_count"] == big.snapshot()["candidate_count"] > 0


class TestBatchedIngestion:
    def test_slide_batcher_push_batch_matches_push(self):
        objects = make_objects(random_scores(137, seed=3))
        query = TopKQuery(n=40, k=4, s=7)
        one_by_one = SlideBatcher(query)
        expected = [event for obj in objects for event in one_by_one.push(obj)]
        batched = SlideBatcher(query)
        actual = []
        for start in range(0, len(objects), 13):
            actual.extend(batched.push_batch(objects[start : start + 13]))
        assert actual == expected

    def test_push_many_chunked_matches_push(self):
        objects = make_objects(random_scores(250, seed=4))
        per_object = StreamEngine()
        a = per_object.subscribe("q", TopKQuery(n=50, k=5, s=10))
        for obj in objects:
            per_object.push(obj)
        chunked = StreamEngine()
        b = chunked.subscribe("q", TopKQuery(n=50, k=5, s=10))
        assert chunked.push_many(objects, chunk_size=17) == len(objects)
        assert results_agree(a.results(), b.results())

    def test_push_many_rejects_bad_chunk_size(self):
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=10, k=2, s=2))
        with pytest.raises(ValueError, match="chunk_size"):
            engine.push_many(iter([]), chunk_size=0)


class TestCallbackUnsubscribe:
    def test_unsubscribe_from_callback_keeps_siblings_in_sync(self):
        objects = make_objects(random_scores(300, seed=8))
        engine = StreamEngine()
        query = TopKQuery(n=50, k=3, s=10)

        def drop_a(name, result):
            if "a" in engine:
                engine.unsubscribe("a")

        engine.subscribe("a", query, algorithm="SAP", on_result=drop_a)
        b = engine.subscribe("b", query, algorithm="SAP")
        c = engine.subscribe("c", query, algorithm="SAP")
        engine.push_many(objects)
        # "a" unsubscribed itself on the first answer; b and c must have
        # received every slide and stayed exact.
        assert "a" not in engine
        reference = create_algorithm("SAP", query).run(objects)
        assert results_agree(b.results(), reference)
        assert results_agree(c.results(), reference)

    def test_unsubscribing_a_sibling_from_callback(self):
        objects = make_objects(random_scores(200, seed=9))
        engine = StreamEngine()
        query = TopKQuery(n=40, k=2, s=8)

        def drop_victim(name, result):
            if "victim" in engine:
                engine.unsubscribe("victim")

        engine.subscribe("trigger", query, on_result=drop_victim)
        engine.subscribe("victim", query)
        survivor = engine.subscribe("survivor", query)
        engine.push_many(objects)
        reference = create_algorithm("SAP", query).run(objects)
        assert results_agree(survivor.results(), reference)


class TestLazyPushResults:
    def test_return_results_false_skips_result_mapping(self):
        objects = make_objects(random_scores(60, seed=5))
        delivered = []
        engine = StreamEngine(return_results=False)
        subscription = engine.subscribe(
            "q", TopKQuery(n=20, k=3, s=5), on_result=lambda n, r: delivered.append(r)
        )
        produced = [engine.push(obj) for obj in objects]
        assert all(p == {} for p in produced)
        # Callbacks and retention are unaffected by the lazy return.
        assert delivered == subscription.results()
        assert len(delivered) == 1 + (60 - 20) // 5

    def test_flush_respects_return_results_opt_out(self):
        objects = make_objects(random_scores(120, seed=6))
        engine = StreamEngine(return_results=False)
        subscription = engine.subscribe("q", TopKQuery(n=40, k=3, s=10, time_based=True))
        engine.push_many(objects)
        before = subscription.results_delivered
        assert engine.flush() == {}
        assert subscription.results_delivered == before + 1

    def test_default_push_still_returns_results(self):
        objects = make_objects(random_scores(30, seed=7))
        engine = StreamEngine()
        engine.subscribe("q", TopKQuery(n=10, k=2, s=5))
        produced = [engine.push(obj) for obj in objects]
        assert [i for i, p in enumerate(produced) if p] == [9, 14, 19, 24, 29]


class TestMetricCohorts:
    """Plan members that joined together with one history share one
    collector; anything else keeps its aggregates apart."""

    QUERY = TopKQuery(n=20, k=3, s=5)

    def test_members_with_different_histories_keep_their_own(self):
        engine = StreamEngine()
        engine.subscribe("a", self.QUERY)
        engine.subscribe("b", self.QUERY)
        engine.subscription("a").metrics.record(1000, 64, 0.5)
        engine.push_many(make_objects(random_scores(60)))
        a, b = engine.stats()["a"], engine.stats()["b"]
        assert a["slides"] == b["slides"] + 1 == 10
        assert a["candidate_max"] == 1000 > b["candidate_max"]
        assert b["latency_samples"] == 9

    def test_a_departed_member_keeps_the_aggregates_it_left_with(self):
        engine = StreamEngine()
        engine.subscribe("a", self.QUERY)
        stays = engine.subscribe("b", self.QUERY)
        objects = make_objects(random_scores(100))
        engine.push_many(objects[:60])
        left = engine.subscription("a")
        engine.unsubscribe("a")
        before = (left.stats(), left.results_delivered)
        engine.push_many(objects[60:])
        assert (left.stats(), left.results_delivered) == before
        assert before[1] == 9 and stays.results_delivered == 17

    def test_metrics_read_a_snapshot_once_plans_run(self):
        engine = StreamEngine()
        subscription = engine.subscribe("a", self.QUERY)
        engine.push_many(make_objects(random_scores(60)))
        snapshot = subscription.metrics
        snapshot.record(1, 1, 1.0)
        assert subscription.metrics.slides == 9 and snapshot.slides == 10
