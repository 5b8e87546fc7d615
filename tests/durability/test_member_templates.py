"""Checkpoints capture one configuration per plan, made once per plan.

A plan's captured configuration is its leading member's ``respawn()``
template, made by the first capture and reused by later ones until a
preference update changes the member's configuration; every other member
of the plan is recorded by its ``k`` alone.  Members of one SAP plan that
share ``k`` retain the very same answer objects, and the members of one
metric cohort share one metrics record, so a payload pickles each once.
"""

from repro.baselines.mintopk import MinTopK
from repro.core.framework import SAPTopK
from repro.core.state import dumps, loads
from repro.engine import QuerySpec, StreamEngine

from ..conftest import make_objects, random_scores

STREAM = make_objects(random_scores(600, seed=21))


def test_each_member_respawns_once_over_two_checkpoints(tmp_path, monkeypatch):
    respawned = []
    for cls in (SAPTopK, MinTopK):
        original = cls.respawn

        def counting(self, original=original):
            respawned.append(id(self))
            return original(self)

        monkeypatch.setattr(cls, "respawn", counting)
    engine = StreamEngine.durable(str(tmp_path), checkpoint_interval=1000)
    for k in (2, 3, 3, 5):
        engine.subscribe(f"sap{len(engine)}", QuerySpec(n=40, k=k, s=10))
    engine.subscribe("min", QuerySpec(n=30, k=2, s=5).using("MinTopK"))
    engine.push_many(STREAM[:200])
    assert engine.durability.checkpoint(engine)
    engine.push_many(STREAM[200:400])
    assert engine.durability.checkpoint(engine)
    # One respawn per plan: the SAP plan's leader and the lone MinTopK.
    leaders = {id(engine.subscription(name).algorithm) for name in ("sap0", "min")}
    assert sorted(respawned) == sorted(leaders)
    engine.close()


def _plan_of(members, collect=lambda index: True):
    engine = StreamEngine(keep_results=False, return_results=False)
    for index in range(members):
        engine.subscribe(
            f"m{index}", QuerySpec(n=100, k=1 + index % 8, s=10),
            collect_metrics=collect(index),
        )
    engine.push_many(STREAM[:400])
    (state,) = engine.capture_groups()
    return state


def test_a_plan_of_200_pickles_one_configuration_and_one_collector_per_cohort():
    state = loads(dumps(_plan_of(200, collect=lambda index: index % 3 != 0)))
    ((positions, k_max, configuration),) = state.plans
    assert len(positions) == 200 and k_max == 8
    assert isinstance(configuration, SAPTopK)
    assert all(member.algorithm is None for member in state.members)
    assert sorted({member.k for member in state.members}) == list(range(1, 9))
    # Two cohorts: the members collecting metrics and those counting slides.
    cohorts = {id(member.metrics): member.metrics for member in state.members}
    assert len(cohorts) == 2
    assert sorted(metrics.slides for metrics in cohorts.values()) == [31, 31]


def test_a_checkpoint_grows_by_under_100_bytes_per_plan_member():
    small, large = len(dumps(_plan_of(100))), len(dumps(_plan_of(200)))
    assert (large - small) / 100 < 100, (small, large)


def _twenty_members(keep_results):
    engine = StreamEngine(keep_results=keep_results, return_results=False)
    for index in range(20):
        engine.subscribe(f"m{index}", QuerySpec(n=100, k=3 if index % 2 else 8, s=10))
    engine.push_many(STREAM[:400])
    return engine


def test_plan_members_with_one_k_pickle_each_answer_once():
    kept, bare = _twenty_members(True), _twenty_members(False)
    (group,) = kept.groups()
    assert [len(plan["members"]) for plan in group["plans"]] == [20]
    first, second = kept.subscription("m0"), kept.subscription("m2")
    assert len(first.results()) == 31
    assert all(a is b for a, b in zip(first.results(), second.results()))

    def size(engine, names=None):
        (state,) = engine.capture_groups(names)
        return len(dumps(state))

    retained = size(kept) - size(bare)
    one_stream = size(kept, ["m0"]) - size(bare, ["m0"])
    # Two distinct k: two answer streams plus each member's references,
    # where pickling every member's own answers would take twenty.
    assert retained < 3 * one_stream, (retained, one_stream)


def test_preference_update_refreshes_the_captured_configuration():
    engine = StreamEngine()
    engine.subscribe("u", QuerySpec(n=30, k=2, s=10).preferring((1.0, 1.0), cluster_id=0))
    (before,) = engine.capture_subscription("u").members
    assert before.algorithm is engine.capture_subscription("u").members[0].algorithm
    engine.update_preference("u", (2.0, 1.0))
    (after,) = engine.capture_subscription("u").members
    assert after.algorithm.vector == (2.0, 1.0)
    assert before.algorithm.vector == (1.0, 1.0)
