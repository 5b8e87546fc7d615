"""Property: SAP plans whose members repeat ``k`` deliver like private engines.

A plan answers each distinct ``k`` once per slide and hands every member
with that ``k`` the same result object; a member does no work of its own,
so the plan accounts its slides once, weighted by the members delivered.
Random plans draw *multisets* of ``k`` across two SAP configurations and
mix retention (``keep_results``, ``result_buffer``), ``collect_metrics``
and callbacks.  Mid-stream the ``k_max`` member of each plan (and maybe
others) unsubscribes, and one member's callback may unsubscribe another
member during a slide.  Every member must match brute force and a private
engine running its query alone: answers, retained answers, and the
``slides`` / ``results_delivered`` / ``latency_samples`` stats.  The
registry's slide and delivery counters must count every member-slide.

``REPRO_REPEATED_K_EXAMPLES`` raises the example count (CI runs it high).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StreamEngine, TopKQuery
from repro.core.metrics import MetricsCollector
from repro.core.state import dumps, loads
from repro.obs.registry import MetricsRegistry, set_registry
from repro.registry import create_algorithm

from ..conftest import make_objects

EXAMPLES = int(os.environ.get("REPRO_REPEATED_K_EXAMPLES", "30"))
ALGORITHMS = ("SAP", "SAP-equal")

scores_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-20, max_value=20).map(float),
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    ),
    min_size=30,
    max_size=160,
)

member_strategy = st.fixed_dictionaries(
    {
        "k": st.integers(min_value=1, max_value=6),
        "algorithm": st.sampled_from(ALGORITHMS),
        "keep_results": st.booleans(),
        "result_buffer": st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
        "collect_metrics": st.booleans(),
        "callback": st.booleans(),
    }
)


@st.composite
def members_strategy(draw):
    """2-8 members in which some ``k`` repeats within a configuration."""
    members = draw(st.lists(member_strategy, min_size=1, max_size=6))
    for index in draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=2)):
        twin = members[index % len(members)]
        members.append({**draw(member_strategy), "k": twin["k"],
                        "algorithm": twin["algorithm"]})
    return members


def _identities(results):
    return [(r.slide_index, r.window_end, r.identity()) for r in results]


def _subscribe(engine, name, query, member, recorded):
    options = {key: member[key] for key in ("keep_results", "result_buffer", "collect_metrics")}
    subscription = engine.subscribe(name, query, algorithm=member["algorithm"], **options)
    if member["callback"]:
        subscription.on_result(lambda _, result: recorded.setdefault(name, []).append(result))
    return subscription


def _counter_total(registry, metric):
    return sum(record["value"] for record in registry.snapshot() if record["name"] == metric)


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scores=scores_strategy,
    shape=st.tuples(st.integers(min_value=4, max_value=40), st.integers(min_value=1, max_value=8)),
    members=members_strategy(),
    cut=st.floats(min_value=0.1, max_value=0.9),
    extra_departures=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
    kill=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(0, 7),
                                        st.integers(1, 6))),
)
def test_repeated_k_plans_deliver_like_private_engines(
    scores, shape, members, cut, extra_departures, kill
):
    n, s = shape
    s = min(s, n)
    objects = make_objects(scores)
    split = max(1, int(len(objects) * cut))
    names = [f"m{index}" for index in range(len(members))]
    queries = [TopKQuery(n=n, k=min(member["k"], n), s=s) for member in members]

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        engine = StreamEngine(return_results=False)
        recorded = {}
        subscriptions = [
            _subscribe(engine, name, query, member, recorded)
            for name, query, member in zip(names, queries, members)
        ]
        victim = None
        if kill is not None and kill[0] % len(names) != kill[1] % len(names):
            killer, victim = names[kill[0] % len(names)], names[kill[1] % len(names)]
            calls = []

            def unsubscribe_victim(_, result):
                calls.append(result)
                if len(calls) == kill[2] and victim in engine:
                    engine.unsubscribe(victim)

            engine.subscription(killer).on_result(unsubscribe_victim)
        engine.push_many(objects[:split])
        # The k_max member of each configuration's plan leaves, plus others.
        departed = {
            max((index for index, member in enumerate(members) if member["algorithm"] == name),
                key=lambda index: (queries[index].k, -index))
            for name in {member["algorithm"] for member in members}
        }
        departed |= {index % len(names) for index in extra_departures}
        for index in departed:
            if names[index] in engine:
                engine.unsubscribe(names[index])
        if len(engine):
            engine.push_many(objects[split:])
    finally:
        set_registry(previous)

    delivered = sum(subscription.results_delivered for subscription in subscriptions)
    assert _counter_total(registry, "repro_slides_total") == delivered
    assert _counter_total(registry, "repro_results_delivered_total") == delivered

    for index, (name, query, member) in enumerate(zip(names, queries, members)):
        shared = subscriptions[index]
        count = shared.results_delivered
        reference = create_algorithm("brute-force", query).run(objects)
        due = len(reference)
        if index in departed:
            due = sum(1 for r in reference if r.window_end < split)
        if name == victim:
            assert count <= due, name
        else:
            assert count == due, name
        # A private engine fed exactly the windows this member was delivered.
        stop = reference[count - 1].window_end + 1 if count else 0
        private_recorded = {}
        private = StreamEngine(return_results=False)
        alone = _subscribe(private, name, query, member, private_recorded)
        private.push_many(objects[:stop])
        assert alone.results_delivered == count, name
        assert _identities(shared.results()) == _identities(alone.results()), name
        if member["callback"]:
            assert _identities(recorded.get(name, [])) == _identities(reference[:count]), name
        assert _identities(recorded.get(name, [])) == _identities(
            private_recorded.get(name, [])
        ), name
        for key in ("slides", "results_delivered", "latency_samples"):
            assert shared.stats()[key] == alone.stats()[key], (name, key)


def _oracle_callback(engine, name, collect, oracle):
    """Record, per answer, the sample the member's plan made for it: the
    aggregates a collector of the member's own would hold."""

    def record(_, result):
        metrics = oracle.setdefault(name, MetricsCollector())
        if collect:
            snapshot = engine.subscription(name).snapshot()
            metrics.record(snapshot["candidate_count"], snapshot["memory_bytes"])
        else:
            metrics.slides += 1

    engine.subscription(name).on_result(record)


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scores=scores_strategy,
    shape=st.tuples(st.integers(min_value=4, max_value=40), st.integers(min_value=1, max_value=8)),
    members=members_strategy(),
    joiners=members_strategy(),
    cuts=st.tuples(st.floats(min_value=0.1, max_value=0.9), st.floats(min_value=0.0, max_value=1.0)),
    round_trip=st.booleans(),
    extra_departures=st.sets(st.integers(min_value=0, max_value=15), max_size=2),
)
def test_cohorts_deliver_like_private_engines(
    scores, shape, members, joiners, cuts, round_trip, extra_departures
):
    """Members join a started group mid-stream with their history (captured
    from a donor engine at the same window position and restored), cohorts
    lose their first member, and the survivors move to a fresh engine (a
    second capture, of cohorts that carry a history); every member still
    matches a private engine running its query alone — answers, retained
    and drained answers, ``results_delivered``, ``snapshot()`` — and a
    collector of its own fed its plan's samples (every stat but the
    latency-timed)."""
    n, s = shape
    s = min(s, n)
    objects = make_objects(scores)
    join = max(1, int(len(objects) * cuts[0]))
    leave = join + int((len(objects) - join) * cuts[1])
    plan = [(f"m{i}", member, False) for i, member in enumerate(members)]
    plan += [(f"j{i}", member, True) for i, member in enumerate(joiners)]
    queries = {name: TopKQuery(n=n, k=min(member["k"], n), s=s) for name, member, _ in plan}

    registry = MetricsRegistry()
    previous = set_registry(registry)
    oracle = {}
    try:
        engine = StreamEngine(return_results=False)
        donor = StreamEngine(return_results=False)
        for name, member, joins in plan:
            target = donor if joins else engine
            _subscribe(target, name, queries[name], member, {})
            _oracle_callback(target, name, member["collect_metrics"], oracle)
        engine.push_many(objects[:join])
        donor.push_many(objects[:join])
        states = donor.capture_groups()
        if round_trip:
            states = loads(dumps(states))
        collects = {name: member["collect_metrics"] for name, member, _ in plan}
        for restored in engine.restore_groups(states):
            _oracle_callback(engine, restored.name, collects[restored.name], oracle)
        assert len(engine.groups()) == 1  # the joiners joined the started group
        handles = {name: engine.subscription(name) for name, _, _ in plan}
        # Every cohort's first member leaves, plus any others drawn.
        departed = {plan[0][0], next(name for name, _, joins in plan if joins)}
        departed |= {plan[index % len(plan)][0] for index in extra_departures}
        engine.push_many(objects[join:leave])
        for name in departed:
            engine.unsubscribe(name)
        if len(engine):
            states = engine.capture_groups()
            engine = StreamEngine(return_results=False)
            for restored in engine.restore_groups(loads(dumps(states))):
                handles[restored.name] = restored
                _oracle_callback(engine, restored.name, collects[restored.name], oracle)
            engine.push_many(objects[leave:])
    finally:
        set_registry(previous)

    delivered = sum(handle.results_delivered for handle in handles.values())
    assert _counter_total(registry, "repro_slides_total") == delivered
    assert _counter_total(registry, "repro_results_delivered_total") == delivered
    drained = engine.drain_results()
    for name, member, _ in plan:
        handle = handles[name]
        stop = leave if name in departed else len(objects)
        private = StreamEngine(return_results=False)
        alone = _subscribe(private, name, queries[name], member, {})
        private.push_many(objects[:stop])
        assert handle.results_delivered == alone.results_delivered, name
        expected = _identities(alone.results())
        if name in departed:
            assert _identities(handle.results()) == expected, name
        else:
            assert _identities(drained.get(name, [])) == expected, name
            assert handle.results() == []
        stats, mine = handle.stats(), oracle.get(name, MetricsCollector())
        assert stats["slides"] == mine.slides == alone.stats()["slides"], name
        assert stats["latency_samples"] == alone.stats()["latency_samples"], name
        for key, value in (("average_candidates", mine.average_candidates),
                           ("candidate_max", mine.candidate_max),
                           ("average_memory_kb", mine.average_memory_kb)):
            assert stats[key] == value, (name, key)
        snapshot, reference = handle.snapshot(), alone.snapshot()
        # A live member's answers were drained above (the private engine
        # kept its own); a departed member's group window moved on.
        keys = ("latest_scores",) if name in departed else ("window_size",)
        for key in ("slides", "results_delivered") + keys:
            assert snapshot[key] == reference[key], (name, key)
