"""Property: SAP plans sharing one core stay byte-identical to brute force.

Groups mix default ``"SAP"`` (enhanced dynamic partitioner) and
``"SAP-dynamic"`` queries — two plans in one group, each running one SAP
core at its own ``k_max`` — over random window shapes and sets of ``k``.
Mid-stream, the ``k_max`` member of every plan unsubscribes; the core
keeps running at the original ``k_max`` and the remaining members must
not notice.

``REPRO_SAP_CORE_EXAMPLES`` raises the example count (CI runs it high).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StreamEngine, TopKQuery
from repro.registry import create_algorithm

from ..conftest import make_objects

EXAMPLES = int(os.environ.get("REPRO_SAP_CORE_EXAMPLES", "40"))

scores_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-50, max_value=50).map(float),
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    ),
    min_size=40,
    max_size=240,
)

shape_strategy = st.tuples(
    st.integers(min_value=5, max_value=60),  # n
    st.integers(min_value=1, max_value=12),  # s
)

k_set_strategy = st.sets(st.integers(min_value=1, max_value=15), min_size=2, max_size=4)


def _identities(results):
    return [(r.slide_index, r.window_end, r.identity()) for r in results]


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scores=scores_strategy,
    shape=shape_strategy,
    sap_ks=k_set_strategy,
    dynamic_ks=k_set_strategy,
    cut=st.floats(min_value=0.1, max_value=0.9),
)
def test_mixed_sap_plans_match_brute_force(scores, shape, sap_ks, dynamic_ks, cut):
    n, s = shape
    s = min(s, n)
    objects = make_objects(scores)

    engine = StreamEngine()
    buckets = {}
    for prefix, algorithm, ks in (
        ("sap", "SAP", sap_ks),
        ("dyn", "SAP-dynamic", dynamic_ks),
    ):
        for index, k in enumerate(sorted(ks)):
            name = f"{prefix}{index}"
            engine.subscribe(name, TopKQuery(n=n, k=min(k, n), s=s), algorithm=algorithm)
            buckets.setdefault(prefix, []).append(name)
    subscriptions = {name: engine.subscription(name) for name in engine.subscriptions()}

    split = max(1, int(len(objects) * cut))
    engine.push_many(objects[:split])
    (group,) = engine.groups()
    assert sorted(plan["kind"] for plan in group["plans"]) == ["SAP", "SAP"]

    # The k_max member of each plan leaves; the core does not shrink.
    departed = {names[-1] for names in buckets.values()}
    for name in departed:
        engine.unsubscribe(name)
    engine.push_many(objects[split:])
    engine.flush()

    for name, subscription in subscriptions.items():
        reference = _identities(
            create_algorithm("brute-force", subscription.query).run(objects)
        )
        got = _identities(subscription.results())
        if name in departed:
            assert got == reference[: len(got)], name
        else:
            assert got == reference, (name, subscription.query.describe())
