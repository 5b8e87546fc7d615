"""Property-based tests for the sliding-window substrate and MinTopK's
window-membership arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mintopk import MinTopK
from repro.core.query import TopKQuery
from repro.core.object import StreamObject
from repro.core.window import SlideBatcher, count_based_slides, slides_for_query

from ..conftest import make_objects
from ..window_reference import reference_slides


window_params = st.tuples(
    st.integers(min_value=2, max_value=40),   # n
    st.integers(min_value=1, max_value=15),   # s
    st.integers(min_value=0, max_value=120),  # extra objects beyond n
)


@settings(max_examples=120, deadline=None)
@given(params=window_params)
def test_count_based_slides_partition_the_stream(params):
    n, s, extra = params
    s = min(s, n)
    query = TopKQuery(n=n, k=1, s=s)
    objects = make_objects(range(n + extra))
    events = list(count_based_slides(objects, query))

    # Exactly one event per full slide after the window fills.
    assert len(events) == 1 + extra // s

    live = []
    arrived = set()
    for event in events:
        for obj in event.expirations:
            assert obj.t in arrived, "expired objects must have arrived before"
        expired_ids = {o.t for o in event.expirations}
        live = [o for o in live if o.t not in expired_ids] + list(event.arrivals)
        arrived.update(o.t for o in event.arrivals)
        # The live set is always exactly the last n arrived objects.
        assert len(live) == n
        assert [o.t for o in live] == list(range(live[0].t, live[0].t + n))


@settings(max_examples=120, deadline=None)
@given(params=window_params)
def test_slide_batcher_equivalent_to_generator(params):
    n, s, extra = params
    s = min(s, n)
    query = TopKQuery(n=n, k=1, s=s)
    objects = make_objects(range(n + extra))

    generated = list(reference_slides(objects, query))
    assert list(count_based_slides(objects, query)) == generated
    batcher = SlideBatcher(query)
    incremental = []
    for obj in objects:
        incremental.extend(batcher.push(obj))
    incremental.extend(batcher.flush())

    assert len(generated) == len(incremental)
    for a, b in zip(generated, incremental):
        assert [o.t for o in a.arrivals] == [o.t for o in b.arrivals]
        assert [o.t for o in a.expirations] == [o.t for o in b.expirations]


@settings(max_examples=120, deadline=None)
@given(
    params=window_params,
    steps=st.lists(st.integers(min_value=0, max_value=4), max_size=160),
)
def test_time_based_slides_match_the_reference(params, steps):
    n, s, _ = params
    query = TopKQuery(n=n, k=1, s=min(s, n), time_based=True)
    stamps = [sum(steps[: i + 1]) for i in range(len(steps))]
    objects = [StreamObject(score=float(i), t=i, timestamp=ts) for i, ts in enumerate(stamps)]
    assert list(slides_for_query(objects, query)) == list(reference_slides(objects, query))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=50),
    s=st.integers(min_value=1, max_value=20),
    t=st.integers(min_value=0, max_value=500),
)
def test_mintopk_window_membership_matches_definition(n, s, t):
    s = min(s, n)
    query = TopKQuery(n=n, k=1, s=s)
    algorithm = MinTopK(query)
    member_windows = set(algorithm._windows_of(t))
    # Window i covers arrival orders [i*s, i*s + n - 1].
    for window_index in range(0, t // s + 2):
        covered = window_index * s <= t <= window_index * s + n - 1
        assert (window_index in member_windows) == covered
