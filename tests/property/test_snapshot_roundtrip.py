"""Property tests of the serialization layer's round-trip guarantee.

The contract of :mod:`repro.core.state`: every algorithm's captured state
(a) pickles, (b) crosses a *real* process boundary, and (c) restores to an
engine whose subsequent answers are byte-identical to an uninterrupted
run.  The process-crossing half runs once per registered algorithm (a
forked child restores the payload and finishes the stream); the
hypothesis half explores arbitrary streams, count- and time-based window
shapes, chunk sizes and capture points after any chunk with in-process
pickle round-trips of the same bytes.
"""

import multiprocessing as mp
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StreamEngine, TopKQuery
from repro.core.exceptions import InvalidQueryError
from repro.core.state import dumps, loads
from repro.registry import algorithm_names, create_algorithm, get_algorithm

from ..conftest import make_objects, random_scores

#: Every score-ordered algorithm must satisfy the round-trip contract.
#: Preference algorithms ("clustered") need a per-user vector and rank
#: attribute payloads, so the plain scored streams here do not apply;
#: their exactness is covered by tests/property/test_property_clustering.py.
ALL_ALGORITHMS = tuple(
    name for name in algorithm_names() if not get_algorithm(name).example_options
)

QUERY = TopKQuery(n=60, k=5, s=10)

#: Examples per algorithm of the hypothesis property;
#: ``REPRO_SNAPSHOT_EXAMPLES`` raises it (CI runs it high).
EXAMPLES = int(os.environ.get("REPRO_SNAPSHOT_EXAMPLES", "15"))


def _identical(left, right):
    if len(left) != len(right):
        return False
    return all(
        a.slide_index == b.slide_index
        and a.window_end == b.window_end
        and a.identity() == b.identity()
        for a, b in zip(left, right)
    )


def _uninterrupted(algorithm_name, query, objects):
    engine = StreamEngine()
    engine.subscribe("watch", query, algorithm=algorithm_name)
    engine.push_many(objects)
    return engine.results("watch")


def _resume_in_child(payload, tail, connection):
    """Child-process half of the boundary crossing: restore and finish."""
    engine = StreamEngine()
    subscription = engine.restore_subscription(payload)
    engine.push_many(tail)
    connection.send(pickle.dumps(engine.results(subscription.name)))
    connection.close()


@pytest.mark.parametrize("algorithm_name", ALL_ALGORITHMS)
def test_state_crosses_a_process_boundary(algorithm_name):
    """Capture mid-slide, restore in a forked child, compare everything."""
    objects = make_objects(random_scores(300, seed=11))
    expected = _uninterrupted(algorithm_name, QUERY, objects)

    engine = StreamEngine()
    engine.subscribe("watch", QUERY, algorithm=algorithm_name)
    engine.push_many(objects[:147], chunk_size=49)
    payload = dumps(engine.capture_subscription("watch"))

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else methods[0])
    parent, child = ctx.Pipe()
    process = ctx.Process(
        target=_resume_in_child, args=(payload, objects[147:], child)
    )
    process.start()
    try:
        got = pickle.loads(parent.recv())
    finally:
        process.join(timeout=30)
    assert process.exitcode == 0
    assert _identical(got, expected)


def _accepts_time_based(algorithm_name):
    try:
        create_algorithm(algorithm_name, TopKQuery(n=10, k=1, s=5, time_based=True))
    except InvalidQueryError:
        return False
    return True


def _engine(queries, algorithm_name):
    engine = StreamEngine()
    for index, query in enumerate(queries):
        engine.subscribe(f"q{index}", query, algorithm=algorithm_name)
    return engine


def _answers(engine):
    return {
        name: [(r.slide_index, r.window_end, r.identity()) for r in engine.results(name)]
        for name in engine.subscriptions()
    }


def _windows(engine):
    return [
        (state.window, state.slide_index, state.pending, state.report_time)
        for state in engine.capture_groups()
    ]


@pytest.mark.parametrize("algorithm_name", ALL_ALGORITHMS)
@given(
    data=st.data(),
    scores=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        min_size=30,
        max_size=120,
    ),
)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pickled_state_restores_byte_identical(algorithm_name, data, scores):
    """For arbitrary streams, window shapes and chunk sizes, captured
    after any chunk — a window still filling or mid-slide included:
    dumps → loads → resume on a fresh engine gives the uncrashed twin's
    answers, groups and captured windows, and retained answers plus the
    delivery counter survive the round trip."""
    time_based = _accepts_time_based(algorithm_name) and data.draw(
        st.booleans(), label="time_based"
    )
    if data.draw(st.booleans(), label="coprime"):
        # Two groups whose slides (97, 101) share no divisor and do not
        # divide their windows: their slide boundaries almost never meet.
        shapes = [(200, 97), (202, 101)]
        scores = (scores * (500 // len(scores) + 1))[:500]
    else:
        shapes = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="queries")):
            n = data.draw(st.integers(min_value=5, max_value=25), label="n")
            s = data.draw(st.integers(min_value=1, max_value=n), label="s")
            shapes.append((n, s))
    queries = [
        TopKQuery(n=n, k=data.draw(st.integers(min_value=1, max_value=n), label="k"),
                  s=s, time_based=time_based)
        for n, s in shapes
    ]
    objects = make_objects(scores)
    chunk = data.draw(st.integers(min_value=1, max_value=len(objects)), label="chunk")
    cut = data.draw(st.integers(min_value=0, max_value=len(objects) // chunk), label="cut") * chunk

    twin = _engine(queries, algorithm_name)
    twin.push_many(objects, chunk_size=chunk)

    engine = _engine(queries, algorithm_name)
    if cut:
        engine.push_many(objects[:cut], chunk_size=chunk)
    states = loads(dumps(engine.capture_groups()))

    resumed = StreamEngine()
    resumed.restore_groups(states, engine.subscriptions())
    for name in engine.subscriptions():
        assert (resumed.subscription(name).results_delivered
                == engine.subscription(name).results_delivered)
    assert _answers(resumed) == _answers(engine)
    assert _windows(resumed) == _windows(engine)
    if objects[cut:]:
        resumed.push_many(objects[cut:], chunk_size=chunk)
    assert _windows(resumed) == _windows(twin)
    assert resumed.groups() == twin.groups()
    resumed.flush()
    twin.flush()
    assert _answers(resumed) == _answers(twin)
