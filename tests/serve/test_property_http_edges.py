"""Property: hostile HTTP requests get a 4xx and change no answer.

One in-process server, over a real socket, is fed sequences that mix
valid ``POST /v1/subscriptions`` bodies with hostile ones, then valid
``POST /v1/events`` bodies with hostile ones.  The hostile bodies are the
fixed cases of :class:`tests.serve.test_server.TestNonFiniteNumbers` plus
generated variants of the same kinds: a valid body with one number
replaced by a non-finite, out-of-range or non-integral literal, or its
``time_based`` by anything but a JSON boolean.  Every
hostile request must get a 4xx — never a 5xx — and the served answers
of every valid subscription must equal those of an embedded engine fed
only the accepted events.

One server handles every example (restarting per example would dominate
the runtime); each example uses fresh subscription names and event ids
and unsubscribes everything at its end, which drops any buffered tail.
"""

import itertools
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QuerySpec, StreamEngine, StreamObject
from repro.serve import ServeConfig, run_in_thread

from . import test_server
from .test_server import request

HOSTILE_EVENTS = test_server.TestNonFiniteNumbers.HOSTILE_EVENTS
HOSTILE_SUBSCRIPTIONS = test_server.TestNonFiniteNumbers.HOSTILE_SUBSCRIPTIONS
SHAPES = [(10, 3, 5), (8, 2, 4), (12, 4, 6)]
#: JSON literals no score may take.
BAD_SCORES = [
    b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400",
    b"9007199254740993", b"1" + b"0" * 400, b'"1.0"', b"true", b"null",
]
#: JSON literals no window shape (or pinned cluster id) may take.
BAD_INTEGERS = [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"10.5", b"true", b'"x"']
#: JSON literals no preference weight or pad factor may take.
BAD_REALS = [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400"]
#: JSON literals ``time_based`` may not take: only a JSON boolean declares it.
BAD_BOOLEANS = [b'"no"', b'"yes"', b'"false"', b"0", b"1", b"null", b"[]"]

scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)
subscription_steps = st.lists(
    st.one_of(
        st.tuples(st.just("valid"), st.sampled_from(range(len(SHAPES)))),
        st.tuples(st.just("fixed"), st.sampled_from(range(len(HOSTILE_SUBSCRIPTIONS)))),
        st.tuples(
            st.just("integer"),
            st.sampled_from(["n", "k", "s", "cluster_id"]),
            st.sampled_from(BAD_INTEGERS),
        ),
        st.tuples(
            st.just("real"),
            st.sampled_from(["preference", "pad_factor"]),
            st.sampled_from(BAD_REALS),
        ),
        st.tuples(st.just("boolean"), st.just("time_based"), st.sampled_from(BAD_BOOLEANS)),
    ),
    max_size=5,
)
event_steps = st.lists(
    st.one_of(
        st.tuples(st.just("valid"), scores),
        st.tuples(st.just("fixed"), st.sampled_from(range(len(HOSTILE_EVENTS)))),
        st.tuples(
            st.just("spliced"), scores, st.integers(0, 8), st.sampled_from(BAD_SCORES)
        ),
    ),
    min_size=1,
    max_size=12,
)

_examples = itertools.count()


@pytest.fixture(scope="module")
def server():
    with run_in_thread(ServeConfig(port=0)) as handle:
        yield handle


def _hostile_subscription(step):
    """The raw body of one hostile subscription step."""
    if step[0] == "fixed":
        return HOSTILE_SUBSCRIPTIONS[step[1]]
    _, field, literal = step
    body = {"name": "h", "n": 10, "k": 3, "s": 5}
    if field in ("preference", "pad_factor", "cluster_id"):
        body["preference"] = [1.0, 0.5]
    # A placeholder string keeps json.dumps away from the literal.
    body[field] = ["@", 0.5] if field == "preference" else "@"
    return json.dumps(body).encode().replace(b'"@"', literal)


def _events(values, ids):
    return [{"id": next(ids), "score": value} for value in values]


def _spliced(values, position, literal, ids):
    parts = [json.dumps(event).encode() for event in _events(values, ids)]
    parts.insert(position % (len(parts) + 1), b'{"score": ' + literal + b"}")
    return b'{"events": [' + b", ".join(parts) + b"]}"


def _expected(shape, accepted):
    n, k, s = shape
    engine = StreamEngine(keep_results=True, return_results=False)
    engine.subscribe("q", QuerySpec(n=n, k=k, s=s))
    if accepted:
        engine.push_many([StreamObject(score=v, t=t) for t, v in enumerate(accepted)])
    return [
        (r.slide_index, r.window_end, [(o.score, o.t) for o in r.objects])
        for r in engine.results("q")
    ]


def _served(server, name, count, deadline):
    while True:
        status, body, _ = request(server, "GET", f"/v1/subscriptions/{name}/results")
        assert status == 200
        results = body["results"]
        if len(results) >= count or time.monotonic() > deadline:
            return results
        time.sleep(0.01)


def _assert_refused(status, body, raw):
    assert 400 <= status < 500, (status, body, raw)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    first=st.sampled_from(range(len(SHAPES))),
    subscriptions=subscription_steps,
    events=event_steps,
)
def test_hostile_requests_get_4xx_and_leave_the_answers_alone(
    server, first, subscriptions, events
):
    subscriptions = [("valid", first)] + subscriptions
    example = next(_examples)
    ids = (f"x{example}-{index}" for index in itertools.count())
    shapes = {}
    try:
        for step in subscriptions:
            if step[0] == "valid":
                name = f"q{example}-{len(shapes)}"
                n, k, s = SHAPES[step[1]]
                status, body, _ = request(
                    server, "POST", "/v1/subscriptions",
                    {"name": name, "n": n, "k": k, "s": s},
                )
                assert status == 201, body
                shapes[name] = SHAPES[step[1]]
            else:
                raw = _hostile_subscription(step)
                status, body, _ = request(server, "POST", "/v1/subscriptions", raw)
                _assert_refused(status, body, raw)
        _, body, _ = request(server, "GET", "/v1/subscriptions")
        assert sorted(s["name"] for s in body["subscriptions"]) == sorted(shapes)
        accepted = []
        for step in events:
            if step[0] == "valid":
                status, body, _ = request(
                    server, "POST", "/v1/events", {"events": _events(step[1], ids)}
                )
                assert (status, body["accepted"]) == (200, len(step[1])), body
                accepted.extend(step[1])
                continue
            raw = HOSTILE_EVENTS[step[1]] if step[0] == "fixed" else _spliced(*step[1:], ids)
            status, body, _ = request(server, "POST", "/v1/events", raw)
            _assert_refused(status, body, raw)
        deadline = time.monotonic() + 10
        for name, shape in shapes.items():
            expected = _expected(shape, accepted)
            served = _served(server, name, len(expected), deadline)
            assert len(served) == len(expected)
            if not served:
                continue
            # The server's arrival clock runs across examples; shift the
            # twin's t = 0, 1, ... to its origin.
            origin = served[0]["window_end"] - expected[0][1]
            assert [
                (r["slide_index"], r["window_end"] - origin,
                 [(o["score"], o["t"] - origin) for o in r["objects"]])
                for r in served
            ] == expected
    finally:
        for name in shapes:
            status, _, _ = request(server, "DELETE", f"/v1/subscriptions/{name}")
            assert status == 204
