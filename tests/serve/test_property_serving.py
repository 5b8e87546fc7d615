"""End-to-end exactness property of the serving layer.

The acceptance property of the whole subsystem: answers delivered over
the network are **byte-identical** to an embedded :class:`StreamEngine`
fed the same logical event sequence — even when the producer redelivers
events (at-least-once), because the dedupe window collapses redeliveries
before the engine sees them and ``t`` is assigned in admission order.

One server handles every hypothesis example (restarting per example
would dominate the runtime); isolation comes from a fresh subscription
name and a fresh id namespace per example, plus a full drain of the
ingest pipeline between examples.
"""

import itertools
import json
import time
import urllib.request

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import StreamEngine, StreamObject, TopKQuery
from repro.serve import ServeConfig, run_in_thread

# Window shapes kept tiny so every example completes several slides.
SHAPES = [(10, 3, 5), (8, 2, 4), (12, 4, 6)]

scores_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)

# Redelivery pattern: for each event, how many extra times the producer
# sends it (0 = exactly once).  Drawn independently of the scores and
# trimmed/padded to fit, so shrinking stays simple.
redelivery_strategy = st.lists(st.integers(min_value=0, max_value=2), max_size=40)


@pytest.fixture(scope="module")
def server():
    with run_in_thread(ServeConfig(port=0)) as handle:
        yield handle


_example_ids = itertools.count()


def _request(handle, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        handle.base_url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        raw = response.read()
        return response.status, json.loads(raw) if raw else None


def reference_answers(scores, shape):
    """The embedded-engine ground truth for the deduped event sequence."""
    n, k, s = shape
    engine = StreamEngine(keep_results=True)
    engine.subscribe("ref", TopKQuery(n=n, k=k, s=s))
    engine.push_many(
        [StreamObject(score=score, t=t) for t, score in enumerate(scores)],
        chunk_size=max(1, len(scores)),
    )
    produced = [
        {
            "slide_index": r.slide_index,
            "window_end": r.window_end,
            "objects": [{"score": o.score, "t": o.t} for o in r.objects],
        }
        for r in engine.subscription("ref").drain()
    ]
    engine.close()
    return produced


@settings(max_examples=25, deadline=None)
@given(
    scores=scores_strategy,
    redeliveries=redelivery_strategy,
    shape_index=st.integers(min_value=0, max_value=len(SHAPES) - 1),
)
def test_served_answers_byte_identical_to_embedded_engine(
    server, scores, redeliveries, shape_index
):
    example = next(_example_ids)
    name = f"prop-{example}"
    n, k, s = SHAPES[shape_index]
    status, _ = _request(
        server, "POST", "/v1/subscriptions", {"name": name, "n": n, "k": k, "s": s}
    )
    assert status == 201
    try:
        # Build the at-least-once stream: every event carries an id, and
        # some events are immediately redelivered (the worst case for a
        # window algorithm: a duplicate inside the same slide).
        events = []
        for index, score in enumerate(scores):
            event = {"id": f"ex{example}-e{index}", "score": score}
            extra = redeliveries[index] if index < len(redeliveries) else 0
            events.extend([event] * (1 + extra))

        status, body = _request(server, "POST", "/v1/events", {"events": events})
        assert status == 200
        assert body["accepted"] == len(scores)
        assert body["duplicates"] == len(events) - len(scores)

        expected = reference_answers(scores, SHAPES[shape_index])

        deadline = time.monotonic() + 10
        served = []
        while time.monotonic() < deadline:
            _, body = _request(server, "GET", f"/v1/subscriptions/{name}/results")
            served = body["results"]
            if len(served) >= len(expected):
                break
            time.sleep(0.01)

        # The server assigns t in admission order starting from its own
        # counter; shift the reference to the server's origin before
        # comparing identities.
        assert len(served) == len(expected)
        if served:
            origin = served[0]["objects"][0]["t"] - expected[0]["objects"][0]["t"]
        for got, want in zip(served, expected):
            assert got["slide_index"] == want["slide_index"]
            assert got["window_end"] - want["window_end"] == origin
            assert [o["score"] for o in got["objects"]] == [
                o["score"] for o in want["objects"]
            ]
            assert [o["t"] - origin for o in got["objects"]] == [
                o["t"] for o in want["objects"]
            ]
    finally:
        status, _ = _request(server, "DELETE", f"/v1/subscriptions/{name}")
        assert status == 204
