"""Property: hostile chunks at the embedded ingest edge change nothing.

``push``, ``push_many`` and ``push_block`` hand every chunk to one engine
edge, which refuses a chunk holding a NaN or infinite score, a score
float64 cannot hold exactly (an int past 2**53, a ``Fraction``), a ``t``
that does not strictly increase, a ``t`` that is not an integer within
int64 (one past int64, a float, a bool), or a timestamp that is neither
``None`` nor such an integer — before any group, plan or counter sees
it.  Fed valid chunks mixed with such chunks through all three entry
points, an engine must raise :class:`InvalidQueryError` for each hostile
chunk and end equal to a twin fed only the accepted chunks: the same
answers, the same groups, and the same captured windows and slide
indexes.  The examples are the fixed cases of
``tests/engine/test_ingest_edge.py``.

``REPRO_INGEST_EDGE_EXAMPLES`` raises the example count (CI runs it high).
"""

import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import QuerySpec, StreamEngine
from repro.core.columnar import SlideBlock
from repro.core.exceptions import InvalidQueryError
from repro.core.object import StreamObject

EXAMPLES = int(os.environ.get("REPRO_INGEST_EDGE_EXAMPLES", "40"))
N, S = 20, 5
MODES = ("push", "push_many", "push_block")
#: Score poisons, by name; ``"t"`` repeats or rewinds an arrival order.
SCORES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "int": 2**53 + 1,
    "fraction": Fraction(1, 3),
}
#: Arrival-order and timestamp poisons: each maps the object to poison.
STAMPS = {
    "t-int64": lambda obj: StreamObject(score=obj.score, t=2**63 + obj.t),
    "t-float": lambda obj: StreamObject(score=obj.score, t=obj.t + 0.5),
    "t-bool": lambda obj: StreamObject(score=obj.score, t=True),
    "timestamp-float": lambda obj: StreamObject(
        score=obj.score, t=obj.t, timestamp=float(obj.t)
    ),
}
POISONS = (None, "t") + tuple(SCORES) + tuple(STAMPS)

chunk_strategy = st.tuples(
    st.integers(min_value=1, max_value=12),  # size
    st.sampled_from(MODES),
    st.sampled_from(POISONS),
    st.integers(min_value=0, max_value=11),  # poisoned position
    st.integers(min_value=1, max_value=3),  # t step
)


def _engine():
    engine = StreamEngine(keep_results=True, return_results=False)
    engine.subscribe("sap3", QuerySpec(n=N, k=3, s=S).using("SAP"))
    engine.subscribe("sap5", QuerySpec(n=N, k=5, s=S).using("SAP"))
    engine.subscribe("min", QuerySpec(n=N, k=2, s=S).using("MinTopK"))
    engine.subscribe("sky", QuerySpec(n=N, k=4, s=S).using("k-skyband"))
    return engine


def _build(specs, seed):
    """``(chunks, poisoned)``: every chunk's objects (``t`` strictly
    increasing across all of them but at a ``"t"`` poison) and the
    position of its poison, ``None`` for a valid chunk."""
    rng = random.Random(seed)
    t = 0
    chunks, poisoned = [], []
    for size, _, poison, position, step in specs:
        chunk = []
        for _ in range(size):
            t += step
            chunk.append(StreamObject(score=round(rng.uniform(0, 100), 3), t=t))
        at = None
        if poison is not None:
            at = position % size
            if poison == "t":
                # Equal to the object before, or to the warm-up's first t.
                rewound = chunk[at - 1].t if at else -N
                chunk[at] = StreamObject(score=chunk[at].score, t=rewound)
            elif poison in STAMPS:
                chunk[at] = STAMPS[poison](chunk[at])
            else:
                chunk[at] = StreamObject(score=SCORES[poison], t=chunk[at].t)
        chunks.append(chunk)
        poisoned.append(at)
    return chunks, poisoned


def _block(chunk):
    """A block of ``chunk``.  A packed block cannot hold an inexact score,
    a ``t`` that is not an int64, or a float timestamp; one built with
    object columns hands them to the edge as they are."""
    block = SlideBlock.from_objects(
        [StreamObject(score=0.0, t=0, timestamp=0) for _ in chunk]
    )
    block.scores = np.array([obj.score for obj in chunk], dtype=object)
    block.ts = np.array([obj.t for obj in chunk], dtype=object)
    if all(obj.timestamp is None for obj in chunk):
        block.timestamps = block.timestamp_mask = None
    else:
        block.timestamps = np.array([obj.timestamp or 0 for obj in chunk], dtype=object)
        block.timestamp_mask = bytes(obj.timestamp is not None for obj in chunk)
    return block


def _feed(engine, mode, chunk, poisoned):
    """Feed ``chunk`` the ``mode`` way; return the objects admitted."""
    if mode == "push":
        admitted = []
        for index, obj in enumerate(chunk):
            if index == poisoned:
                with pytest.raises(InvalidQueryError):
                    engine.push(obj)
            else:
                engine.push(obj)
                admitted.append(obj)
        return admitted
    feed = engine.push_many if mode == "push_many" else lambda c: engine.push_block(_block(c))
    if poisoned is None:
        feed(chunk)
        return chunk
    with pytest.raises(InvalidQueryError):
        feed(chunk)
    return []


def _signature(engine):
    answers = {
        name: [(r.slide_index, r.window_end, r.identity()) for r in results]
        for name, results in sorted(engine.drain_results().items())
    }
    windows = [
        (state.window, state.slide_index, state.pending) for state in engine.capture_groups()
    ]
    return answers, engine.groups(), windows


@settings(
    max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(specs=st.lists(chunk_strategy, min_size=1, max_size=12), seed=st.integers(0, 2**16))
# An out-of-order t mid-chunk, and each hostile score, through each entry point.
@example(specs=[(12, "push_many", "t", 6, 1), (5, "push", None, 0, 1)], seed=0)
@example(specs=[(12, "push_block", "t", 0, 1), (3, "push_many", None, 0, 1)], seed=1)
@example(specs=[(10, "push_many", "nan", 5, 1), (10, "push", "inf", 9, 1)], seed=2)
@example(specs=[(10, "push_block", "-inf", 5, 1), (10, "push", "fraction", 5, 1)], seed=3)
@example(specs=[(10, "push_block", "int", 5, 1), (10, "push_many", "fraction", 0, 2)], seed=4)
# Each arrival-order and timestamp poison, through each entry point.
@example(specs=[(10, "push_many", "t-int64", 5, 1), (10, "push", "t-float", 9, 1)], seed=5)
@example(specs=[(10, "push_block", "t-bool", 0, 1), (10, "push", "timestamp-float", 3, 1)], seed=6)
@example(specs=[(10, "push_block", "t-int64", 9, 1), (10, "push_many", "t-bool", 4, 1)], seed=7)
@example(
    specs=[(10, "push_block", "t-float", 2, 1), (10, "push_block", "timestamp-float", 7, 2)],
    seed=8,
)
@example(specs=[(10, "push", "t-int64", 0, 1), (10, "push_many", "timestamp-float", 0, 1)], seed=9)
def test_hostile_chunks_leave_the_engine_as_its_twin(specs, seed):
    warm_up = [StreamObject(score=float(j % 7), t=-N + j) for j in range(N)]
    chunks, poisoned = _build(specs, seed)
    engine, twin = _engine(), _engine()
    engine.push_many(warm_up)
    twin.push_many(warm_up)
    for (_, mode, _, _, _), chunk, at in zip(specs, chunks, poisoned):
        accepted = _feed(engine, mode, chunk, at)
        if accepted:
            twin.push_many(accepted)
    assert _signature(engine) == _signature(twin)
