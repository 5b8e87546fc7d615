"""Property-based tests of the columnar data plane.

The :class:`~repro.core.columnar.SlideBlock` round trip is the exactness
foundation of the zero-copy transport: whatever objects go in — NaN and
infinite scores, empty slides, payload-bearing and payload-free batches —
the same objects must come back out, bit for bit, under both the numpy
and the stdlib backend.  The vectorized ordering helpers must likewise be
indistinguishable from the per-object ``top_k``.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    BACKENDS,
    BlockPackError,
    SlideBlock,
    decode_chunk,
    encode_chunk,
    topk_objects,
)
from repro.core.object import StreamObject, top_k

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is baked into the image
    HAVE_NUMPY = False

#: Backends actually runnable in this environment.
RUNNABLE_BACKENDS = [b for b in BACKENDS if b != "numpy" or HAVE_NUMPY]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: float64 scores including NaN, the infinities, and subnormals.
scores_strategy = st.floats(width=64, allow_nan=True, allow_infinity=True)

payload_strategy = st.one_of(
    st.none(),
    st.text(max_size=8),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


@st.composite
def stream_objects(draw, max_size=40):
    """A batch of stream objects with unique int64 arrival orders and a
    random mix of absent/present timestamps and payloads."""
    count = draw(st.integers(min_value=0, max_value=max_size))
    ts = draw(
        st.lists(
            st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    objects = []
    for t in ts:
        objects.append(
            StreamObject(
                score=draw(scores_strategy),
                t=t,
                payload=draw(payload_strategy),
                timestamp=draw(
                    st.one_of(
                        st.none(),
                        st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX),
                    )
                ),
            )
        )
    return objects


def same_object(left: StreamObject, right: StreamObject) -> bool:
    """Bit-exact equality, treating NaN scores as equal to themselves."""
    scores_equal = (
        left.score == right.score
        or (
            isinstance(left.score, float)
            and isinstance(right.score, float)
            and math.isnan(left.score)
            and math.isnan(right.score)
        )
    )
    return (
        scores_equal
        and left.t == right.t
        and left.payload == right.payload
        and left.timestamp == right.timestamp
    )


def assert_same_objects(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert same_object(a, b), f"{a} != {b}"


@pytest.mark.parametrize("backend", RUNNABLE_BACKENDS)
@settings(max_examples=120, deadline=None)
@given(objects=stream_objects())
def test_block_roundtrip(backend, objects):
    """from_objects -> to_objects is the identity, on either backend."""
    block = SlideBlock.from_objects(objects, backend=backend)
    assert len(block) == len(objects)
    assert_same_objects(block.to_objects(), objects)


@pytest.mark.parametrize("backend", RUNNABLE_BACKENDS)
@settings(max_examples=100, deadline=None)
@given(objects=stream_objects())
def test_wire_roundtrip(backend, objects):
    """to_bytes -> from_bytes is the identity; the payload flag only
    appears when at least one object actually carries a payload."""
    block = SlideBlock.from_objects(objects, backend=backend)
    data = block.to_bytes()
    if all(obj.payload is None for obj in objects):
        assert block.payloads is None  # payloads ride out-of-band only when present
    for decode_backend in RUNNABLE_BACKENDS:
        decoded = SlideBlock.from_bytes(data, backend=decode_backend)
        assert_same_objects(decoded.to_objects(), objects)


@pytest.mark.parametrize("backend", RUNNABLE_BACKENDS)
@settings(max_examples=100, deadline=None)
@given(objects=stream_objects())
def test_chunk_codec_roundtrip(backend, objects):
    data = encode_chunk(objects, backend=backend)
    decoded, block = decode_chunk(data)
    assert_same_objects(decoded, objects)
    assert block is not None  # packable inputs take the columnar format


def test_empty_block_roundtrips():
    for backend in RUNNABLE_BACKENDS:
        block = SlideBlock.from_objects([], backend=backend)
        assert len(block) == 0
        assert block.to_objects() == []
        decoded, wire_block = decode_chunk(encode_chunk([], backend=backend))
        assert decoded == []
        assert wire_block is not None


def test_unpackable_chunks_take_the_pickle_fallback():
    """Objects the columns cannot represent still round-trip — through the
    whole-chunk pickle format, signalled by ``block is None``."""
    beyond_int64 = [StreamObject(score=1.0, t=2**63)]
    from fractions import Fraction

    lossy_score = [StreamObject(score=Fraction(1, 3), t=0)]
    for objects in (beyond_int64, lossy_score):
        with pytest.raises(BlockPackError):
            SlideBlock.from_objects(objects)
        decoded, block = decode_chunk(encode_chunk(objects))
        assert block is None
        assert decoded[0].t == objects[0].t
        assert decoded[0].score == objects[0].score


@settings(max_examples=120, deadline=None)
@given(
    scores=st.lists(
        st.floats(width=64, allow_nan=True, allow_infinity=True),
        min_size=0,
        max_size=80,
    ),
    k=st.integers(min_value=0, max_value=20),
)
def test_topk_objects_matches_per_object_sort(scores, k):
    """The vectorized top-k realises the library's total order exactly —
    including the NaN fallback, duplicate scores broken by arrival order,
    and k past the input size."""
    objects = [StreamObject(score=s, t=i) for i, s in enumerate(scores)]
    assert topk_objects(objects, k) == top_k(objects, k)


@pytest.mark.parametrize("backend", RUNNABLE_BACKENDS)
def test_nan_and_inf_bit_patterns_survive_the_wire(backend):
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]
    objects = [StreamObject(score=v, t=i) for i, v in enumerate(values)]
    data = encode_chunk(objects, backend=backend)
    decoded, _ = decode_chunk(data)
    assert [pickle.dumps(o.score) for o in decoded] == [
        pickle.dumps(o.score) for o in objects
    ]
