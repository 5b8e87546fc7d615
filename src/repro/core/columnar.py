"""Columnar slide representation: the zero-copy data plane.

Every :class:`~repro.core.object.StreamObject` is a Python dataclass, and
the per-object cost of walking, pickling, and sorting those dataclasses is
what caps the runtime well below the paper's ``costF``-per-object model.
This module packs a slide's ``(score, t, timestamp)`` columns into
contiguous buffers so the hot paths can operate on whole columns at once:

* :class:`SlideBlock` — one batch of stream objects in column form, with
  an exact round-trip to/from ``StreamObject`` sequences.  Scores are
  ``float64`` (NaN/inf bit patterns preserved), arrival orders ``int64``,
  timestamps an optional ``int64`` column plus a presence mask (so
  ``timestamp=None`` survives the round trip).  Payloads are carried
  *out of band* — a plain Python list riding alongside the columns — and
  only when at least one object actually has one.
* a wire format (:meth:`SlideBlock.to_bytes` / :func:`encode_chunk` /
  :func:`decode_chunk`) used by the cluster transports: the columns are
  written as raw little-endian buffers (a memcpy, not a per-object pickle
  walk), with an automatic whole-chunk pickle fallback for objects the
  columns cannot represent (arrival orders beyond int64, exotic score
  types).
* vectorized ordering helpers (:func:`rank_descending`,
  :func:`topk_objects`) implementing the library-wide total order
  ``(score, t)`` over columns via ``numpy.lexsort`` — used by partition
  sealing and SAP's pending-suffix top-k instead of per-object Python
  sorts.

numpy is optional: when it is unavailable (or explicitly disabled) every
entry point falls back to the stdlib ``array`` module and plain Python
sorts, producing bit-identical results.  The backend only changes speed,
never answers — the property tests assert the round trip under both.
"""

from __future__ import annotations

import pickle
import struct
from typing import List, Optional, Sequence, Tuple

from .object import StreamObject, top_k

try:  # pragma: no cover - exercised via both-backend parametrized tests
    import numpy as _np
except ImportError:  # pragma: no cover - the stdlib fallback path
    _np = None

#: Backend names accepted by :meth:`SlideBlock.from_objects`.
BACKENDS = ("numpy", "stdlib")

#: The default backend: numpy when importable, stdlib otherwise.
DEFAULT_BACKEND = "numpy" if _np is not None else "stdlib"

#: int64 bounds; arrival orders outside them cannot be packed as columns.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Wire format -----------------------------------------------------------
#: Header: magic, version, format, flags, count.
_HEADER = struct.Struct("<HBBBxxxQ")
_MAGIC = 0x5B1C
_WIRE_VERSION = 1
#: ``format`` byte: columnar payload vs whole-chunk pickle fallback.
FORMAT_COLUMNAR = 1
FORMAT_PICKLED = 2
#: ``flags`` bits of a columnar payload.
_FLAG_TIMESTAMPS = 1
_FLAG_PAYLOADS = 2


class BlockPackError(ValueError):
    """The objects cannot be represented as columns (use the fallback)."""


def _as_float_scores(objects: Sequence[StreamObject]) -> List[float]:
    scores: List[float] = []
    for obj in objects:
        score = obj.score
        if type(score) is not float:
            # Accept exact ints etc. only when float() preserves the value
            # and the ordering semantics; anything lossy must take the
            # pickle fallback instead of silently changing rank keys.
            try:
                as_float = float(score)
            except (TypeError, ValueError, OverflowError) as exc:
                raise BlockPackError(f"score {score!r} is not packable") from exc
            if as_float != score:
                raise BlockPackError(f"score {score!r} does not survive float64")
            score = as_float
        scores.append(score)
    return scores


class SlideBlock:
    """One batch of stream objects in columnar form.

    The columns are ``scores`` (float64) and ``ts`` (int64), plus an
    optional ``timestamps`` column with a byte ``timestamp_mask`` (1 where
    the object carried an explicit timestamp) and an optional out-of-band
    ``payloads`` list.  Instances are immutable by convention: the engine
    shares them freely between plans and members.
    """

    __slots__ = ("backend", "count", "scores", "ts", "timestamps", "timestamp_mask", "payloads")

    def __init__(self, backend, count, scores, ts, timestamps, timestamp_mask, payloads) -> None:
        self.backend = backend
        self.count = count
        self.scores = scores
        self.ts = ts
        self.timestamps = timestamps
        self.timestamp_mask = timestamp_mask
        self.payloads = payloads

    # ------------------------------------------------------------------
    @classmethod
    def from_objects(
        cls, objects: Sequence[StreamObject], backend: Optional[str] = None
    ) -> "SlideBlock":
        """Pack objects into columns (raises :class:`BlockPackError` when
        a score or arrival order cannot be represented)."""
        if backend is None:
            backend = DEFAULT_BACKEND
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "numpy" and _np is None:
            raise ValueError("the numpy backend is unavailable (numpy not importable)")
        count = len(objects)
        scores = _as_float_scores(objects)
        ts: List[int] = []
        for obj in objects:
            t = obj.t
            if type(t) is not int:
                if isinstance(t, bool) or not isinstance(t, int):
                    raise BlockPackError(f"arrival order {t!r} is not an int")
            if not _INT64_MIN <= t <= _INT64_MAX:
                raise BlockPackError(f"arrival order {t!r} overflows int64")
            ts.append(t)
        timestamps: Optional[List[int]] = None
        mask: Optional[bytearray] = None
        for index, obj in enumerate(objects):
            stamp = obj.timestamp
            if stamp is None:
                continue
            if not isinstance(stamp, int) or isinstance(stamp, bool):
                raise BlockPackError(f"timestamp {stamp!r} is not an int")
            if not _INT64_MIN <= stamp <= _INT64_MAX:
                raise BlockPackError(f"timestamp {stamp!r} overflows int64")
            if timestamps is None:
                timestamps = [0] * count
                mask = bytearray(count)
            timestamps[index] = stamp
            mask[index] = 1
        payloads: Optional[List[object]] = None
        for index, obj in enumerate(objects):
            if obj.payload is not None:
                if payloads is None:
                    payloads = [None] * count
                payloads[index] = obj.payload
        if backend == "numpy":
            score_col = _np.array(scores, dtype=_np.float64)
            t_col = _np.array(ts, dtype=_np.int64)
            stamp_col = None if timestamps is None else _np.array(timestamps, dtype=_np.int64)
        else:
            import array

            score_col = array.array("d", scores)
            t_col = array.array("q", ts)
            stamp_col = None if timestamps is None else array.array("q", timestamps)
        return cls(
            backend=backend,
            count=count,
            scores=score_col,
            ts=t_col,
            timestamps=stamp_col,
            timestamp_mask=bytes(mask) if mask is not None else None,
            payloads=payloads,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def to_objects(self) -> List[StreamObject]:
        """Materialise the exact ``StreamObject`` sequence of this block."""
        scores = self.scores.tolist()
        ts = self.ts.tolist()
        stamps = self.timestamps.tolist() if self.timestamps is not None else None
        mask = self.timestamp_mask
        payloads = self.payloads
        objects: List[StreamObject] = []
        for index in range(self.count):
            objects.append(
                StreamObject(
                    score=scores[index],
                    t=ts[index],
                    payload=payloads[index] if payloads is not None else None,
                    timestamp=stamps[index] if stamps is not None and mask[index] else None,
                )
            )
        return objects

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize: header + raw little-endian column buffers (+ pickled
        payload list when present).  Near-memcpy for payload-free blocks."""
        flags = 0
        parts: List[bytes] = []
        if self.backend == "numpy":
            score_bytes = _np.ascontiguousarray(self.scores, dtype="<f8").tobytes()
            t_bytes = _np.ascontiguousarray(self.ts, dtype="<i8").tobytes()
            stamp_bytes = (
                _np.ascontiguousarray(self.timestamps, dtype="<i8").tobytes()
                if self.timestamps is not None
                else None
            )
        else:
            score_bytes = struct.pack(f"<{self.count}d", *self.scores)
            t_bytes = struct.pack(f"<{self.count}q", *self.ts)
            stamp_bytes = (
                struct.pack(f"<{self.count}q", *self.timestamps)
                if self.timestamps is not None
                else None
            )
        parts.append(score_bytes)
        parts.append(t_bytes)
        if stamp_bytes is not None:
            flags |= _FLAG_TIMESTAMPS
            parts.append(self.timestamp_mask)
            parts.append(stamp_bytes)
        if self.payloads is not None:
            flags |= _FLAG_PAYLOADS
            parts.append(pickle.dumps(self.payloads, protocol=pickle.HIGHEST_PROTOCOL))
        header = _HEADER.pack(_MAGIC, _WIRE_VERSION, FORMAT_COLUMNAR, flags, self.count)
        return header + b"".join(parts)

    @classmethod
    def from_bytes(cls, data, backend: Optional[str] = None) -> "SlideBlock":
        """Decode a block written by :meth:`to_bytes`."""
        if backend is None:
            backend = DEFAULT_BACKEND
        magic, version, wire_format, flags, count = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise ValueError(f"not a SlideBlock payload (magic {magic:#x})")
        if version != _WIRE_VERSION:
            raise ValueError(f"unsupported SlideBlock wire version {version}")
        if wire_format != FORMAT_COLUMNAR:
            raise ValueError(f"payload is not columnar (format {wire_format})")
        offset = _HEADER.size
        view = memoryview(data)
        col = 8 * count

        def take(length: int) -> memoryview:
            nonlocal offset
            piece = view[offset : offset + length]
            offset += length
            return piece

        if backend == "numpy" and _np is not None:
            scores = _np.frombuffer(take(col), dtype="<f8")
            ts = _np.frombuffer(take(col), dtype="<i8")
            if flags & _FLAG_TIMESTAMPS:
                mask = bytes(take(count))
                timestamps = _np.frombuffer(take(col), dtype="<i8")
            else:
                mask = None
                timestamps = None
        else:
            import array

            scores = array.array("d")
            scores.frombytes(take(col))
            ts = array.array("q")
            ts.frombytes(take(col))
            if flags & _FLAG_TIMESTAMPS:
                mask = bytes(take(count))
                timestamps = array.array("q")
                timestamps.frombytes(take(col))
            else:
                mask = None
                timestamps = None
        payloads = pickle.loads(view[offset:]) if flags & _FLAG_PAYLOADS else None
        return cls(
            backend=backend if not (backend == "numpy" and _np is None) else "stdlib",
            count=count,
            scores=scores,
            ts=ts,
            timestamps=timestamps,
            timestamp_mask=mask,
            payloads=payloads,
        )


# ----------------------------------------------------------------------
# Chunk codec (the cluster transports' unit of transfer)
# ----------------------------------------------------------------------
def encode_chunk(objects: Sequence[StreamObject], backend: Optional[str] = None) -> bytes:
    """Encode a chunk of stream objects for transport.

    Columnar when possible; otherwise (exotic scores, arrival orders past
    int64) the whole chunk is pickled behind the same header, so every
    consumer handles every chunk through one entry point.
    """
    try:
        return SlideBlock.from_objects(objects, backend=backend).to_bytes()
    except BlockPackError:
        header = _HEADER.pack(_MAGIC, _WIRE_VERSION, FORMAT_PICKLED, 0, len(objects))
        return header + pickle.dumps(list(objects), protocol=pickle.HIGHEST_PROTOCOL)


def decode_chunk(
    data, backend: Optional[str] = None, materialize: bool = True
) -> Tuple[List[StreamObject], Optional[SlideBlock]]:
    """Decode a chunk written by :func:`encode_chunk`.

    Returns ``(objects, block)``; ``block`` is ``None`` for the pickle
    fallback format (the objects then carry everything).  Consumers that
    feed columnar chunks onward in block form pass ``materialize=False``
    to skip building the object list (``objects`` is then empty whenever
    ``block`` is not ``None``) — materialising here *and* in the block
    consumer would double the per-object cost of the hot path.
    """
    magic, version, wire_format, _flags, _count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"not a chunk payload (magic {magic:#x})")
    if version != _WIRE_VERSION:
        raise ValueError(f"unsupported chunk wire version {version}")
    if wire_format == FORMAT_PICKLED:
        return pickle.loads(memoryview(data)[_HEADER.size :]), None
    block = SlideBlock.from_bytes(data, backend=backend)
    return (block.to_objects() if materialize else []), block


# ----------------------------------------------------------------------
# Vectorized ordering (the library-wide total order over columns)
# ----------------------------------------------------------------------
def _columns_of(
    objects: Sequence[StreamObject],
) -> Optional[Tuple["object", "object"]]:
    """Extract (scores, ts) as numpy columns, or ``None`` when the
    vectorized order would not match the Python tuple order (no numpy,
    NaN scores, ints beyond int64)."""
    if _np is None:
        return None
    try:
        scores = _np.array([obj.score for obj in objects], dtype=_np.float64)
        ts = _np.array([obj.t for obj in objects], dtype=_np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if _np.isnan(scores).any():
        # Python tuple comparison and numpy lexsort disagree on NaN.
        return None
    return scores, ts


def rank_descending(scores, ts) -> "object":
    """Indices ordering the columns best-first under ``(score, t)``.

    Requires numpy columns with no NaN scores; callers go through
    :func:`topk_objects`, which performs that check.
    """
    return _np.lexsort((ts, scores))[::-1]


def topk_objects(objects: Sequence[StreamObject], k: int) -> List[StreamObject]:
    """The ``k`` best objects, best first — vectorized :func:`~repro.core.object.top_k`.

    Bit-identical to the per-object sort: ``numpy.lexsort`` over the
    ``(score, t)`` columns realises the same total order (NaN scores and
    non-int64 arrival orders fall back to the object sort).
    """
    if k <= 0:
        return []
    size = len(objects)
    if size == 0:
        return []
    if size <= 16 or _np is None:
        # Tiny inputs: column extraction costs more than the sort saves.
        return top_k(objects, k)
    columns = _columns_of(objects)
    if columns is None:
        return top_k(objects, k)
    scores, ts = columns
    if k >= size:
        order = rank_descending(scores, ts)
        return [objects[i] for i in order.tolist()]
    order = rank_descending(scores, ts)[:k]
    return [objects[i] for i in order.tolist()]
