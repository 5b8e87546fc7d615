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
  :func:`decode_chunk`) used by the cluster transports and the
  write-ahead log: the columns are written as raw little-endian buffers
  (a memcpy, not a per-object pickle walk).  Every chunk the ingest edge
  (:func:`repro.core.window.check_order`) admits packs: its scores are
  held exactly by float64, and its arrival orders and timestamps are
  integers within int64.
* the one ordering helper over columns (:func:`rank_descending`) and
  :func:`topk_objects` built on it, implementing the library-wide total
  order ``(score, t)`` via ``numpy.lexsort`` — used by partition sealing,
  SAP's pending-suffix top-k and the cluster plans' re-ranking instead
  of per-object Python sorts.
"""

from __future__ import annotations

import pickle
import struct
from typing import List, Optional, Sequence

import numpy as _np

from .object import StreamObject, top_k

# Wire format -----------------------------------------------------------
#: Header: magic, version, format, flags, count.
_HEADER = struct.Struct("<HBBBxxxQ")
_MAGIC = 0x5B1C
_WIRE_VERSION = 1
#: ``format`` byte of a columnar payload, the one chunk format.
FORMAT_COLUMNAR = 1
#: ``flags`` bits of a columnar payload.
_FLAG_TIMESTAMPS = 1
_FLAG_PAYLOADS = 2


class SlideBlock:
    """One batch of stream objects in columnar form.

    The columns are ``scores`` (float64) and ``ts`` (int64), plus an
    optional ``timestamps`` column with a byte ``timestamp_mask`` (1 where
    the object carried an explicit timestamp) and an optional out-of-band
    ``payloads`` list.  Instances are immutable by convention: the engine
    shares them freely between plans and members.
    """

    __slots__ = ("count", "scores", "ts", "timestamps", "timestamp_mask", "payloads")

    def __init__(self, count, scores, ts, timestamps, timestamp_mask, payloads) -> None:
        self.count = count
        self.scores = scores
        self.ts = ts
        self.timestamps = timestamps
        self.timestamp_mask = timestamp_mask
        self.payloads = payloads

    # ------------------------------------------------------------------
    @classmethod
    def from_objects(cls, objects: Sequence[StreamObject]) -> "SlideBlock":
        """Pack objects into columns (objects the ingest edge admitted:
        see :func:`repro.core.window.check_order`)."""
        count = len(objects)
        timestamps: Optional[List[int]] = None
        mask: Optional[bytearray] = None
        payloads: Optional[List[object]] = None
        for index, obj in enumerate(objects):
            if obj.timestamp is not None:
                if timestamps is None:
                    timestamps = [0] * count
                    mask = bytearray(count)
                timestamps[index] = obj.timestamp
                mask[index] = 1
            if obj.payload is not None:
                if payloads is None:
                    payloads = [None] * count
                payloads[index] = obj.payload
        return cls(
            count=count,
            scores=_np.array([obj.score for obj in objects], dtype=_np.float64),
            ts=_np.array([obj.t for obj in objects], dtype=_np.int64),
            timestamps=None if timestamps is None else _np.array(timestamps, dtype=_np.int64),
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
        parts.append(_np.ascontiguousarray(self.scores, dtype="<f8").tobytes())
        parts.append(_np.ascontiguousarray(self.ts, dtype="<i8").tobytes())
        if self.timestamps is not None:
            flags |= _FLAG_TIMESTAMPS
            parts.append(self.timestamp_mask)
            parts.append(_np.ascontiguousarray(self.timestamps, dtype="<i8").tobytes())
        if self.payloads is not None:
            flags |= _FLAG_PAYLOADS
            parts.append(pickle.dumps(self.payloads, protocol=pickle.HIGHEST_PROTOCOL))
        header = _HEADER.pack(_MAGIC, _WIRE_VERSION, FORMAT_COLUMNAR, flags, self.count)
        return header + b"".join(parts)

    @classmethod
    def from_bytes(cls, data) -> "SlideBlock":
        """Decode a block written by :meth:`to_bytes`."""
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

        scores = _np.frombuffer(take(col), dtype="<f8")
        ts = _np.frombuffer(take(col), dtype="<i8")
        if flags & _FLAG_TIMESTAMPS:
            mask = bytes(take(count))
            timestamps = _np.frombuffer(take(col), dtype="<i8")
        else:
            mask = None
            timestamps = None
        payloads = pickle.loads(view[offset:]) if flags & _FLAG_PAYLOADS else None
        return cls(
            count=count,
            scores=scores,
            ts=ts,
            timestamps=timestamps,
            timestamp_mask=mask,
            payloads=payloads,
        )


# ----------------------------------------------------------------------
# Chunk codec (the unit of the cluster transports and the write-ahead log)
# ----------------------------------------------------------------------
def encode_chunk(objects: Sequence[StreamObject]) -> bytes:
    """Encode a chunk of admitted stream objects for transport."""
    return SlideBlock.from_objects(objects).to_bytes()


def decode_chunk(data) -> SlideBlock:
    """Decode a chunk written by :func:`encode_chunk` into its block."""
    return SlideBlock.from_bytes(data)


# ----------------------------------------------------------------------
# Vectorized ordering (the library-wide total order over columns)
# ----------------------------------------------------------------------
def rank_descending(scores, ts) -> "object":
    """Indices ordering ``(score, t)`` best-first along the last axis.

    ``scores`` is one column or a 2-D batch of columns (one row per
    scoring vector) over the same arrival orders ``ts``.  Scores must not
    be NaN: NaN has no place in the total order, and the ingest edge
    (:func:`repro.core.window.check_order`) refuses it.
    """
    scores = _np.asarray(scores, dtype=_np.float64)
    ts = _np.asarray(ts, dtype=_np.int64)
    if scores.ndim > 1:
        ts = _np.broadcast_to(ts, scores.shape)
    return _np.lexsort((ts, scores), axis=-1)[..., ::-1]


def topk_objects(objects: Sequence[StreamObject], k: int) -> List[StreamObject]:
    """The ``k`` best objects, best first — vectorized :func:`~repro.core.object.top_k`.

    Bit-identical to the per-object sort: ``numpy.lexsort`` over the
    ``(score, t)`` columns realises the same total order (the ingest edge
    admits only scores float64 holds and arrival orders within int64).
    """
    if k <= 0:
        return []
    size = len(objects)
    if size == 0:
        return []
    if size <= 16:
        # Tiny inputs: column extraction costs more than the sort saves.
        return top_k(objects, k)
    scores = _np.array([obj.score for obj in objects], dtype=_np.float64)
    ts = _np.array([obj.t for obj in objects], dtype=_np.int64)
    order = rank_descending(scores, ts)[:k]
    return [objects[i] for i in order.tolist()]
