"""Slide-granular write-ahead log with segment rotation.

Records are framed ``<kind:u8> <length:u32> <crc32:u32> <payload>``
(little-endian).  Two kinds exist: :data:`KIND_CHUNK` payloads are the
columnar wire format of :func:`repro.core.columnar.encode_chunk` — one
record per ingested (post-dedupe) chunk — and
:data:`KIND_OP` payloads are pickled subscription lifecycle ops
(:func:`repro.core.state.dumps`).  Because chunks are logged in the
same format the data plane already ships between processes, a replayed
log reproduces the exact object sequence the engine saw, which is all
determinism needs for a byte-identical answer stream.

The log is a directory of segments named ``wal-<first_seq>.log`` where
``first_seq`` is the global sequence number of the segment's first
record.  Appends go to the newest segment until it exceeds
``segment_bytes``, then a new segment opens; :meth:`truncate` deletes
segments wholly below a checkpoint's covered prefix.  Reopening after a
crash always starts a *new* segment — old segments are immutable once
the writer moves past them, so a torn write can only ever live at the
tail of the last segment, where replay treats it as end-of-log.  A bad
CRC anywhere *else* is real corruption and raises
:class:`WalCorruptionError` rather than silently replaying a hole.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, List, Tuple

from ..core.exceptions import ReproError

#: Record framing: kind (u8), payload length (u32), payload crc32 (u32).
_HEADER = struct.Struct("<BII")

#: Record payload is a columnar-encoded chunk of ingested objects.
KIND_CHUNK = 1
#: Record payload is a pickled subscription lifecycle op tuple.
KIND_OP = 2

_KINDS = (KIND_CHUNK, KIND_OP)

#: Rotate to a new segment once the current one exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class WalCorruptionError(ReproError):
    """A WAL record failed its CRC somewhere other than the torn tail."""


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:016d}{_SEGMENT_SUFFIX}"


def _segment_seq(name: str) -> int:
    return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(first_seq, path)`` pairs for every segment, ascending."""
    pairs = []
    for name in os.listdir(directory):
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
            try:
                pairs.append((_segment_seq(name), os.path.join(directory, name)))
            except ValueError:
                continue
    pairs.sort()
    return pairs


def _read_segment(path: str, *, is_last: bool) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(kind, payload)`` records from one segment file.

    A short or CRC-bad record in the *last* segment is a torn tail from
    the crash — iteration just stops there.  The same damage in an
    earlier segment cannot be explained by a crash (earlier segments are
    immutable) and raises :class:`WalCorruptionError`.
    """
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                if is_last:
                    return
                raise WalCorruptionError(f"truncated record header in {path}")
            kind, length, crc = _HEADER.unpack(header)
            payload = handle.read(length)
            if (
                kind not in _KINDS
                or len(payload) < length
                or zlib.crc32(payload) != crc
            ):
                if is_last:
                    return
                raise WalCorruptionError(
                    f"corrupt record (kind={kind}, length={length}) in {path}"
                )
            yield kind, payload


class WriteAheadLog:
    """Append-only record log over a directory of rotating segments."""

    def __init__(
        self, directory: str, *, segment_bytes: int = DEFAULT_SEGMENT_BYTES
    ) -> None:
        self.directory = directory
        self.segment_bytes = segment_bytes
        os.makedirs(directory, exist_ok=True)
        #: Global sequence number of the next record to be appended ==
        #: total records ever written to this log.  Recovered from the
        #: last segment's name plus its surviving record count, so
        #: numbering stays global across truncations.
        self.next_seq = 0
        self._handle = None
        self._segment_start = 0
        self._segment_size = 0
        segments = _list_segments(directory)
        if segments:
            last_first, last_path = segments[-1]
            count = sum(1 for _ in _read_segment(last_path, is_last=True))
            self.next_seq = last_first + count

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, kind: int, payload: bytes) -> int:
        """Append one record; returns its global sequence number.

        Writes are buffered and flushed to the OS per record (crash of
        *this* process loses nothing); :meth:`sync` adds an fsync for
        machine-crash durability at checkpoint boundaries.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        if self._handle is None or self._segment_size >= self.segment_bytes:
            self._rotate()
        seq = self.next_seq
        record = _HEADER.pack(kind, len(payload), zlib.crc32(payload)) + payload
        self._handle.write(record)
        self._handle.flush()
        self._segment_size += len(record)
        self.next_seq += 1
        return seq

    def sync(self) -> None:
        """fsync the open segment (called before a checkpoint commits)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def _rotate(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
        self._segment_start = self.next_seq
        self._segment_size = 0
        path = os.path.join(self.directory, _segment_name(self.next_seq))
        # "xb" — a fresh segment must not exist; colliding with one would
        # mean two writers on the same log directory.
        self._handle = open(path, "xb")

    # ------------------------------------------------------------------
    # Reading / truncation
    # ------------------------------------------------------------------
    def first_seq(self) -> int:
        """Sequence number of the oldest surviving record (``next_seq``
        when the log holds none); above 0 once truncation ran."""
        segments = _list_segments(self.directory)
        return segments[0][0] if segments else self.next_seq

    def replay(self, after_seq: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(kind, payload)`` for every record with seq >= after_seq.

        Only call before the first :meth:`append` (recovery happens
        before the engine goes live).
        """
        segments = _list_segments(self.directory)
        for index, (first_seq, path) in enumerate(segments):
            is_last = index == len(segments) - 1
            seq = first_seq
            for kind, payload in _read_segment(path, is_last=is_last):
                if seq >= after_seq:
                    yield kind, payload
                seq += 1

    def truncate(self, before_seq: int) -> int:
        """Delete segments whose records all precede ``before_seq``.

        Returns the number of segments removed.  The live segment is
        never deleted; a segment is removable once the *next* segment's
        first_seq is <= before_seq.
        """
        segments = _list_segments(self.directory)
        removed = 0
        for index, (_, path) in enumerate(segments):
            if index + 1 >= len(segments):
                break
            next_first, _ = segments[index + 1]
            if next_first <= before_seq:
                os.remove(path)
                removed += 1
        return removed

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
