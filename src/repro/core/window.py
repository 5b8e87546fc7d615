"""Sliding-window substrate.

The algorithms in this library are all driven by a common abstraction: a
sequence of :class:`SlideEvent` objects.  Each event describes one movement
of the window and carries

* ``arrivals`` — the objects that entered the window during this slide, and
* ``expirations`` — the objects that left the window during this slide.

For the classic count-based window ``⟨n, s⟩`` every event (after the window
has filled) contains exactly ``s`` arrivals and ``s`` expirations.  For a
time-based window the counts vary from slide to slide.  Algorithms that are
window-type agnostic (SAP, the brute-force oracle, k-skyband) simply consume
the events; algorithms that exploit the count-based structure (MinTopK)
assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, inf
from operator import attrgetter, lt
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from .exceptions import InvalidQueryError
from .object import StreamObject
from .query import TopKQuery

_t_of = attrgetter("t")
_timestamp_of = attrgetter("timestamp")
_FLOAT_ONLY = {float}
_INT_ONLY = {int}
_NONE_ONLY = {None}
#: The int64 range: ``t`` and timestamps outside it cannot be packed.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Objects per batcher call when :func:`slides_for_query` drains a stream.
_SLIDES_CHUNK = 256


@dataclass(frozen=True)
class SlideEvent:
    """One movement of the sliding window.

    Attributes
    ----------
    index:
        Zero-based index of the reported window (0 = first full window).
    arrivals:
        Objects that entered the window since the previous report, oldest
        first.
    expirations:
        Objects that left the window since the previous report, oldest
        first.
    window_end:
        Arrival order / timestamp of the newest object in the window.
    """

    index: int
    arrivals: Tuple[StreamObject, ...]
    expirations: Tuple[StreamObject, ...]
    window_end: int


def _non_finite(score) -> bool:
    # NaN is the one value unequal to itself.
    return score != score or score == inf or score == -inf


def _inexact(score) -> bool:
    """True unless float64 holds ``score`` exactly (Fraction compares
    exactly with ints, numpy integers, fractions and decimals)."""
    try:
        return Fraction(float(score)) != score
    except (TypeError, ValueError, OverflowError):
        return True


def _integer(value) -> bool:
    """True for an int or a numpy integer (a bool is not an arrival order)."""
    return isinstance(value, (int, _np.integer)) and not isinstance(value, bool)


def check_order(objects: Sequence[StreamObject], previous: float) -> int:
    """The last ``t`` of a non-empty chunk; raises
    :class:`InvalidQueryError` unless every ``t`` is an integer within
    int64 that strictly increases, within the chunk and from ``previous``
    (``t`` identifies an object), every ``timestamp`` is ``None`` or such
    an integer, and every score is finite (NaN has no place in the
    ``(score, t)`` order) and held exactly by float64.  So every admitted
    chunk packs into a :class:`~repro.core.columnar.SlideBlock`."""
    ts = list(map(_t_of, objects))
    if set(map(type, ts)) != _INT_ONLY:
        for t in ts:
            if not _integer(t):
                raise InvalidQueryError(f"stream object t must be an integer; got {t!r}")
    if ts[0] <= previous or not all(map(lt, ts, islice(ts, 1, None))):
        # Name the first offending object.
        for t in ts:
            if t <= previous:
                raise InvalidQueryError(
                    "stream objects must arrive in strictly increasing order of t; "
                    f"got t={t} after t={previous}"
                )
            previous = t
    # ``t`` strictly increases, so the chunk's ends bound it.
    if ts[0] < _INT64_MIN or ts[-1] > _INT64_MAX:
        for t in ts:
            if not _INT64_MIN <= t <= _INT64_MAX:
                raise InvalidQueryError(f"stream object t must fit in int64; got t={t}")
    try:
        stamps = set(map(_timestamp_of, objects))
    except TypeError:  # an unhashable timestamp
        stamps = ()
    if stamps != _NONE_ONLY:
        for obj in objects:
            stamp = obj.timestamp
            if stamp is not None and not (
                _integer(stamp) and _INT64_MIN <= stamp <= _INT64_MAX
            ):
                raise InvalidQueryError(
                    "stream object timestamps must be None or an integer within "
                    f"int64; got {stamp!r} at t={obj.t}"
                )
    scores = [obj.score for obj in objects]
    # A chunk of plain floats needs one sum: a non-finite score makes it
    # non-finite, and so can an overflow, which the per-object pass admits.
    if set(map(type, scores)) == _FLOAT_ONLY and not _non_finite(sum(scores)):
        return ts[-1]
    for obj in objects:
        score = obj.score
        if isinstance(score, float):
            if _non_finite(score):
                raise InvalidQueryError(
                    f"stream object scores must be finite; got {score!r} at t={obj.t}"
                )
        elif _inexact(score):
            raise InvalidQueryError(
                "stream object scores must be held exactly by float64; "
                f"got {score!r} at t={obj.t}"
            )
    return ts[-1]


#: Ceiling for slide alignment: past it, aligning chunks to the least
#: common multiple of the slide sizes would buffer an unreasonable amount
#: of stream per dispatch, so the requested chunking is kept.
MAX_ALIGNED_CHUNK = 32_768


def aligned_chunk(windows: Iterable, requested: int = 1) -> int:
    """A chunk size that ends on a slide boundary of every count-based
    window.

    ``windows`` are queries or query groups (anything with ``s`` and
    ``time_based``); time-based windows are skipped.  The quantum is the
    least common multiple of the remaining slide sizes.
    Returns ``requested`` rounded down to a multiple of the quantum, or the
    quantum itself when ``requested`` is smaller; when the quantum would
    exceed :data:`MAX_ALIGNED_CHUNK`, returns ``requested`` unaligned.  With
    the default ``requested=1`` the result is the quantum (1 when none
    applies).
    """
    lcm = 1
    for window in windows:
        if window.time_based:
            continue
        lcm = lcm * window.s // gcd(lcm, window.s)
        if lcm > MAX_ALIGNED_CHUNK:
            return requested
    if requested <= lcm:
        return lcm
    return (requested // lcm) * lcm


class SlidingWindow:
    """Materialised view of the current window contents.

    The objects live in one list behind a head index: arrivals are
    appended a chunk at a time after one order check (objects expire in
    exactly the order they arrived), expiry slices the oldest objects off
    and moves the head, and the dead prefix is dropped once it outgrows
    the live part, so the list never holds more than about twice the
    window.  ``checked=False`` skips the order check (already done).
    """

    def __init__(self, checked: bool = True) -> None:
        self._objects: List[StreamObject] = []
        self._head = 0
        self._checked = checked

    def __len__(self) -> int:
        return len(self._objects) - self._head

    def __iter__(self) -> Iterator[StreamObject]:
        return iter(self.contents())

    @property
    def oldest(self) -> StreamObject:
        return self._objects[self._head]

    @property
    def newest(self) -> StreamObject:
        return self._objects[-1]

    def contents(self) -> List[StreamObject]:
        """Snapshot of the window contents, oldest first."""
        return self._objects[self._head :]

    def append(self, obj: StreamObject) -> None:
        self.extend((obj,))

    def extend(self, objects: Sequence[StreamObject]) -> None:
        """Append a chunk of objects, oldest first."""
        if not objects:
            return
        if self._checked:
            check_order(objects, self.newest.t if len(self) else float("-inf"))
        self._objects.extend(objects)

    def expire_oldest(self, count: int) -> List[StreamObject]:
        """Remove and return the ``count`` oldest objects."""
        return self._expire_to(self._head + count)

    def expire_older_than(self, cutoff: int) -> List[StreamObject]:
        """Remove and return every object whose arrival time precedes
        ``cutoff`` (time-based windows)."""
        objects, end = self._objects, self._head
        while end < len(objects) and objects[end].arrival_time < cutoff:
            end += 1
        return self._expire_to(end)

    def _expire_to(self, end: int) -> List[StreamObject]:
        objects, head = self._objects, self._head
        removed = objects[head:end]
        head += len(removed)
        if head > len(objects) - head:
            del objects[:head]
            head = 0
        self._head = head
        return removed


class SlideBatcher:
    """Incremental slide-event builder, fed one chunk at a time.

    Every query group of the engine owns exactly one batcher for its
    window shape (see :class:`repro.engine.group.QueryGroup`), and
    :func:`slides_for_query` drains a whole stream through one.  How the
    stream is chunked never changes the events; a time-based window emits
    its final (end-of-stream) report only when :meth:`flush` is called.
    Query groups pass ``checked=False``: the engine's edge checks order.
    """

    def __init__(self, query: TopKQuery, checked: bool = True) -> None:
        self.query = query
        self._window = SlidingWindow(checked)
        self._pending: List[StreamObject] = []
        self._index = 0
        self._filled = False
        self._report_time: Optional[int] = None

    # ------------------------------------------------------------------
    def push(self, obj: StreamObject) -> List[SlideEvent]:
        """Feed one object; return the slide events it completes (0+)."""
        return self.push_batch((obj,))

    def push_batch(self, objects: Sequence[StreamObject]) -> List[SlideEvent]:
        """Feed a batch of objects at once; return the events it completes.

        Equivalent to pushing each object individually, but the count-based
        path advances in whole-slide strides, so the multi-query engine can
        move a chunk of stream through a query group with one call instead
        of one dispatch per object per query.
        """
        events: List[SlideEvent] = []
        window, query = self._window, self.query
        if query.time_based:
            for obj in objects:
                if self._report_time is None:
                    self._report_time = obj.arrival_time + query.n
                while obj.arrival_time > self._report_time:
                    events.append(self._emit_time_based(self._report_time))
                    self._report_time += query.s
                window.append(obj)
                self._pending.append(obj)
            return events
        total = len(objects)
        position = 0
        while position < total:
            if not self._filled:
                take = min(query.n - len(window), total - position)
            else:
                take = min(query.s - len(self._pending), total - position)
            chunk = objects[position : position + take]
            window.extend(chunk)
            self._pending.extend(chunk)
            position += take
            if not self._filled:
                if len(window) == query.n:
                    self._filled = True
                    events.append(self._emit(expirations=[]))
            elif len(self._pending) == query.s:
                expired = window.expire_oldest(query.s)
                events.append(self._emit(expirations=expired))
        return events

    def push_block(self, block, objects: Sequence[StreamObject]) -> List[SlideEvent]:
        """:meth:`push_batch` of ``objects``, the objects of ``block``.

        Nothing in the program calls it: it remains because the
        ``perfbench`` tracer wraps it by name, until the program times its
        own stages.
        """
        return self.push_batch(objects)

    def flush(self) -> List[SlideEvent]:
        """Emit the final report of a time-based window (if any)."""
        if not self.query.time_based or self._report_time is None:
            return []
        event = self._emit_time_based(self._report_time)
        self._report_time = None
        return [event]

    def seed(self, contents: Sequence[StreamObject], last_index: int) -> None:
        """Load captured window state into a never-pushed batcher.

        After seeding, the batcher behaves exactly as if it had consumed a
        stream ending at the slide boundary ``last_index`` whose window
        contents were ``contents``: the next ``s`` arrivals complete slide
        ``last_index + 1`` with the correct expirations.  This is the
        restore half of the serialization layer (:mod:`repro.core.state`);
        only exact boundaries can be captured, so only full count-based
        windows can be seeded.
        """
        if self.query.time_based:
            raise InvalidQueryError("only count-based windows can be seeded")
        if self._index or self._filled or self._pending or len(self._window):
            raise InvalidQueryError("cannot seed a batcher that has consumed objects")
        if len(contents) != self.query.n:
            raise InvalidQueryError(
                f"seeding needs exactly n={self.query.n} objects "
                f"(a full window), got {len(contents)}"
            )
        if last_index < 0:
            raise InvalidQueryError(f"last_index must be >= 0, got {last_index}")
        self._window.extend(contents)
        self._filled = True
        self._index = last_index + 1

    def window_size(self) -> int:
        """Number of stream objects currently held by the window."""
        return len(self._window)

    def window_contents(self) -> List[StreamObject]:
        """Snapshot of the buffered window, oldest first.

        Captures and joins read it: a member seated in a started group is
        fed these contents as one replayed slide.
        """
        return self._window.contents()

    def pending_count(self) -> int:
        """Objects accumulated since the last emitted slide event."""
        return len(self._pending)

    @property
    def last_index(self) -> Optional[int]:
        """Index of the most recently emitted slide event (None before the
        window first fills)."""
        return self._index - 1 if self._index else None

    def at_slide_boundary(self) -> bool:
        """True when the window state corresponds exactly to the last
        emitted slide event — i.e. the window has filled and no partial
        slide has accumulated since.  Only count-based windows have exact
        boundaries; time-based windows buffer ahead of their reports."""
        return (
            not self.query.time_based
            and self._index > 0
            and not self._pending
        )

    # ------------------------------------------------------------------
    def _emit_time_based(self, now: int) -> SlideEvent:
        expired = self._window.expire_older_than(now - self.query.n + 1)
        expired_ids = {o.t for o in expired}
        pending_ids = {o.t for o in self._pending}
        arrivals = [o for o in self._pending if o.t not in expired_ids]
        expirations = [o for o in expired if o.t not in pending_ids]
        event = SlideEvent(
            index=self._index,
            arrivals=tuple(arrivals),
            expirations=tuple(expirations),
            window_end=now,
        )
        self._index += 1
        self._pending = []
        return event

    def _emit(self, expirations: Sequence[StreamObject]) -> SlideEvent:
        event = SlideEvent(
            index=self._index,
            arrivals=tuple(self._pending),
            expirations=tuple(expirations),
            window_end=self._pending[-1].t if self._pending else self._window.newest.t,
        )
        self._index += 1
        self._pending = []
        return event


def slides_for_query(
    objects: Iterable[StreamObject], query: TopKQuery
) -> Iterator[SlideEvent]:
    """Generate the slide events of ``query``'s window over a stream.

    The pull-based face of :class:`SlideBatcher`, fed in chunks.  A
    count-based window reports once ``n`` objects have arrived and then
    once per ``s`` arrivals; trailing objects that do not fill a whole
    slide are discarded, mirroring the paper's setup where ``s`` divides
    the processed stream length.  A time-based window (``n`` and ``s`` are
    durations in the unit of the objects' arrival times) reports at every
    multiple of ``s`` once a full window duration has elapsed since the
    first object, and a final report covers the last full window.
    """
    batcher = SlideBatcher(query)
    source = iter(objects)
    while True:
        chunk = list(islice(source, _SLIDES_CHUNK))
        if not chunk:
            break
        yield from batcher.push_batch(chunk)
    yield from batcher.flush()


def count_based_slides(
    objects: Iterable[StreamObject], query: TopKQuery
) -> Iterator[SlideEvent]:
    """:func:`slides_for_query` of a count-based query."""
    if query.time_based:
        raise InvalidQueryError("count_based_slides requires a count-based query")
    return slides_for_query(objects, query)


def time_based_slides(
    objects: Iterable[StreamObject], query: TopKQuery
) -> Iterator[SlideEvent]:
    """:func:`slides_for_query` of a time-based query."""
    if not query.time_based:
        raise InvalidQueryError("time_based_slides requires a time-based query")
    return slides_for_query(objects, query)
