"""Object-at-a-time reference for sliding-window slide events.

An independent, deliberately plain implementation of the count- and
time-based window semantics (one object at a time, a deque for the
window).  The library's :class:`~repro.core.window.SlideBatcher`, and
:func:`~repro.core.window.slides_for_query` built on it, must produce the
same events; the window tests compare against this module.
"""

from collections import deque
from typing import Iterable, Iterator, List

from repro.core.object import StreamObject
from repro.core.query import TopKQuery
from repro.core.window import SlideEvent


def reference_slides(objects: Iterable[StreamObject], query: TopKQuery) -> Iterator[SlideEvent]:
    if query.time_based:
        return _time_based(objects, query)
    return _count_based(objects, query)


def _count_based(objects, query) -> Iterator[SlideEvent]:
    # The first event once n objects arrived, then one per s arrivals;
    # trailing objects that do not fill a slide are discarded.
    window: deque = deque()
    arrivals: List[StreamObject] = []
    index = 0
    for obj in objects:
        window.append(obj)
        arrivals.append(obj)
        if index == 0 and len(window) < query.n:
            continue
        if index == 0 or len(arrivals) == query.s:
            expired = [window.popleft() for _ in range(len(window) - query.n)]
            yield SlideEvent(index, tuple(arrivals), tuple(expired), obj.t)
            index += 1
            arrivals = []


def _time_based(objects, query) -> Iterator[SlideEvent]:
    # A report at every multiple of s once a full window duration has
    # elapsed since the first object, and a final report at the end.
    # Objects that arrive and expire between two reports were never
    # visible, so they appear in neither list.
    window: deque = deque()
    arrivals: List[StreamObject] = []
    report_time = None
    index = 0

    def report(now):
        expired = []
        while window and window[0].arrival_time < now - query.n + 1:
            expired.append(window.popleft())
        expired_ts = {o.t for o in expired}
        arrived_ts = {o.t for o in arrivals}
        return SlideEvent(
            index,
            tuple(o for o in arrivals if o.t not in expired_ts),
            tuple(o for o in expired if o.t not in arrived_ts),
            now,
        )

    for obj in objects:
        if report_time is None:
            report_time = obj.arrival_time + query.n
        while obj.arrival_time > report_time:
            yield report(report_time)
            index += 1
            arrivals = []
            report_time += query.s
        window.append(obj)
        arrivals.append(obj)
    if report_time is not None:
        yield report(report_time)
