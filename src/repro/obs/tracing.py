"""Pipeline tracing: spans over the slide lifecycle, across processes.

A **span** is one timed stage of one unit of stream data: the facade
batches a chunk (``ingest-batch``), the router packs it (``encode``) and
moves it to a shard (``send``), the worker unpacks it (``decode``) and
pushes it through its engine (``push``), the SAP framework seals
partitions (``seal``), and each subscription delivers an answer
(``deliver``).  Spans carry a correlation id — the router's per-shard
chunk sequence number for transport stages, the slide index for
engine-side stages — so a trace stitched from several processes still
reads as one pipeline.

Workers buffer their spans in a bounded ring and ship them back over the
existing control channel (the ``spans`` opcode); the facade merges
them with its own and :func:`to_chrome_trace` renders the whole thing as
Chrome trace-event JSON (load it at ``chrome://tracing`` or in Perfetto).

Tracing is **off by default** and costs one attribute check per
potential span while off.  Span timestamps use the epoch clock
(``time.time``) rather than ``perf_counter`` because perf_counter's
origin is per-process — epoch time is what makes spans from different
processes line up on one timeline.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "to_chrome_trace",
    "STAGES",
    "SPAN_CAPACITY",
]

#: The slide-lifecycle stages, in pipeline order.  Stage names are the
#: vocabulary shared by spans, the ``stage`` instrument label, and the
#: README's lifecycle diagram.
STAGES = (
    "ingest-batch",
    "encode",
    "send",
    "decode",
    "push",
    "seal",
    "merge",
    "deliver",
)

#: Bounded span buffer per tracer: long traces keep the most recent spans.
SPAN_CAPACITY = 65_536


class Span(NamedTuple):
    """One timed pipeline stage (a Chrome trace "complete" event)."""

    stage: str
    #: Correlation id: chunk sequence number for transport stages, slide
    #: index for engine-side stages (stitching key across processes).
    slide: int
    #: Epoch start time in seconds (cross-process comparable).
    start: float
    #: Duration in seconds.
    duration: float
    #: Origin: -1 for the facade/router process, the shard id in workers.
    shard: int
    #: Free-form annotation (subscription name, byte count, ...).
    detail: str = ""


class Tracer:
    """A bounded per-process span buffer behind one ``enabled`` flag.

    Hot paths guard on ``tracer.enabled`` (one attribute read) before
    computing anything span-related; ``record`` is only reached while
    tracing is on.
    """

    def __init__(self, capacity: int = SPAN_CAPACITY, shard: int = -1) -> None:
        self.enabled = False
        self.shard = shard
        self._spans: Deque[Span] = deque(maxlen=capacity)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def record(
        self,
        stage: str,
        slide: int,
        start: float,
        duration: float,
        detail: str = "",
    ) -> None:
        """Append one finished span (caller timed it; no clocks here)."""
        self._spans.append(Span(stage, slide, start, duration, self.shard, detail))

    def span(self, stage: str, slide: int, detail: str = "") -> "_OpenSpan":
        """Context manager timing a block as one span."""
        return _OpenSpan(self, stage, slide, detail)

    def drain(self) -> List[Span]:
        """Remove and return the buffered spans, oldest first."""
        spans = list(self._spans)
        self._spans.clear()
        return spans

    def __len__(self) -> int:
        return len(self._spans)


class _OpenSpan:
    __slots__ = ("_tracer", "_stage", "_slide", "_detail", "_start")

    def __init__(self, tracer: Tracer, stage: str, slide: int, detail: str) -> None:
        self._tracer = tracer
        self._stage = stage
        self._slide = slide
        self._detail = detail

    def __enter__(self) -> "_OpenSpan":
        self._start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.record(
            self._stage, self._slide, self._start, time.time() - self._start, self._detail
        )


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def span_payload(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Spans as plain dicts (the picklable wire form of the ``spans``
    opcode and the JSON form of the trace file's raw section)."""
    return [span._asdict() for span in spans]


def spans_from_payload(payload: Sequence[Dict[str, object]]) -> List[Span]:
    return [Span(**record) for record in payload]


def to_chrome_trace(spans: Sequence[Span]) -> Dict[str, object]:
    """Render spans as a Chrome trace-event JSON document.

    One "complete" (``ph: X``) event per span: ``pid`` is the shard
    (-1 = the facade/router), ``tid`` is the pipeline stage (kept in
    pipeline order via metadata events), timestamps are microseconds
    rebased to the earliest span so the trace starts near zero.  The
    correlation id rides in ``args.slide``, which is what lets a viewer
    follow one slide across processes.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(span.start for span in spans)
    events: List[Dict[str, object]] = []
    seen_processes = set()
    for span in spans:
        if span.shard not in seen_processes:
            seen_processes.add(span.shard)
            name = "facade/router" if span.shard < 0 else f"shard {span.shard}"
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": span.shard,
                    "args": {"name": name},
                }
            )
            for order, stage in enumerate(STAGES):
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": span.shard,
                        "tid": order,
                        "args": {"name": stage},
                    }
                )
        tid = STAGES.index(span.stage) if span.stage in STAGES else len(STAGES)
        events.append(
            {
                "ph": "X",
                "name": f"{span.stage} #{span.slide}",
                "cat": span.stage,
                "pid": span.shard,
                "tid": tid,
                "ts": round((span.start - base) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": {"slide": span.slide, "detail": span.detail},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> Dict[str, object]:
    """Write the Chrome trace JSON for ``spans`` to ``path``; returns it."""
    document = to_chrome_trace(spans)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


# ----------------------------------------------------------------------
# The process default tracer
# ----------------------------------------------------------------------
_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer every built-in layer records into."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous
