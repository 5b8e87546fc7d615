"""Idempotent ingestion: event-id dedupe and slide-aligned batching.

Network producers deliver *at least* once — a webhook that times out is
retried, a reconnecting publisher replays its tail — but the engine's
arrival-order contract needs every object exactly once.  The bridge is a
bounded LRU **dedupe window** over producer-supplied event ids: an id seen
while still inside the window is dropped (and counted), so redelivery is
invisible downstream, while the bound keeps memory O(window) no matter
how long the service runs.  Eviction re-admits: an id replayed after its
entry aged out of the window is treated as new, which is the standard
idempotency-window trade-off (producers must not replay older than the
window, and :attr:`DedupeWindow.evictions` says when that assumption is
at risk).

Admitted events become :class:`~repro.core.object.StreamObject` instances
with a server-assigned, strictly increasing arrival order — producers
never coordinate on ``t`` — and accumulate in an :class:`IngestBatcher`
that releases them in slide-aligned batches for
:meth:`~repro.engine.core.EngineCore.push_many`, so each engine dispatch
moves whole slides and results surface at batch boundaries.
"""

from __future__ import annotations

from collections import OrderedDict
from math import inf, isfinite
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.window import _inexact, aligned_chunk

#: Default dedupe-window capacity (distinct event ids remembered).
DEFAULT_DEDUPE_WINDOW = 65_536


class DedupeWindow:
    """Bounded LRU set of event ids giving at-least-once producers
    exactly-once engine semantics.

    ``admit(event_id)`` returns ``True`` exactly once per id while the id
    remains inside the window.  Admission refreshes recency, so a hot id
    that keeps being redelivered stays deduplicated; only ids idle long
    enough to be evicted can be re-admitted.
    """

    def __init__(self, capacity: int = DEFAULT_DEDUPE_WINDOW) -> None:
        if capacity < 1:
            raise ValueError(f"dedupe capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._seen: "OrderedDict[str, None]" = OrderedDict()
        self.admitted = 0
        self.duplicates = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, event_id: object) -> bool:
        return event_id in self._seen

    def admit(self, event_id: str) -> bool:
        """True when this id is new (or aged out); False on a duplicate."""
        if event_id in self._seen:
            self._seen.move_to_end(event_id)
            self.duplicates += 1
            return False
        self._seen[event_id] = None
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
            self.evictions += 1
        self.admitted += 1
        return True

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "tracked_ids": len(self._seen),
            "admitted": self.admitted,
            "duplicates": self.duplicates,
            "evictions": self.evictions,
        }


def parse_event(raw: object) -> Tuple[Optional[str], float, object]:
    """Validate one wire event; returns ``(id, score, payload)``.

    An event is a JSON object with a finite numeric ``score`` that float64
    holds exactly (an int past 2**53 that would round is refused), an optional
    string ``id`` (events without an id bypass deduplication — the
    producer has declared them non-retried), and an optional ``payload``
    carried through to the :class:`StreamObject` untouched.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"an event must be a JSON object, got {type(raw).__name__}")
    if "score" not in raw:
        raise ValueError("an event requires a numeric 'score'")
    score = raw["score"]
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise ValueError(f"event score must be a number, got {score!r}")
    try:
        value = float(score)
    except OverflowError:  # an int past float64
        value = inf
    if not isfinite(value):
        raise ValueError(f"event score must be finite, got {score!r}")
    if isinstance(score, int) and _inexact(score):
        # The embedded ingest edge refuses it too (an int past 2**53
        # would silently round).
        raise ValueError(f"event score must be held exactly by float64, got {score!r}")
    event_id = raw.get("id")
    if event_id is not None and not isinstance(event_id, str):
        raise ValueError(f"event id must be a string, got {event_id!r}")
    return event_id, value, raw.get("payload")


class IngestBatcher:
    """Accumulates admitted objects and releases slide-aligned batches.

    The serving layer appends admitted events one at a time (arrival
    order is assigned here, under the event loop, so it is contention-
    free) and periodically asks for a batch to push:

    * :meth:`take_aligned` returns the largest prefix that is a whole
      multiple of the current slide alignment — called when enough
      events are pending;
    * :meth:`take_all` empties the buffer regardless of alignment —
      called by the linger timer and by graceful shutdown, so a quiet
      stream still makes progress.
    """

    def __init__(self) -> None:
        self._pending: List[StreamObject] = []
        self._next_t = 0
        self._alignment = 1
        self.ingested = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def alignment(self) -> int:
        return self._alignment

    def set_alignment(self, queries: Iterable[TopKQuery]) -> int:
        """Recompute the batch alignment from the subscribed queries: the
        least common multiple of their count-based slide sizes, or 1 when
        none applies or the multiple passes the ceiling of
        :func:`repro.core.window.aligned_chunk`."""
        self._alignment = aligned_chunk(queries)
        return self._alignment

    def resume_from(self, next_t: int) -> int:
        """Advance the arrival clock past a recovered stream's tail.

        After crash recovery the engine's windows already contain objects
        up to some ``t``; new arrivals must continue the same dense
        sequence, never rewind it.
        """
        self._next_t = max(self._next_t, int(next_t))
        return self._next_t

    def append(self, score: float, payload: object = None) -> StreamObject:
        obj = StreamObject(score=score, t=self._next_t, payload=payload)
        self._next_t += 1
        self._pending.append(obj)
        self.ingested += 1
        return obj

    def take_aligned(self) -> List[StreamObject]:
        """Remove and return the largest slide-aligned pending prefix."""
        take = (len(self._pending) // self._alignment) * self._alignment
        if not take:
            return []
        batch = self._pending[:take]
        del self._pending[:take]
        return batch

    def take_all(self) -> List[StreamObject]:
        """Remove and return everything pending (linger / shutdown path)."""
        batch = self._pending
        self._pending = []
        return batch

    def stats(self) -> Dict[str, int]:
        return {
            "ingested": self.ingested,
            "pending": len(self._pending),
            "alignment": self._alignment,
        }
