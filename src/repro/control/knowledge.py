"""The Knowledge store of the MAPE-K loop: ring-buffered runtime telemetry.

Everything the control plane knows about a running engine lives here, in
bounded structures so an unbounded stream can stay under control forever:

* per-subscription ring buffers of :class:`SlideSample` records (one per
  processed slide: latency, candidate-set size, memory, top score);
* per-subscription ring buffers of :class:`SealSample` records (one per
  partition sealed by the SAP framework feeding that subscription);
* the append-only :class:`AdaptationEvent` log — the audit trail of every
  tactic the planner applied (or deliberately skipped), which the CLI and
  benchmarks surface;
* bookkeeping shared by analyzers and planner: last-adaptation slide per
  subscription (cooldowns).

The monitor writes, analyzers and planners read, executors append to the
event log; none of them talk to each other directly — the knowledge store
*is* the interface, which is what makes the MAPE stages independently
testable and replaceable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Dict, List, NamedTuple, Optional

from ..core.metrics import percentile

#: Default capacity of each per-subscription ring buffer.  256 slides of
#: history is enough for every built-in analyzer window while keeping the
#: store O(1) in stream length.
RING_CAPACITY = 256

#: Retained adaptation-log entries.  The log is the audit trail surfaced
#: by the CLI and benchmarks, but it must stay bounded like everything
#: else in the store: a tactic that is planned and declined every few
#: slides on an unbounded stream would otherwise grow it forever.  The
#: total count of logged events stays exact (``events_total``).
EVENT_LOG_CAPACITY = 512


class SlideSample(NamedTuple):
    """Telemetry of one processed slide of one subscription.

    A named tuple, not a dataclass: one is constructed per slide per
    subscription on the monitor's hot path, and tuple construction is what
    keeps the idle-controller overhead in the low single digits.
    """

    subscription: str
    algorithm: str
    slide_index: int
    latency: float
    candidates: int
    memory_bytes: int
    #: Best score of the slide's answer (None for an empty answer); the
    #: drift analyzer compares samples of these across time.
    top_score: Optional[float]
    window_size: int


class SealSample(NamedTuple):
    """One partition sealed by the SAP framework of one subscription."""

    subscription: str
    size: int


@dataclass(frozen=True)
class AdaptationEvent:
    """One entry of the adaptation audit log.

    ``applied`` is False for tactics the planner chose but the executor
    declined (e.g. an η retune of a partitioner without η); the reason
    then lives in ``detail["skipped"]``.
    """

    slide_index: int
    subscription: str
    tactic: str
    trigger: str
    applied: bool
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "slide_index": self.slide_index,
            "subscription": self.subscription,
            "tactic": self.tactic,
            "trigger": self.trigger,
            "applied": self.applied,
            "detail": dict(self.detail),
        }


class Knowledge:
    """Bounded runtime knowledge shared by the MAPE stages."""

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._slides: Dict[str, Deque[SlideSample]] = {}
        self._seals: Dict[str, Deque[SealSample]] = {}
        self._events: Deque[AdaptationEvent] = deque(maxlen=EVENT_LOG_CAPACITY)
        self.events_total = 0
        self._last_adaptation: Dict[str, int] = {}
        #: Exact per-tactic attempt counts (the event log is bounded, these
        #: are not) — exported as ``repro_tactics_total{tactic=...}``.
        self.tactic_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Writing (monitor / executor)
    # ------------------------------------------------------------------
    def add_slide(self, sample: SlideSample) -> None:
        ring = self._slides.get(sample.subscription)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._slides[sample.subscription] = ring
        ring.append(sample)

    def add_seal(self, sample: SealSample) -> None:
        ring = self._seals.get(sample.subscription)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._seals[sample.subscription] = ring
        ring.append(sample)

    def log_event(self, event: AdaptationEvent) -> None:
        """Append to the audit log and reset the subscription's cooldown.

        Declined tactics reset the cooldown too: a tactic whose runtime
        preconditions failed should not be retried every analysis pass —
        the same cooldown that prevents rebuild thrash also prevents
        decline spam.
        """
        self._events.append(event)
        self.events_total += 1
        self.tactic_counts[event.tactic] = self.tactic_counts.get(event.tactic, 0) + 1
        self._last_adaptation[event.subscription] = event.slide_index

    def forget(self, subscription: str) -> None:
        """Drop a departed subscription's rings and cooldown (the audit
        log keeps its events)."""
        self._slides.pop(subscription, None)
        self._seals.pop(subscription, None)
        self._last_adaptation.pop(subscription, None)

    # ------------------------------------------------------------------
    # Reading (analyzers / planner / reporting)
    # ------------------------------------------------------------------
    def subscriptions(self) -> List[str]:
        return list(self._slides)

    @staticmethod
    def _tail(ring: Deque, count: Optional[int]) -> List:
        """The last ``count`` ring entries, oldest first, in O(count).

        Analyzers read short tails of long rings on every control tick, so
        this walks the deque from its right end instead of copying it.
        """
        if count is None or count >= len(ring):
            return list(ring)
        tail = list(islice(reversed(ring), count))
        tail.reverse()
        return tail

    def slides(self, subscription: str, count: Optional[int] = None) -> List[SlideSample]:
        """The most recent ``count`` slide samples, oldest first."""
        ring = self._slides.get(subscription)
        if not ring:
            return []
        return self._tail(ring, count)

    def seals(self, subscription: str, count: Optional[int] = None) -> List[SealSample]:
        ring = self._seals.get(subscription)
        if not ring:
            return []
        return self._tail(ring, count)

    def sample_count(self, subscription: str) -> int:
        ring = self._slides.get(subscription)
        return len(ring) if ring else 0

    def latest_slide_index(self, subscription: str) -> Optional[int]:
        ring = self._slides.get(subscription)
        return ring[-1].slide_index if ring else None

    def latency_percentile(
        self, subscription: str, fraction: float, window: int
    ) -> float:
        """Percentile of the last ``window`` slide latencies (0.0 if none)."""
        recent = self.slides(subscription, window)
        if not recent:
            return 0.0
        return percentile([s.latency for s in recent], fraction)

    def top_score_series(
        self, subscription: str, count: Optional[int] = None
    ) -> List[float]:
        """Best-score-per-slide history, oldest first, Nones dropped."""
        return [
            s.top_score for s in self.slides(subscription, count) if s.top_score is not None
        ]

    # ------------------------------------------------------------------
    # Adaptation log
    # ------------------------------------------------------------------
    def events(self) -> List[AdaptationEvent]:
        """The retained audit log, oldest first (bounded; see
        :data:`EVENT_LOG_CAPACITY` and :attr:`events_total`)."""
        return list(self._events)

    def applied_events(self) -> List[AdaptationEvent]:
        return [event for event in self._events if event.applied]

    def last_adaptation_slide(self, subscription: str) -> Optional[int]:
        """Slide of the last *attempted* tactic (applied or declined)."""
        return self._last_adaptation.get(subscription)

    def describe(self) -> Dict[str, object]:
        """Summary record used by the CLI's JSON output."""
        return {
            "subscriptions": {
                name: {
                    "samples": self.sample_count(name),
                    "latest_slide": self.latest_slide_index(name),
                    "seals": len(self._seals.get(name, ())),
                }
                for name in self._slides
            },
            "events": [event.as_dict() for event in self._events],
            "events_total": self.events_total,
        }
