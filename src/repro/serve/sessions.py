"""Client-facing subscription sessions and their result routing.

A :class:`Session` is the serving layer's view of one engine
subscription: the query it answers, the handle the engine returned
(:class:`~repro.engine.subscription.Subscription` locally,
:class:`~repro.cluster.sharded.ShardSubscription` on the sharded plane —
both expose the same read surface), the set of currently connected
streaming clients, and the delivery accounting that the REST API reports
alongside the engine's own p50/p95/p99 statistics.

Result flow is fan-out: after each ingest batch the server drains every
subscription's new answers in one engine call and hands them to
:meth:`SessionRegistry.dispatch`, which serializes each answer once and
offers it to every channel of the owning session under that channel's
backpressure policy.  Clients that connect mid-stream simply start
receiving from the next batch — answers are not replayed (the polling
endpoint serves history instead).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

from ..core.query import TopKQuery
from ..core.result import TopKResult
from .backpressure import ClientChannel

#: Answers per subscription retained for the REST polling endpoint.
RESULT_HISTORY = 1024


def result_record(name: str, result: TopKResult) -> Dict[str, object]:
    """The JSON shape of one answer, shared by SSE and REST.

    ``objects`` carries the full total-order identity ``(score, t)`` of
    every result object, best first, so a network consumer can check
    byte-identity against an embedded engine run.
    """
    return {
        "subscription": name,
        "slide_index": result.slide_index,
        "window_end": result.window_end,
        "objects": [{"score": o.score, "t": o.t} for o in result.objects],
    }


class Session:
    """One served subscription: engine handle plus connected clients."""

    def __init__(
        self,
        name: str,
        query,
        algorithm: str,
        handle,
        *,
        preference=None,
    ) -> None:
        self.name = name
        self.query = query
        self.algorithm = algorithm
        self.handle = handle
        #: Declared linear preference vector (None for pre-scored queries).
        self.preference = tuple(preference) if preference is not None else None
        self.created_at = time.time()
        self.channels: Set[ClientChannel] = set()
        #: Bounded answer history served by the REST polling endpoint
        #: (streaming clients receive answers live instead).
        self.history: Deque[Dict[str, object]] = deque(maxlen=RESULT_HISTORY)
        self.results_pushed = 0
        self.results_dropped = 0
        self.clients_disconnected = 0

    def attach(self, channel: ClientChannel) -> ClientChannel:
        self.channels.add(channel)
        return channel

    def detach(self, channel: ClientChannel) -> None:
        self.channels.discard(channel)

    def read_history(self, drain: bool = False) -> List[Dict[str, object]]:
        """The retained answer records, oldest first; ``drain`` consumes."""
        records = list(self.history)
        if drain:
            self.history.clear()
        return records

    def deliver(self, record: Dict[str, object]) -> None:
        """Offer one serialized answer to every connected client."""
        self.results_pushed += 1
        self.history.append(record)
        for channel in tuple(self.channels):
            before = channel.dropped
            accepted = channel.offer(record)
            self.results_dropped += channel.dropped - before
            if not accepted and channel.closed:
                # A disconnect-policy overflow: the channel is finished,
                # stop offering to it (its writer task sees the close).
                self.channels.discard(channel)
                self.clients_disconnected += 1

    def close(self, reason: str) -> None:
        for channel in tuple(self.channels):
            channel.close(reason)
        self.channels.clear()

    def describe(self) -> Dict[str, object]:
        """The subscription record of the REST API (no engine round-trip)."""
        extras = (
            {} if self.preference is None else {"preference": list(self.preference)}
        )
        return {
            **extras,
            "name": self.name,
            "query": {
                "n": self.query.n,
                "k": self.query.k,
                "s": self.query.s,
                "time_based": self.query.time_based,
            },
            "algorithm": self.algorithm,
            "created_at": self.created_at,
            "clients": len(self.channels),
            "results_pushed": self.results_pushed,
            "results_dropped": self.results_dropped,
            "clients_disconnected": self.clients_disconnected,
        }

    def stats(self) -> Dict[str, object]:
        """The record plus the engine's aggregate statistics (one engine
        round-trip; includes the p50/p95/p99 latency percentiles).

        Preference subscriptions add their ``cluster`` record — id,
        shared/private/drifted mode, re-rank and fallback counters — read
        from the engine snapshot in the same round-trip."""
        record = self.describe()
        record["engine"] = self.handle.stats()
        if self.preference is not None:
            record["cluster"] = self.handle.snapshot().get("cluster")
        return record


class SessionRegistry:
    """All live sessions, keyed by subscription name."""

    def __init__(self) -> None:
        self._sessions: Dict[str, Session] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: object) -> bool:
        return name in self._sessions

    def add(self, session: Session) -> Session:
        if session.name in self._sessions:
            raise ValueError(f"session {session.name!r} already exists")
        self._sessions[session.name] = session
        return session

    def get(self, name: str) -> Optional[Session]:
        return self._sessions.get(name)

    def remove(self, name: str) -> Optional[Session]:
        return self._sessions.pop(name, None)

    def names(self) -> List[str]:
        return list(self._sessions)

    def sessions(self) -> List[Session]:
        return list(self._sessions.values())

    def queries(self) -> List[TopKQuery]:
        """Every session's query (the batcher's alignment input)."""
        return [session.query for session in self._sessions.values()]

    def dispatch(self, produced: Dict[str, Iterable[TopKResult]]) -> int:
        """Route drained answers to their sessions; returns answers routed."""
        routed = 0
        for name, results in produced.items():
            session = self._sessions.get(name)
            if session is None:
                continue  # unsubscribed between drain and dispatch
            for result in results:
                session.deliver(result_record(name, result))
                routed += 1
        return routed

    def close_all(self, reason: str) -> None:
        for session in self._sessions.values():
            session.close(reason)

    def totals(self) -> Dict[str, int]:
        pushed = sum(s.results_pushed for s in self._sessions.values())
        dropped = sum(s.results_dropped for s in self._sessions.values())
        clients = sum(len(s.channels) for s in self._sessions.values())
        return {
            "sessions": len(self._sessions),
            "clients": clients,
            "results_pushed": pushed,
            "results_dropped": dropped,
        }
