"""Serializable runtime state: the contract that moves queries between processes.

Every algorithm in the library computes exact answers from the live window
contents alone, which makes its *transportable* state tiny: a fresh
(configuration-only) instance, the window contents, and the slide clock.
Restoring is the same drain-and-replay mechanism the control plane's
:meth:`repro.engine.group.QueryGroup.rebuild` uses for live algorithm
swaps — respawn, :meth:`fast_forward` to the captured slide index, then
replay the window as one synthetic slide event whose answer is discarded
(that window was already reported).  The result stream after a restore is
therefore byte-identical to an uninterrupted run, no matter which process
the state lands in.

:class:`SubscriptionState` is the unit the sharded execution plane
(:mod:`repro.cluster`) moves between shard workers when it rebalances a
query; it additionally carries the retained answers and metric aggregates
so the move is invisible to consumers of the subscription.

:class:`GroupState` is the unit the durability plane checkpoints: one
query group with its window and slide clock held once, plus each
member's :class:`SubscriptionState` (configuration, retained answers,
metrics) without a window of its own, and the layout of the group's
shared plans.  Restoring it rebuilds the group whole, so a recovered
engine has the same groups and plans as the one that was captured.

All state objects are plain picklable dataclasses stamped with
:data:`STATE_FORMAT_VERSION`.  :func:`dumps` / :func:`loads` are the
byte-level entry points; :func:`loads` refuses payloads written by an
incompatible format version with :class:`StateVersionError` instead of
mis-restoring them.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from .exceptions import ReproError
from .interface import ContinuousTopKAlgorithm
from .metrics import MetricsCollector
from .object import StreamObject
from .result import TopKResult
from .window import SlideEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.subscription import Subscription

#: Version stamp of the state format.  Bump on any incompatible change to
#: the dataclasses below; :func:`loads` rejects mismatching payloads.
STATE_FORMAT_VERSION = 2

#: Pickle protocol used for state payloads: the highest protocol shared by
#: every supported interpreter (3.8+), chosen explicitly so two processes
#: of different patch versions always speak the same wire format.
PICKLE_PROTOCOL = min(pickle.HIGHEST_PROTOCOL, 5)


class StateVersionError(ReproError):
    """A serialized state payload uses an incompatible format version."""


class StateSerializationError(ReproError):
    """A runtime object cannot be serialized (e.g. a closure preference)."""


@dataclass(frozen=True)
class AlgorithmState:
    """Transportable state of one algorithm at a slide boundary.

    ``algorithm`` is a *fresh* instance (the captured one's
    :meth:`~repro.core.interface.ContinuousTopKAlgorithm.respawn`): it
    carries the full configuration — query, partitioner, policies — but no
    window-derived structures, so it pickles compactly and never drags
    closures created during processing across the process boundary.
    """

    version: int
    algorithm: ContinuousTopKAlgorithm
    window: Tuple[StreamObject, ...]
    slide_index: Optional[int]


@dataclass(frozen=True)
class SubscriptionState:
    """Everything needed to re-home a subscription in another engine.

    Beyond the algorithm state this carries the subscription's retention
    policy, its retained answers, the delivery counter, and the metric
    aggregates, so percentiles and result history survive a rebalance.
    """

    version: int
    name: str
    algorithm: ContinuousTopKAlgorithm
    window: Tuple[StreamObject, ...]
    slide_index: Optional[int]
    keep_results: bool = True
    result_buffer: Optional[int] = None
    collect_metrics: bool = True
    results: Tuple[TopKResult, ...] = ()
    results_delivered: int = 0
    metrics: MetricsCollector = field(default_factory=MetricsCollector)

    def renamed(self, name: str) -> "SubscriptionState":
        """The same state under a different subscription name."""
        return replace(self, name=name)


#: One shared plan of a captured group: the positions of its members in
#: the group's member order, and the ``k`` its core runs at.
PlanLayout = Tuple[Tuple[int, ...], int]


@dataclass(frozen=True)
class GroupState:
    """One query group at a slide boundary, captured whole.

    ``window`` and ``slide_index`` are held once for the group.  Each
    entry of ``members`` is a :class:`SubscriptionState` in group member
    order with an empty window and no slide clock of its own.  ``plans``
    is the group's shared-plan layout (:data:`PlanLayout`), so a restore
    forms the same plans at the same ``k_max`` even after members left.
    A group that has not started has an empty window, ``slide_index``
    ``None`` and no plans.
    """

    version: int
    n: int
    s: int
    window: Tuple[StreamObject, ...]
    slide_index: Optional[int]
    members: Tuple[SubscriptionState, ...]
    plans: Tuple[PlanLayout, ...] = ()

    @classmethod
    def of_subscription(cls, state: SubscriptionState) -> "GroupState":
        """A one-member group holding ``state``'s window and clock."""
        query = state.algorithm.query
        return cls(
            version=state.version,
            n=query.n,
            s=query.s,
            window=state.window,
            slide_index=state.slide_index,
            members=(replace(state, window=(), slide_index=None),),
        )

    def member_state(self, index: int) -> SubscriptionState:
        """Member ``index`` as a standalone state carrying the group window."""
        return replace(
            self.members[index], window=self.window, slide_index=self.slide_index
        )


@dataclass(frozen=True)
class EngineCheckpoint:
    """A whole engine at one slide boundary: every query group's state
    plus the write-ahead-log position the snapshot corresponds to.

    This is the unit the durability plane (:mod:`repro.durability`)
    persists: restoring the groups and replaying the WAL records past
    ``wal_records`` reproduces the pre-crash engine byte-identically.
    ``groups`` follow the engine's group order and ``subscriptions`` is
    the engine's subscription registration order.
    ``ingested`` is the engine's lifetime object count at capture time
    (the barrier accounting a resurrected shard worker resumes from) and
    ``last_t`` the highest arrival order seen (-1 before the first push),
    from which the serving layer continues its arrival clock.
    """

    version: int
    wal_records: int
    ingested: int
    last_t: int
    groups: Tuple[GroupState, ...]
    #: Lifetime count of ingested *chunks* at capture time.  WAL
    #: truncation deletes the records this would otherwise be counted
    #: from, and a shard router resurrecting a worker compares exactly
    #: this number (plus the replayed tail) against its send counter to
    #: decide which retained chunks to re-send.
    chunks: int = 0
    subscriptions: Tuple[str, ...] = ()

    @property
    def member_count(self) -> int:
        """Subscriptions held across every group."""
        return sum(len(group.members) for group in self.groups)


# ----------------------------------------------------------------------
# Algorithm-level capture / restore
# ----------------------------------------------------------------------
def capture_algorithm(
    algorithm: ContinuousTopKAlgorithm,
    window: Tuple[StreamObject, ...],
    slide_index: Optional[int],
) -> AlgorithmState:
    """Capture an algorithm's transportable state at a slide boundary.

    ``window`` must be the live window contents feeding the algorithm and
    ``slide_index`` the index of the last reported slide (``None`` when the
    window has not filled yet, in which case ``window`` must be empty —
    partially filled windows are not slide boundaries).
    """
    if slide_index is None and window:
        raise ValueError(
            "a partially filled window is not a slide boundary; "
            "capture before the first object or at a reported slide"
        )
    return AlgorithmState(
        version=STATE_FORMAT_VERSION,
        algorithm=algorithm.respawn(),
        window=tuple(window),
        slide_index=slide_index,
    )


def restore_algorithm(state: AlgorithmState) -> ContinuousTopKAlgorithm:
    """Rebuild a live algorithm from captured state (drain-and-replay).

    The returned instance has consumed the captured window as one synthetic
    slide event (answer discarded — that window was already reported) and
    will produce byte-identical results to the uninterrupted original for
    every subsequent slide.
    """
    check_version(state.version)
    algorithm = state.algorithm.respawn()
    if state.slide_index is None:
        return algorithm
    algorithm.fast_forward(state.slide_index)
    algorithm.process_slide(replay_event(state.window, state.slide_index))
    return algorithm


def replay_event(
    window: Tuple[StreamObject, ...], slide_index: int
) -> SlideEvent:
    """The synthetic window-fill event used by every drain-and-replay path
    (control-plane rebuilds, state restores, shard rebalances)."""
    return SlideEvent(
        index=slide_index,
        arrivals=tuple(window),
        expirations=(),
        window_end=window[-1].t if window else 0,
    )


# ----------------------------------------------------------------------
# Subscription-level capture (restore lives in EngineCore, which owns the
# group bookkeeping a subscription must be re-homed into)
# ----------------------------------------------------------------------
def capture_subscription(
    subscription: "Subscription",
    window: Tuple[StreamObject, ...],
    slide_index: Optional[int],
) -> SubscriptionState:
    """Capture a subscription (algorithm state + retention + metrics).

    The state is a true point-in-time snapshot: the metric aggregates are
    copied, because the captured subscription may keep running (the local
    capture API leaves it subscribed) and must not mutate the state after
    the fact.
    """
    if slide_index is None and window:
        raise ValueError(
            "a partially filled window is not a slide boundary; "
            "capture before the first object or at a reported slide"
        )
    buffer = subscription._results.maxlen
    return SubscriptionState(
        version=STATE_FORMAT_VERSION,
        name=subscription.name,
        algorithm=subscription.algorithm.respawn(),
        window=tuple(window),
        slide_index=slide_index,
        keep_results=subscription._keep_results,
        result_buffer=buffer,
        collect_metrics=subscription._collect_metrics,
        results=tuple(subscription._results),
        results_delivered=subscription.results_delivered,
        metrics=subscription.metrics.copy(),
    )


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def check_version(version: int) -> None:
    """Reject state written by an incompatible format version."""
    if version != STATE_FORMAT_VERSION:
        raise StateVersionError(
            f"state format version {version} is not supported by this "
            f"library (expected {STATE_FORMAT_VERSION}); re-capture the "
            "state with a matching version"
        )


def dumps(state: object) -> bytes:
    """Pickle a state object, converting pickling failures into a clear
    error (the usual cause: a lambda/closure preference function)."""
    try:
        return pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise StateSerializationError(
            f"cannot serialize {type(state).__name__}: {exc}; "
            "preference functions and algorithm options must be module-level "
            "(picklable) to cross a process boundary"
        ) from exc


def loads(payload: bytes) -> object:
    """Unpickle a state object and verify its format version."""
    state = pickle.loads(payload)
    version = getattr(state, "version", None)
    if version is not None:
        check_version(version)
    return state
