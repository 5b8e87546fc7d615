"""Serializable runtime state: the one record that moves query groups.

Every algorithm in the library computes exact answers from the live window
contents alone, which makes a query group's *transportable* state tiny:
fresh (configuration-only) algorithm instances, the window contents, and
the slide clock.  Restoring is the drain-and-replay mechanism by which a
started query group seats new members (``QueryGroup._join``) —
:meth:`fast_forward` to the captured slide index, then replay the window
as one synthetic slide event whose answer is discarded (that window was
already reported).  The result stream after a restore is therefore
byte-identical to an uninterrupted run, no matter which process the state
lands in.

:class:`GroupState` is the one unit of state: one query group — or the
named members of one — at a slide boundary, with its window and slide
clock held once, each member's :class:`SubscriptionState`
(configuration, retention policy, retained answers, metric aggregates),
and the layout of the members' shared plans.  Checkpoints hold one per
group, the write-ahead log journals one per restored group, and the
sharded plane (:mod:`repro.cluster`) moves them between shard workers on
rebalance.  :meth:`repro.engine.core.EngineCore.restore_groups` places
the members by the engine's one placement rule, so a record captured at
the window position of a live group joins that group instead of
splitting from it.

All state objects are plain picklable dataclasses stamped with
:data:`STATE_FORMAT_VERSION`.  :func:`dumps` / :func:`loads` are the
byte-level entry points; a record written by an incompatible format
version — in a payload, a checkpoint or a journaled op — is refused with
:class:`StateVersionError` naming the record kind instead of being
mis-restored.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Type

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
STATE_FORMAT_VERSION = 6

#: Pickle protocol used for state payloads: the highest protocol shared by
#: every supported interpreter (3.8+), chosen explicitly so two processes
#: of different patch versions always speak the same wire format.
PICKLE_PROTOCOL = min(pickle.HIGHEST_PROTOCOL, 5)


class StateVersionError(ReproError):
    """A serialized state payload uses an incompatible format version."""


class StateSerializationError(ReproError):
    """A runtime object cannot be serialized (e.g. an instance of a class
    defined inside a function)."""


@dataclass(frozen=True)
class SubscriptionState:
    """One member of a captured :class:`GroupState`.

    ``algorithm`` is the member's configuration: a *fresh* instance (the
    live one's :meth:`~repro.core.interface.ContinuousTopKAlgorithm.respawn`,
    made once per live instance and shared by its captures; restores
    respawn it again, so it never runs).  Beyond it the record carries
    the retention policy, the retained answers (plan members share each
    answer object, which a payload holds once), the delivery counter and
    the metric aggregates, so history and percentiles survive a move.
    """

    version: int
    name: str
    algorithm: ContinuousTopKAlgorithm
    keep_results: bool = True
    result_buffer: Optional[int] = None
    collect_metrics: bool = True
    results: Tuple[TopKResult, ...] = ()
    results_delivered: int = 0
    metrics: MetricsCollector = field(default_factory=MetricsCollector)


#: One shared plan of a captured group: the positions of its members in
#: the captured member order, and the ``k`` its core runs at.
PlanLayout = Tuple[Tuple[int, ...], int]

#: Where a group's window stands: ``None`` before the group's first push,
#: else the last slide index and the ``t`` of every window object.
Position = Optional[Tuple[int, Tuple[int, ...]]]


@dataclass(frozen=True)
class GroupState:
    """Members of one query group at a slide boundary, captured together.

    ``window`` and ``slide_index`` are held once for the group, and
    ``members`` are in group member order.  ``plans`` is the members'
    shared-plan layout (:data:`PlanLayout`), so a restore forms the same
    plans at the same ``k_max`` even after members left.  A group that
    has not started has an empty window, ``slide_index`` ``None`` and no
    plans.
    """

    version: int
    n: int
    s: int
    window: Tuple[StreamObject, ...]
    slide_index: Optional[int]
    members: Tuple[SubscriptionState, ...]
    plans: Tuple[PlanLayout, ...] = ()

    @property
    def position(self) -> Position:
        """The window position of the capture (see
        :meth:`repro.engine.group.QueryGroup.at`)."""
        if self.slide_index is None:
            return None
        return self.slide_index, tuple(obj.t for obj in self.window)


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
    #: The engine's preference-cluster space
    #: (:meth:`~repro.core.clustering.ClusterSpace.snapshot`), so a
    #: recovered engine assigns the cluster ids its uncrashed twin would
    #: (``None``: restore leaves the engine's space as it is).
    clusters: Optional[Dict[str, object]] = None

    @property
    def member_count(self) -> int:
        """Subscriptions held across every group."""
        return sum(len(group.members) for group in self.groups)


# ----------------------------------------------------------------------
# Replay and capture (restore lives in EngineCore, which owns the group
# placement every restored member goes through)
# ----------------------------------------------------------------------
def replay_event(
    window: Tuple[StreamObject, ...], slide_index: int
) -> SlideEvent:
    """The synthetic window-fill event used by every drain-and-replay path
    (state restores, shard rebalances, recovery)."""
    return SlideEvent(
        index=slide_index,
        arrivals=tuple(window),
        expirations=(),
        window_end=window[-1].t if window else 0,
    )


def capture_subscription(subscription: "Subscription") -> SubscriptionState:
    """Capture one member (configuration + retention + metrics).

    The state is a true point-in-time snapshot: the metric aggregates are
    copied, because the captured subscription may keep running (the local
    capture API leaves it subscribed) and must not mutate the state after
    the fact.
    """
    return SubscriptionState(
        version=STATE_FORMAT_VERSION,
        name=subscription.name,
        algorithm=subscription._algorithm_template(),
        keep_results=subscription._keep_results,
        result_buffer=subscription._results.maxlen,
        collect_metrics=subscription._collect_metrics,
        results=tuple(subscription._results),
        results_delivered=subscription.results_delivered,
        metrics=subscription.metrics.copy(),
    )


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def check_version(record: object, kind: Type = object) -> None:
    """Reject a record written by an incompatible format version with
    :class:`StateVersionError` naming its kind, and anything that is not
    a ``kind`` with :class:`TypeError`."""
    version = getattr(record, "version", None)
    if version is not None and version != STATE_FORMAT_VERSION:
        raise StateVersionError(
            f"{type(record).__name__} format version {version} is not "
            f"supported by this library (expected {STATE_FORMAT_VERSION}); "
            "re-capture the state with a matching version"
        )
    if not isinstance(record, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(record).__name__}")


def dumps(state: object) -> bytes:
    """Pickle a state object, converting pickling failures into a clear
    error (the usual cause: an algorithm instance or option whose class or
    function is not defined at module level)."""
    try:
        return pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise StateSerializationError(
            f"cannot serialize {type(state).__name__}: {exc}; "
            "algorithm instances and options must be module-level (picklable) "
            "to be journaled or to cross a process boundary"
        ) from exc


def loads(payload: bytes) -> object:
    """Unpickle a state object and verify its format version."""
    state = pickle.loads(payload)
    check_version(state)
    return state
