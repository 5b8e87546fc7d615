"""Serializable runtime state: the one record that moves query groups.

Every algorithm in the library computes exact answers from the live window
contents alone, which makes a query group's *transportable* state tiny:
fresh (configuration-only) algorithm instances, the window contents, and
the slide clock.  Algorithms only ever consume whole slides: the partial
slide a window buffers past its last report is state of the window, not
of any algorithm.  Restoring is the drain-and-replay mechanism by which a
started query group seats new members (``QueryGroup._join``) —
:meth:`fast_forward` to the captured slide index, then replay the last
reported window as one synthetic slide event whose answer is discarded
(that window was already reported).  The result stream after a restore
is therefore byte-identical to an uninterrupted run, no matter which
process the state lands in.

:class:`GroupState` is the one unit of state: one query group — or the
named members of one — after any accepted chunk, with its window,
partial slide and slide clock held once, the layout of the members'
shared plans with each plan's configuration held once, and each member's
:class:`SubscriptionState` (its ``k``, retention policy, retained
answers and metric aggregates — one record per metric cohort, shared by
its members — and its own configuration only where no plan holds it).
Checkpoints hold one per group, the write-ahead log journals one
per restored group, and the sharded plane (:mod:`repro.cluster`) moves
them between shard workers on rebalance.  :meth:`repro.engine.core.EngineCore.restore_groups` places
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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

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
STATE_FORMAT_VERSION = 9

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

    ``algorithm`` is the member's own configuration, or ``None`` when its
    plan's record holds it (the member is that configuration at ``k``).
    A configuration is a *fresh* instance (the live one's
    :meth:`~repro.core.interface.ContinuousTopKAlgorithm.respawn`, made
    once per live instance and shared by its captures; restores respawn
    or spawn it again, so it never runs).  Beyond it the record carries
    the retention policy, the retained answers (plan members share each
    answer object, which a payload holds once), the delivery counter and
    the metric aggregates — one object per metric cohort, shared by its
    members' records — so history and percentiles survive a move.
    """

    version: int
    name: str
    k: int
    algorithm: Optional[ContinuousTopKAlgorithm] = None
    keep_results: bool = True
    result_buffer: Optional[int] = None
    collect_metrics: bool = True
    results: Tuple[TopKResult, ...] = ()
    results_delivered: int = 0
    metrics: MetricsCollector = field(default_factory=MetricsCollector)


#: One shared plan of a captured group: the positions of its members in
#: the captured member order, the ``k`` its core runs at, and its
#: configuration (a fresh instance its members are spawned from at their
#: own ``k``; ``None`` when every member carries its own).
PlanLayout = Tuple[Tuple[int, ...], int, Optional[ContinuousTopKAlgorithm]]

#: Where a group's window stands: ``None`` before the group consumed
#: anything, else the last slide index, the ``t`` of every buffered
#: object, how many of them are the pending partial slide, and a
#: time-based window's next report time.
Position = Optional[Tuple[Optional[int], Tuple[int, ...], int, Optional[int]]]


@dataclass(frozen=True)
class GroupState:
    """Members of one query group after any accepted chunk, captured
    together.

    ``window`` (the last reported window, slide ``slide_index``),
    ``pending`` (the partial slide buffered since) and ``report_time``
    (a time-based window's next report time) are held once for the
    group, and ``members`` are in group member order.  ``plans`` is the
    members' shared-plan layout (:data:`PlanLayout`), so a restore forms
    the same plans at the same ``k_max`` even after members left, and
    spawns every member without a configuration of its own from its
    plan's (:func:`member_algorithms`).  A
    group still filling has ``slide_index`` ``None`` and its objects
    pending; one that has not consumed anything has nothing buffered and
    no plans.
    """

    version: int
    n: int
    s: int
    window: Tuple[StreamObject, ...]
    slide_index: Optional[int]
    members: Tuple[SubscriptionState, ...]
    plans: Tuple[PlanLayout, ...] = ()
    pending: Tuple[StreamObject, ...] = ()
    report_time: Optional[int] = None

    @property
    def position(self) -> Position:
        """The window position of the capture (see
        :meth:`repro.engine.group.QueryGroup.at`)."""
        return window_position(self.window, self.slide_index, self.pending, self.report_time)


def window_position(
    window: Sequence[StreamObject],
    slide_index: Optional[int],
    pending: Sequence[StreamObject],
    report_time: Optional[int],
) -> Position:
    """The :data:`Position` of a window: reported objects, last slide
    index, pending partial slide and next report time."""
    if slide_index is None and not window and not pending and report_time is None:
        return None
    ts = tuple(obj.t for obj in window) + tuple(obj.t for obj in pending)
    return slide_index, ts, len(pending), report_time


@dataclass(frozen=True)
class EngineCheckpoint:
    """A whole engine after one accepted chunk: every query group's state
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


def capture_subscription(
    subscription: "Subscription",
    configured: bool = False,
    cohorts: Optional[Dict[object, MetricsCollector]] = None,
) -> SubscriptionState:
    """Capture one member (configuration + retention + metrics).

    ``configured`` leaves the configuration to the member's plan record.
    ``cohorts`` maps the metric cohorts already captured to their
    aggregates, so the members of one cohort share one record.

    The state is a true point-in-time snapshot: the metric aggregates are
    a new object, because the captured subscription may keep running (the
    local capture API leaves it subscribed) and must not mutate the state
    after the fact.
    """
    cohort = subscription._cohort
    if cohort is None:
        metrics = subscription._metrics.copy()
    else:
        cohorts = {} if cohorts is None else cohorts
        metrics = cohorts.get(cohort)
        if metrics is None:
            metrics = cohorts[cohort] = cohort.total()
    return SubscriptionState(
        STATE_FORMAT_VERSION,
        subscription.name,
        subscription.query.k,
        None if configured else subscription._algorithm_template(),
        subscription._keep_results,
        subscription._results.maxlen,
        subscription._collect_metrics,
        tuple(subscription._results),
        subscription.results_delivered,
        metrics,
    )


def member_algorithms(state: GroupState) -> List[ContinuousTopKAlgorithm]:
    """A fresh algorithm instance for every member of ``state``, in member
    order: its own configuration respawned, else its plan's spawned at the
    member's ``k``.  Fresh every call, so a state restores twice into
    independent instances."""
    configuration: Dict[int, ContinuousTopKAlgorithm] = {}
    for positions, _, algorithm in state.plans:
        if algorithm is not None:
            configuration.update(dict.fromkeys(positions, algorithm))
    instances = []
    for index, member in enumerate(state.members):
        if member.algorithm is not None:
            instances.append(member.algorithm.respawn())
            continue
        template = configuration.get(index)
        if template is None:
            raise ValueError(
                f"member {member.name!r} has no configuration: neither its "
                "own nor a plan's"
            )
        instances.append(template.spawn(replace(template.query, k=member.k)))
    return instances


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
