"""Query groups: the shared multi-query execution plane of the engine.

A :class:`QueryGroup` holds subscriptions whose queries share one window
shape ``(n, s, window type)`` and one window position.  The group owns the
*single* slide batcher for that shape — window filling, slide batching,
and expiry happen exactly once per slide, no matter how many queries watch
the shape — and fans each sealed slide event out to its members.

Every member is answered through a :class:`~repro.core.shared.SharedPlan`.
Members are bucketed by their algorithm's
:meth:`~repro.core.interface.ContinuousTopKAlgorithm.shared_plan_key`, and
a shared plan forms for every bucket with at least two members: SAP,
k-skyband and MinTopK queries each share one algorithm core run at the
bucket's ``k_max``, and every member slices its answer out of the core's
top-``k_max``.  A member alone in its bucket, or whose algorithm has no
plan key, is a plan of one whose core is its own instance.  Each slide,
every plan prepares once, making one answer per distinct ``k`` (per
member for a cluster plan); each member then only takes its answer into
retention and its callbacks.  A member's latency is its share of the
prepare; the members that joined a plan together with one history share
one :class:`~repro.core.metrics.MetricsCohort`, which records the slide
once, and the metrics registry records it once per plan and instrument
set (:meth:`QueryGroup._dispatch`).

The placement rule: a subscription joins the group with its window shape
and its window position (:meth:`QueryGroup.at`).  A fresh subscription's
position is "not started", so it joins the group of its shape that has
not consumed the stream yet, and every member of that group forms plans
at its first push.  A captured one (:class:`~repro.core.state.GroupState`)
joins the group at its window ``t`` sequence, partial slide, and slide
and report clocks, which a group has after any accepted chunk.  Members
admitted into a started group (:meth:`QueryGroup.admit`) form plans only
among themselves and, once its window has reported, are fast-forwarded to
the group's slide and fed its last reported window as one replayed slide,
so existing members and plans never notice a join.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.exceptions import AlgorithmStateError
from ..core.metrics import MetricsCohort, MetricsCollector
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.shared import CoreSharedPlan, SharedPlan, SharedSlide
from ..core.state import GroupState, PlanLayout, Position, replay_event, window_position
from ..core.window import SlideBatcher, SlideEvent
from ..obs.registry import LATENCY_BUCKETS, get_registry
from .subscription import Subscription

#: Group key: window size, slide, and window type.
GroupKey = Tuple[int, int, bool]


def group_key_for(query: TopKQuery) -> GroupKey:
    """The window shape a query is grouped by (everything but ``k``/``F``)."""
    return (query.n, query.s, query.time_based)


#: A member's history before it joined a plan, when it has none.
_NO_HISTORY = MetricsCollector()


class PlanSeats:
    """One plan's members as :meth:`QueryGroup._dispatch` walks them.

    ``members`` pairs every member, in plan order, with the key of its
    answer, its retention's ``append`` (``None`` without retention) and
    its callbacks; ``recorders`` and ``counters`` are the live collectors
    of the members' cohorts (recording samples, counting slides only);
    ``observers`` are the registry instrument sets with the members each
    counts and samples.  Rebuilt when a member leaves.
    """

    __slots__ = ("plan", "members", "recorders", "counters", "observers")

    def __init__(self, plan: SharedPlan) -> None:
        self.plan = plan
        self.refresh()

    def refresh(self) -> None:
        members = self.plan.subscriptions()
        key = self.plan.answer_key
        self.members = tuple(
            (sub, key(sub), sub._results.append if sub._keep_results else None, sub._callbacks)
            for sub in members
        )
        cohorts = dict.fromkeys(sub._cohort for sub in members)
        self.recorders = tuple(cohort.live.record for cohort in cohorts if cohort.collect)
        self.counters = tuple(cohort.live for cohort in cohorts if not cohort.collect)
        self.observers = _observers(members)


def _observers(members: Sequence[Subscription]) -> Tuple[tuple, ...]:
    """``members``' registry instrument sets (one per algorithm name):
    ``(slides, delivered, latency, candidates, candidates_last, count,
    sampled)`` where ``count`` members share the set and ``sampled`` of
    them collect metrics, since each would have observed the same
    values."""
    sets: Dict[int, list] = {}
    for sub in members:
        entry = sets.get(id(sub._obs_slides))
        if entry is None:
            entry = sets[id(sub._obs_slides)] = [
                sub._obs_slides, sub._obs_delivered, sub._obs_latency,
                sub._obs_candidates, sub._obs_candidates_last, 0, 0,
            ]
        entry[5] += 1
        entry[6] += sub._collect_metrics
    return tuple(tuple(entry) for entry in sets.values())


class QueryGroup:
    """All subscriptions sharing one window shape and window position."""

    def __init__(self, n: int, s: int, time_based: bool) -> None:
        self.n = n
        self.s = s
        self.time_based = time_based
        # The batcher only consults n, s, and the window type; k is
        # irrelevant to window movement, so a placeholder of 1 is used.
        query = TopKQuery(n=n, k=1, s=s, time_based=time_based)
        self._batcher = SlideBatcher(query, checked=False)
        self._members: List[Subscription] = []
        self._seats: List[PlanSeats] = []
        self._started = False
        #: While a member's callbacks run: its plan's seats as the slide
        #: began, the slide, and the member.
        self._delivering: Optional[Tuple[tuple, SharedSlide, Subscription]] = None
        registry = get_registry()
        self._obs_merge = registry.histogram(
            "repro_stage_seconds",
            "Pipeline stage timings over the slide lifecycle.",
            {"stage": "merge"},
            LATENCY_BUCKETS,
        )
        self._obs_enabled = registry.enabled

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def key(self) -> GroupKey:
        return (self.n, self.s, self.time_based)

    @property
    def started(self) -> bool:
        return self._started

    def members(self) -> List[Subscription]:
        return list(self._members)

    def admit(
        self,
        subscriptions: Sequence[Subscription],
        layout: Optional[Sequence[PlanLayout]] = None,
    ) -> None:
        """Add ``subscriptions`` (fresh algorithm instances) at this
        group's position.

        In a group that has not started they simply join, and plans form
        over every member at the first push.  In a started group they form
        plans among themselves — from the captured ``layout`` (positions
        into ``subscriptions``) when given, else by plan-key bucketing —
        and, once the window has reported, are fast-forwarded to its slide
        and consume the last reported window as one replayed slide whose
        answers are discarded.
        """
        for subscription in subscriptions:
            self._members.append(subscription)
            subscription._attach_group(self)
        if self._started:
            self._join(subscriptions, layout)

    def remove(self, subscription: Subscription) -> None:
        """Take a member out of the group and its plan, freezing its
        aggregates at the last slide it received: a member a callback
        unsubscribes mid-slide counts that slide only if it had already
        received it."""
        if subscription in self._members:
            self._members.remove(subscription)
        plan = subscription._plan
        for seats in self._seats:
            if seats.plan is plan:
                break
        else:
            return
        plan.discard(subscription)
        received = None
        if self._delivering is not None:
            # Unsubscribed by a callback: it received the slide when it
            # sits no later than the member being called back.
            members, shared, caller = self._delivering
            order = [entry[0] for entry in members]
            if subscription in order and order.index(subscription) <= order.index(caller):
                received = shared
        subscription._leave_cohort(received)
        # A plan whose last member left does no work (a dispatch under way
        # skips its empty seats); dropping it keeps the group's layout
        # capturable (a plan is restored from members).
        seats.refresh()
        if not seats.members:
            self._seats.remove(seats)

    def __len__(self) -> int:
        return len(self._members)

    def window_size(self) -> int:
        """Number of stream objects currently buffered for this shape."""
        return self._batcher.window_size()

    def last_slide_index(self) -> Optional[int]:
        """Index of the most recent slide event (None before first fill)."""
        return self._batcher.last_index

    def window_state(self) -> Tuple[
        Tuple[StreamObject, ...], Optional[int], Tuple[StreamObject, ...], Optional[int]
    ]:
        """The batcher's state as :class:`~repro.core.state.GroupState`
        holds it: the last reported window, its slide index, the pending
        partial slide and the next report time of a time-based window."""
        batcher = self._batcher
        return (
            tuple(batcher.reported_window()),
            batcher.last_index,
            batcher.pending(),
            batcher.report_time,
        )

    def at(self, position: Position) -> bool:
        """Whether this group sits at ``position``: not started for
        ``None``, else started with that window, partial slide and slide
        and report clocks."""
        if position is None:
            return not self._started
        return self._started and window_position(*self.window_state()) == position

    # ------------------------------------------------------------------
    # Plan formation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Form the shared plans over every member (first push).  The
        group counts as started only once its plans formed."""
        if self._started:
            return
        self._seat(self._form_plans(self._members))
        self._started = True

    def _seat(self, plans: Sequence[SharedPlan]) -> None:
        """Seat newly formed plans: group each plan's members into metric
        cohorts — members with one ``collect_metrics`` setting and one
        history (none, or one restored record's) share one — and add the
        plans to the dispatch."""
        for plan in plans:
            cohorts: Dict[Tuple[bool, int], MetricsCohort] = {}
            for sub in plan.subscriptions():
                history = sub._metrics
                key = (sub._collect_metrics, 0 if history == _NO_HISTORY else id(history))
                cohort = cohorts.get(key)
                if cohort is None:
                    cohort = cohorts[key] = MetricsCohort(history, sub._collect_metrics)
                sub._cohort = cohort
            self._seats.append(PlanSeats(plan))

    @staticmethod
    def _form_plans(
        members: Sequence[Subscription],
        layout: Optional[Sequence[PlanLayout]] = None,
    ) -> List[SharedPlan]:
        """Seat every one of ``members`` in a plan and return the plans.

        Members are bucketed by plan key, and every bucket of two or more
        shares a plan.  With a captured ``layout`` the shared buckets and
        their ``k_max`` are taken from it instead, reproducing the
        captured group's plans.  Every other member — alone in its bucket,
        without a plan key, or covered by no layout entry — runs in a plan
        of one over its own algorithm instance.
        """
        buckets: List[Tuple[List[Subscription], Optional[int]]] = []
        lone: List[Subscription] = []
        if layout is not None:
            for positions, k_max, _ in layout:
                buckets.append(([members[i] for i in positions], k_max))
            covered = {i for positions, _, _ in layout for i in positions}
            lone = [sub for i, sub in enumerate(members) if i not in covered]
        else:
            by_key: Dict[object, List[Subscription]] = {}
            for subscription in members:
                key = subscription.algorithm.shared_plan_key()
                if key is None:
                    lone.append(subscription)
                else:
                    by_key.setdefault(key, []).append(subscription)
            for bucket in by_key.values():
                if len(bucket) > 1:
                    buckets.append((bucket, None))
                else:
                    lone.extend(bucket)
        plans = [
            bucket[0].algorithm.build_shared_plan(bucket, k_max) for bucket, k_max in buckets
        ]
        plans.extend(CoreSharedPlan([sub], core=sub.algorithm) for sub in lone)
        for plan in plans:
            for subscription in plan.subscriptions():
                subscription._plan = plan
        return plans

    def plans(self) -> List[SharedPlan]:
        """The plans running a core of their own (no plans of one)."""
        return [seats.plan for seats in self._seats if not seats.plan.solo]

    def plan_layout(
        self, members: Sequence[Subscription]
    ) -> Tuple[Tuple[PlanLayout, ...], Set[int]]:
        """Every shared plan as positions in ``members``, ``k_max`` and
        its configuration — the :class:`~repro.core.state.GroupState`
        record of the plans — plus the positions of the members whose
        configuration is their plan's.

        A plan keeps only its members among ``members``, and is left out
        when none of them is.  Its configuration is its leading member's
        respawn template when every member's differs from it only in
        ``k`` (members of the leader's class in a plan that shares one),
        else ``None`` and each member carries its own.
        """
        position = {id(sub): index for index, sub in enumerate(members)}
        layout = []
        configured: Set[int] = set()
        for plan in self.plans():
            subs = plan.subscriptions()
            positions = tuple(position[id(sub)] for sub in subs if id(sub) in position)
            if not positions:
                continue
            configuration = None
            if plan.shares_configuration:
                leader = subs[0]
                configuration = leader._algorithm_template()
                kind = type(leader.algorithm)
                configured.update(
                    index for index in positions if type(members[index].algorithm) is kind
                )
            layout.append((positions, plan.k_max, configuration))
        return tuple(layout), configured

    def prime(self, state: GroupState) -> None:
        """Seed a fresh, memberless group with the window of a captured
        ``state`` (the restore half of :mod:`repro.core.state`); members
        then join through :meth:`admit` and continue byte-identically to
        the group the window came from.
        """
        if self._started or self._members:
            raise AlgorithmStateError("only a fresh, empty group can be primed")
        self._batcher.seed(state.window, state.slide_index, state.pending, state.report_time)
        self._started = True

    def _join(
        self,
        subscriptions: Sequence[Subscription],
        layout: Optional[Sequence[PlanLayout]] = None,
    ) -> None:
        """Seat fresh member instances in this started group: form their
        plans and, once the window has reported, fast-forward them to its
        slide clock and replay the last reported window into them as one
        synthetic slide event (answers discarded: this window was already
        reported).  The pending partial slide reaches them with the slide
        it completes, as it reaches every other member."""
        plans = self._form_plans(subscriptions, layout)
        slide_index = self._batcher.last_index
        if slide_index is not None:
            event = replay_event(tuple(self._batcher.reported_window()), slide_index)
            for plan in plans:
                plan.fast_forward(slide_index)
                plan.prepare(event)
        self._seat(plans)

    def describe(self) -> Dict[str, object]:
        """Introspection record shown by ``StreamEngine.groups()``."""
        kind = "time-based" if self.time_based else "count-based"
        return {
            "n": self.n,
            "s": self.s,
            "window": kind,
            "members": [subscription.name for subscription in self._members],
            "plans": [plan.describe() for plan in self.plans()],
        }

    # ------------------------------------------------------------------
    # Ingestion (driven by the engine)
    # ------------------------------------------------------------------
    def ingest(
        self,
        objects: Optional[Sequence[StreamObject]],
        errors: List[Exception],
        collect: bool = True,
    ) -> Sequence[Tuple[Subscription, List[TopKResult]]]:
        """Move one order-checked chunk through the shared batcher (or, for
        ``None``, emit the end-of-stream report of a time-based window);
        return each member's newly completed answers.  Result callbacks'
        errors are appended to ``errors``; the chunk still completes.

        ``collect=False`` skips gathering the answers entirely (callbacks
        and retention still run) and returns an empty sequence.
        """
        if not self._started:
            self.start()
        batcher = self._batcher
        events = batcher.flush() if objects is None else batcher.push_batch(objects)
        return self._dispatch(events, errors, collect)

    # ------------------------------------------------------------------
    def _dispatch(
        self, events: Sequence[SlideEvent], errors: List[Exception], collect: bool = True
    ) -> Sequence[Tuple[Subscription, List[TopKResult]]]:
        """Answer every member of every plan, slide by slide: the plan
        prepares the slide once with an answer per distinct ``k``, each
        open member takes its answer into retention and its callbacks,
        and then each cohort and the registry record the slide once."""
        if not events:
            return ()
        produced: Dict[Subscription, List[TopKResult]] = {}
        timed = self._obs_enabled
        for event in events:
            merge_started = time.perf_counter() if timed else 0.0
            # Snapshots: a result callback may unsubscribe a member (which
            # reseats its plan) without desyncing this dispatch.
            for seats in tuple(self._seats):
                members = seats.members
                if not members:
                    continue
                recorders, counters, observers = seats.recorders, seats.counters, seats.observers
                shared = seats.plan.prepare(event)
                answers = shared.answers
                skipped = ()
                for subscription, key, retain, callbacks in members:
                    if subscription._closed:
                        skipped += (subscription,)
                        continue
                    result = answers[key]
                    if retain is not None:
                        retain(result)
                    if callbacks:
                        self._delivering = (members, shared, subscription)
                        name = subscription.name
                        for callback in callbacks:
                            try:
                                callback(name, result)
                            except Exception as exc:  # re-raised by the ingest edge
                                errors.append(exc)
                        self._delivering = None
                    if collect:
                        produced.setdefault(subscription, []).append(result)
                candidates, prep_share = shared.candidates, shared.prep_share
                for record in recorders:
                    record(candidates, shared.memory_bytes, prep_share)
                for live in counters:
                    live.slides += 1
                if skipped:
                    observers = _observers(
                        [entry[0] for entry in members if entry[0] not in skipped]
                    )
                for slides, delivered, latency, sizes, last, count, sampled in observers:
                    slides.inc(count)
                    delivered.inc(count)
                    latency.observe(prep_share, count)
                    if sampled:
                        sizes.observe(candidates, sampled)
                        last.set(candidates)
            if timed:
                self._obs_merge.observe(time.perf_counter() - merge_started)
        if not collect:
            return ()
        return [
            (subscription, produced[subscription])
            for subscription in self._members
            if subscription in produced
        ]
