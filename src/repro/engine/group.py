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
every plan prepares once and then answers its members; a member's
latency is its share of the prepare, and the metrics registry records
the slide once per plan (:meth:`QueryGroup._dispatch`).

The placement rule: a subscription joins the group with its window shape
and its window position (:meth:`QueryGroup.at`).  A fresh subscription's
position is "not started", so it joins the group of its shape that has
not consumed the stream yet, and every member of that group forms plans
at its first push.  A captured one (:class:`~repro.core.state.GroupState`)
joins the group at its last slide index and window ``t`` sequence.
Members admitted into a started group (:meth:`QueryGroup.admit`) are
fast-forwarded to the group's slide, fed its window as one replayed slide,
and form plans only among themselves, so existing members and plans never
notice a join.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import AlgorithmStateError
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.shared import CoreSharedPlan, SharedPlan
from ..core.state import PlanLayout, Position, replay_event
from ..core.window import SlideBatcher, SlideEvent
from ..obs.registry import LATENCY_BUCKETS, get_registry
from .subscription import Subscription

#: Group key: window size, slide, and window type.
GroupKey = Tuple[int, int, bool]


def group_key_for(query: TopKQuery) -> GroupKey:
    """The window shape a query is grouped by (everything but ``k``/``F``)."""
    return (query.n, query.s, query.time_based)


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
        self._plans: List[SharedPlan] = []
        self._started = False
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
        over every member at the first push.  In a started group they are
        fast-forwarded to its slide, form plans among themselves — from
        the captured ``layout`` (positions into ``subscriptions``) when
        given, else by plan-key bucketing — and consume the live window as
        one replayed slide whose answers are discarded.
        """
        if self._started and not self.at_slide_boundary():
            raise AlgorithmStateError(
                "a started query group admits members only at a slide boundary"
            )
        for subscription in subscriptions:
            self._members.append(subscription)
            subscription._attach_group(self)
        if self._started:
            self._join(subscriptions, layout)

    def remove(self, subscription: Subscription) -> None:
        if subscription in self._members:
            self._members.remove(subscription)
        plan = subscription._plan
        if plan in self._plans:
            plan.discard(subscription)
            # A plan whose last member left does no work; dropping it
            # keeps the group's layout capturable (a plan is restored
            # from members).
            if not plan.subscriptions():
                self._plans.remove(plan)

    def __len__(self) -> int:
        return len(self._members)

    def window_size(self) -> int:
        """Number of stream objects currently buffered for this shape."""
        return self._batcher.window_size()

    def window_contents(self) -> List[StreamObject]:
        """Snapshot of the shape's buffered window, oldest first."""
        return self._batcher.window_contents()

    def last_slide_index(self) -> Optional[int]:
        """Index of the most recent slide event (None before first fill)."""
        return self._batcher.last_index

    def at_slide_boundary(self) -> bool:
        """True when the group's window state matches the last emitted slide
        exactly (count-based, filled, no partial slide buffered).  Captures
        and joins into a started group are only legal at such boundaries."""
        return self._started and self._batcher.at_slide_boundary()

    def at(self, position: Position) -> bool:
        """Whether this group sits at ``position``: not started for
        ``None``, else at a slide boundary with that last slide index and
        window ``t`` sequence."""
        if position is None:
            return not self._started
        index, ts = position
        return (
            self.at_slide_boundary()
            and self._batcher.last_index == index
            and tuple(obj.t for obj in self._batcher.window_contents()) == ts
        )

    # ------------------------------------------------------------------
    # Plan formation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Form the shared plans over every member (first push)."""
        if self._started:
            return
        self._started = True
        self._plans.extend(self._form_plans(self._members))

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
            for positions, k_max in layout:
                buckets.append(([members[i] for i in positions], k_max))
            covered = {i for positions, _ in layout for i in positions}
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
        return [plan for plan in self._plans if not plan.solo]

    def plan_layout(
        self, members: Optional[Sequence[Subscription]] = None
    ) -> Tuple[PlanLayout, ...]:
        """Every shared plan as positions in ``members`` (default: every
        member) plus ``k_max`` — the :class:`~repro.core.state.GroupState`
        record of the plans.  A plan keeps only its members among
        ``members``, and is left out when none of them is."""
        members = self._members if members is None else members
        position = {id(sub): index for index, sub in enumerate(members)}
        layout = []
        for plan in self.plans():
            positions = tuple(
                position[id(sub)] for sub in plan.subscriptions() if id(sub) in position
            )
            if positions:
                layout.append((positions, plan.k_max))
        return tuple(layout)

    def prime(self, contents: Sequence[StreamObject], last_index: int) -> None:
        """Seed a fresh, memberless group with a window captured at slide
        boundary ``last_index`` (the restore half of
        :mod:`repro.core.state`); members then join through :meth:`admit`
        and continue byte-identically to the group the window came from.
        """
        if self._started or self._members:
            raise AlgorithmStateError("only a fresh, empty group can be primed")
        self._batcher.seed(contents, last_index)
        self._started = True

    def _join(
        self,
        subscriptions: Sequence[Subscription],
        layout: Optional[Sequence[PlanLayout]] = None,
    ) -> None:
        """Seat fresh member instances in this started group: fast-forward
        them to its slide clock, form their plans, and replay the live
        window into them as one synthetic slide event (answers discarded:
        this window was already reported)."""
        slide_index = self._batcher.last_index
        plans = self._form_plans(subscriptions, layout)
        event = replay_event(tuple(self._batcher.window_contents()), slide_index)
        for plan in plans:
            plan.fast_forward(slide_index)
            plan.prepare(event)
        self._plans.extend(plans)

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
        prepares the slide once, each open member takes its answer and
        its metrics record from it, and the registry records the slide
        once per plan and instrument set."""
        if not events:
            return ()
        produced: Dict[Subscription, List[TopKResult]] = {}
        timed = self._obs_enabled
        for event in events:
            merge_started = time.perf_counter() if timed else 0.0
            # Snapshots: a result callback may unsubscribe a member (which
            # mutates the plans) without desyncing this dispatch.
            for plan in tuple(self._plans):
                members = plan.subscriptions()
                if not members:
                    continue
                shared = plan.prepare(event)
                delivered = []
                for subscription in members:
                    if subscription._closed:
                        continue
                    result = plan.answer(subscription, shared)
                    subscription._deliver_slide(result, shared, errors)
                    delivered.append(subscription)
                    if collect:
                        produced.setdefault(subscription, []).append(result)
                if delivered:
                    Subscription._observe(delivered, shared)
            if timed:
                self._obs_merge.observe(time.perf_counter() - merge_started)
        if not collect:
            return ()
        return [
            (subscription, produced[subscription])
            for subscription in self._members
            if subscription in produced
        ]
