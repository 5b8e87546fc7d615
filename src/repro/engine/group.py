"""Query groups: the shared multi-query execution plane of the engine.

A :class:`QueryGroup` holds subscriptions whose queries share one window
shape ``(n, s, window type)`` and one window position.  The group owns the
*single* slide batcher for that shape — window filling, slide batching,
and expiry happen exactly once per slide, no matter how many queries watch
the shape — and fans each sealed slide event out to its members.

Members are bucketed by their algorithm's
:meth:`~repro.core.interface.ContinuousTopKAlgorithm.shared_plan_key`, and
a :class:`~repro.core.shared.SharedPlan` forms for every bucket with at
least two members: SAP, k-skyband and MinTopK queries each share one
algorithm core run at the bucket's ``k_max``, and every member slices its
answer out of the core's top-``k_max``.  The plan prepares each slide
once, before any member sees it.  Algorithms without a plan (or alone in
their bucket) process the raw events exactly as before, so mixing
sharable and unsharable queries in one group is always safe.

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
from ..core.interface import ContinuousTopKAlgorithm
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.shared import SharedPlan, SharedSlide
from ..core.state import PlanLayout, Position, replay_event
from ..core.window import SlideBatcher, SlideEvent
from ..obs.registry import LATENCY_BUCKETS, get_registry
from ..obs.tracing import get_tracer
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
        self._batcher = SlideBatcher(TopKQuery(n=n, k=1, s=s, time_based=time_based))
        self._members: List[Subscription] = []
        self._plans: List[SharedPlan] = []
        self._started = False
        #: Telemetry sink of the adaptive control plane (duck-typed to
        #: avoid an import cycle): when set, ``record_slide(group=...,
        #: subscription=..., event=..., result=...)`` is called after every
        #: member processes a slide.
        self.telemetry = None
        registry = get_registry()
        self._obs_merge = registry.histogram(
            "repro_stage_seconds",
            "Pipeline stage timings over the slide lifecycle.",
            {"stage": "merge"},
            LATENCY_BUCKETS,
        )
        self._obs_enabled = registry.enabled
        self._tracer = get_tracer()

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
        for plan in self._plans:
            plan.discard(subscription)
        # A plan whose last member left does no work; dropping it keeps
        # the group's layout capturable (a plan is restored from members).
        self._plans = [plan for plan in self._plans if plan.subscriptions()]

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
        exactly (count-based, filled, no partial slide buffered).  Live
        rebuilds by the control plane are only legal at such boundaries."""
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
        """Bucket ``members`` by plan key and build one plan per bucket.

        With a captured ``layout`` the buckets and their ``k_max`` are
        taken from it instead, reproducing the captured group's plans.
        """
        buckets: List[Tuple[List[Subscription], Optional[int]]] = []
        if layout is not None:
            for positions, k_max in layout:
                buckets.append(([members[i] for i in positions], k_max))
        else:
            by_key: Dict[object, List[Subscription]] = {}
            for subscription in members:
                key = subscription.algorithm.shared_plan_key()
                if key is not None:
                    by_key.setdefault(key, []).append(subscription)
            # A lone member gains nothing from a plan; it keeps its fully
            # independent execution path (and its exact legacy per-slide
            # accounting).
            buckets = [(bucket, None) for bucket in by_key.values() if len(bucket) > 1]
        plans: List[SharedPlan] = []
        for bucket, k_max in buckets:
            plan = bucket[0].algorithm.build_shared_plan(bucket, k_max)
            if plan is not None:
                plans.append(plan)
        return plans

    def plans(self) -> List[SharedPlan]:
        return list(self._plans)

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
        for plan in self._plans:
            positions = tuple(
                position[id(sub)] for sub in plan.subscriptions() if id(sub) in position
            )
            if positions:
                layout.append((positions, plan.k_max))
        return tuple(layout)

    # ------------------------------------------------------------------
    # Live re-planning (adaptive control plane)
    # ------------------------------------------------------------------
    def rebuild(
        self, replacements: Dict[str, ContinuousTopKAlgorithm]
    ) -> float:
        """Swap member algorithms at a slide boundary; return the cost in
        seconds.

        ``replacements`` maps subscription names to fresh (never pushed)
        algorithm instances for the same query.  The rebuild drops every
        plan holding a replaced member — dissolving a plan orphans its
        members, whose instances refuse to run outside it, so they are
        respawned too — and re-admits the affected members with their new
        instances exactly as :meth:`admit` seats joining members: plans
        re-form over them and the live window is replayed into them as one
        synthetic slide whose answer is discarded (the current window was
        already reported).  Because every algorithm in the library
        computes exact answers from the window contents alone, the result
        stream after a rebuild is identical to an uninterrupted run — this
        is what makes control-plane tactics answer-preserving.

        Members untouched by the rebuild (not replaced, not in a dropped
        plan) keep their instances and plans and never notice.
        """
        if not self.at_slide_boundary():
            raise AlgorithmStateError(
                "a live rebuild is only possible at a count-based slide "
                "boundary (window full, no partial slide buffered)"
            )
        by_name = {sub.name: sub for sub in self._members}
        unknown = sorted(set(replacements) - set(by_name))
        if unknown:
            raise KeyError(f"no such members in this group: {unknown}")

        started = time.perf_counter()
        affected = {by_name[name] for name in replacements}
        kept: List[SharedPlan] = []
        for plan in self._plans:
            if affected.isdisjoint(plan.subscriptions()):
                kept.append(plan)
            else:
                affected.update(plan.subscriptions())
        self._plans = kept
        for subscription in affected:
            algorithm = replacements.get(subscription.name)
            subscription._replace_algorithm(
                subscription.algorithm.respawn() if algorithm is None else algorithm
            )
        self._join([sub for sub in self._members if sub in affected])
        return time.perf_counter() - started

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
        for subscription in subscriptions:
            subscription.algorithm.fast_forward(slide_index)
        plans = self._form_plans(subscriptions, layout)
        for plan in plans:
            plan.fast_forward(slide_index)
        self._plans.extend(plans)
        event = replay_event(tuple(self._batcher.window_contents()), slide_index)
        planned: Dict[int, SharedSlide] = {}
        for plan in plans:
            shared = plan.prepare(event)
            for subscription in plan.subscriptions():
                planned[id(subscription)] = shared
        for subscription in subscriptions:
            shared = planned.get(id(subscription))
            if shared is not None:
                subscription.algorithm.process_shared_slide(shared)
            else:
                subscription.algorithm.process_slide(event)

    def describe(self) -> Dict[str, object]:
        """Introspection record shown by ``StreamEngine.groups()``."""
        kind = "time-based" if self.time_based else "count-based"
        return {
            "n": self.n,
            "s": self.s,
            "window": kind,
            "members": [subscription.name for subscription in self._members],
            "plans": [plan.describe() for plan in self._plans],
        }

    # ------------------------------------------------------------------
    # Ingestion (driven by the engine)
    # ------------------------------------------------------------------
    def ingest(
        self, objects: Sequence[StreamObject], collect: bool = True
    ) -> Sequence[Tuple[Subscription, List[TopKResult]]]:
        """Move one chunk through the shared batcher; return each member's
        newly completed answers.

        ``collect=False`` skips gathering the answers entirely (callbacks
        and retention still run) and returns an empty sequence.
        """
        if not self._started:
            self.start()
        return self._dispatch(self._batcher.push_batch(objects), collect)

    def flush(
        self, collect: bool = True
    ) -> Sequence[Tuple[Subscription, List[TopKResult]]]:
        """Emit the end-of-stream report of a time-based window (if any)."""
        if not self._started:
            self.start()
        return self._dispatch(self._batcher.flush(), collect)

    # ------------------------------------------------------------------
    def _dispatch(
        self, events: Sequence[SlideEvent], collect: bool = True
    ) -> Sequence[Tuple[Subscription, List[TopKResult]]]:
        if not events:
            return ()
        produced: Dict[Subscription, List[TopKResult]] = {}
        timed = self._obs_enabled or self._tracer.enabled
        for event in events:
            merge_started = time.perf_counter() if timed else 0.0
            shared_for: Dict[int, SharedSlide] = {}
            for plan in self._plans:
                if not plan.has_open_members():
                    continue
                shared = plan.prepare(event)
                for subscription in plan.subscriptions():
                    shared_for[id(subscription)] = shared
            # Snapshot: a result callback may unsubscribe a member (which
            # mutates self._members) without desyncing this dispatch.
            for subscription in tuple(self._members):
                result = subscription._deliver_slide(
                    event, shared_for.get(id(subscription))
                )
                if result is not None and self.telemetry is not None:
                    self.telemetry.record_slide(self, subscription, event, result)
                if collect and result is not None:
                    produced.setdefault(subscription, []).append(result)
            if timed:
                merge_seconds = time.perf_counter() - merge_started
                self._obs_merge.observe(merge_seconds)
                if self._tracer.enabled:
                    self._tracer.record(
                        "merge",
                        event.index,
                        time.time() - merge_seconds,
                        merge_seconds,
                        f"members={len(self._members)}",
                    )
        if not collect:
            return ()
        return [
            (subscription, produced[subscription])
            for subscription in self._members
            if subscription in produced
        ]
