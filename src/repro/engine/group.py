"""Query groups: the shared multi-query execution plane of the engine.

A :class:`QueryGroup` holds every subscription whose query shares one
window shape ``(n, s, window type)``.  The group owns the *single* slide
batcher for that shape — window filling, slide batching, and expiry happen
exactly once per slide, no matter how many queries watch the shape — and
fans each sealed slide event out to its members.

On its first slide the group additionally buckets members by their
algorithm's :meth:`~repro.core.interface.ContinuousTopKAlgorithm.shared_plan_key`
and forms a :class:`~repro.core.shared.SharedPlan` for every bucket with at
least two members: SAP, k-skyband and MinTopK queries each share one
algorithm core run at the bucket's ``k_max``, and every member slices its
answer out of the core's top-``k_max``.  The plan prepares each slide
once, before any member sees it.  Algorithms without a plan (or alone in
their bucket) process the raw events exactly as before, so mixing
sharable and unsharable queries in one group is always safe.

Membership is fixed once the group has started consuming the stream: a
subscription added later must see an *empty* window, so the engine opens a
fresh group of the same shape for it instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.columnar import SlideBlock
from ..core.exceptions import AlgorithmStateError
from ..core.interface import ContinuousTopKAlgorithm
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.shared import SharedPlan, SharedSlide
from ..core.state import PlanLayout, replay_event
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
    """All subscriptions sharing one window shape on a stream engine."""

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

    def add(self, subscription: Subscription) -> None:
        if self._started:
            raise AlgorithmStateError(
                "cannot join a query group that has started consuming the stream"
            )
        self._members.append(subscription)
        subscription._attach_group(self)

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

    # ------------------------------------------------------------------
    # Plan formation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Freeze membership and form the shared plans (first push)."""
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

    def plan_layout(self) -> Tuple[PlanLayout, ...]:
        """Every shared plan as member positions plus ``k_max`` (the
        :class:`~repro.core.state.GroupState` record of the plans)."""
        position = {id(sub): index for index, sub in enumerate(self._members)}
        return tuple(
            (tuple(position[id(sub)] for sub in plan.subscriptions()), plan.k_max)
            for plan in self._plans
        )

    # ------------------------------------------------------------------
    # Live re-planning (adaptive control plane)
    # ------------------------------------------------------------------
    def rebuild(
        self, replacements: Dict[str, ContinuousTopKAlgorithm]
    ) -> float:
        """Swap member algorithms at a slide boundary; return the cost in
        seconds.

        ``replacements`` maps subscription names to fresh (never pushed)
        algorithm instances for the same query.  The group is "drained" in
        place: every replaced member — plus every member that shared a plan
        with one, since dissolving a plan orphans its members — gets a
        fresh instance, shared plans are re-formed over the rebuilt set,
        and the live window contents are replayed into the new pipeline as
        one synthetic slide event whose answer is discarded (the current
        window was already reported).  Because every algorithm in the
        library computes exact answers from the window contents alone, the
        result stream after a rebuild is identical to an uninterrupted
        run — this is what makes control-plane tactics answer-preserving.

        Members untouched by the rebuild (not replaced, not in a dissolved
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
        # Dissolving a plan orphans every member bound to it: their old
        # instances refuse to run outside the plan, so they must be
        # rebuilt (with their current configuration) alongside the swaps.
        surviving_plans: List[SharedPlan] = []
        for plan in self._plans:
            plan_members = set(plan.subscriptions())
            if plan_members & affected:
                affected |= {m for m in plan_members if m in self._members}
            else:
                surviving_plans.append(plan)
        self._plans = surviving_plans

        slide_index = self._batcher.last_index
        for subscription in affected:
            algorithm = replacements.get(subscription.name)
            if algorithm is None:
                algorithm = subscription.algorithm.respawn()
            algorithm.fast_forward(slide_index)
            subscription._replace_algorithm(algorithm)

        ordered = [sub for sub in self._members if sub in affected]
        new_plans = self._form_plans(ordered)
        for plan in new_plans:
            plan.fast_forward(slide_index)
        self._plans.extend(new_plans)
        self._replay(ordered, new_plans, slide_index)
        return time.perf_counter() - started

    def prime(
        self,
        contents: Sequence[StreamObject],
        last_index: int,
        plans: Sequence[PlanLayout],
    ) -> None:
        """Seed a never-started group with captured window state.

        This is the restore half of group serialization
        (:mod:`repro.core.state`): the members — all fresh, never-pushed
        algorithm instances — adopt a window captured at slide boundary
        ``last_index`` in some other group (typically in another process).
        The group's batcher is seeded, the captured ``plans`` layout is
        re-formed over the members, every member is
        fast-forwarded to the captured slide clock, and the window is
        replayed through the standard drain-and-replay path, so subsequent
        slides produce byte-identical answers to the group the state was
        captured from.
        """
        if self._started:
            raise AlgorithmStateError("cannot prime a group that has started")
        if not self._members:
            raise AlgorithmStateError("cannot prime a group with no members")
        self._batcher.seed(contents, last_index)
        self._started = True
        for subscription in self._members:
            subscription.algorithm.fast_forward(last_index)
        self._plans.extend(self._form_plans(self._members, plans))
        for plan in self._plans:
            plan.fast_forward(last_index)
        self._replay(self._members, self._plans, last_index)

    def _replay(
        self,
        subscriptions: Sequence[Subscription],
        plans: Sequence[SharedPlan],
        slide_index: int,
    ) -> None:
        """Replay the live window into ``subscriptions`` as one synthetic
        slide event (same shape as the initial window-fill event).  The
        produced answers are discarded: this window was already reported.
        """
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
        self,
        objects: Sequence[StreamObject],
        block: Optional[SlideBlock] = None,
        collect: bool = True,
    ) -> Sequence[Tuple[Subscription, List[TopKResult]]]:
        """Move one chunk through the shared batcher; return each member's
        newly completed answers.

        ``block``, when given, is the chunk in column form (``objects`` is
        its materialised sequence); slide events then keep block-form
        arrivals.  ``collect=False`` skips gathering the answers entirely
        (callbacks and retention still run) and returns an empty sequence.
        """
        if not self._started:
            self.start()
        if block is None:
            events = self._batcher.push_batch(objects)
        else:
            events = self._batcher.push_block(block, objects)
        return self._dispatch(events, collect)

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
