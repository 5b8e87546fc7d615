"""Query plans: the one way a subscription of a query group is answered.

Every sharing algorithm of the library answers with the exact top-k of the
window, so under the library-wide total order
``top_k(X, k) == top_k(X, k_max)[:k]`` for any ``k <= k_max``.  The engine's
:class:`repro.engine.group.QueryGroup` therefore runs *one* algorithm
instance (the plan's core) per bucket of co-windowed queries, at the
bucket's largest ``k``, and every member slices its own answer out of the
core's top-``k_max``.  SAP, k-skyband and MinTopK all share this way; the
preference clusters of :mod:`repro.core.clustering` re-rank a padded core.

Every member of a started group belongs to exactly one plan.  A member
that shares with nobody — alone in its bucket, or an algorithm without a
plan key — is a *plan of one* whose core is its own algorithm instance.

This module defines:

* :class:`SharedSlide` — one window movement enriched with everything the
  plan computed for it (the core's answer, one answer per distinct ``k``
  or per member, the latency share and the bookkeeping sample);
* :class:`SharedPlan` — base class of the plans;
* :class:`CoreSharedPlan` — the plan hosting one core at ``k_max``, built
  from the leading member's :meth:`spawn
  <repro.core.interface.ContinuousTopKAlgorithm.spawn>`, or a plan of one
  over its member's own instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .object import StreamObject
from .result import TopKResult
from .window import SlideEvent


@dataclass
class SharedSlide:
    """One window movement plus the artifacts a plan precomputed for it.

    Attributes
    ----------
    event:
        The raw slide event (arrivals / expirations / index).
    window_topk:
        Top-``k_max`` of the whole current window, best first (the answer
        of the plan's core).
    prep_share:
        Seconds of :meth:`SharedPlan.prepare` attributed to each member
        (the plan's preparation time divided by its member count): every
        member's per-slide latency.
    candidates:
        The plan's candidate count after this slide, sampled once for all
        members.
    memory_bytes:
        The plan's memory estimate after this slide, amortised over the
        members.
    answers:
        Every member's answer, keyed by the plan's :meth:`SharedPlan.answer_key`
        (by ``k`` for a core plan, by member for a cluster plan).
    """

    event: SlideEvent
    window_topk: Tuple[StreamObject, ...] = ()
    prep_share: float = 0.0
    candidates: int = 0
    memory_bytes: int = 0
    answers: Dict[Hashable, TopKResult] = field(default_factory=dict, compare=False, repr=False)


class SharedPlan:
    """Base class of the plans of a query group.

    A plan runs one algorithm instance, its *core* (``_core``, set by the
    subclass), plus whatever else is computed once per slide for all
    member queries, and exposes it through :meth:`prepare`, called
    exactly once per slide event; the prepared slide holds every member's
    answer under its :meth:`answer_key`.  Members are the engine's open
    subscription handles; the plan only relies on their ``name``,
    ``query`` and ``algorithm`` attributes.

    ``k_max`` is normally the members' largest ``k``.  A restored plan
    passes the ``k_max`` it was captured with: a live plan keeps its
    ``k_max`` when the member that set it unsubscribes, and the restore
    must run the same core as the plan it replaces.
    """

    #: Short label used by introspection (``StreamEngine.groups()``).
    kind: str = "shared"
    #: Whether this is a plan of one over its member's own instance: it
    #: runs no core of its own, so introspection and captured plan
    #: layouts leave it out.
    solo: bool = False
    #: Whether the members differ from one another only in ``k``, so a
    #: captured plan holds one configuration for all of them.
    shares_configuration: bool = True
    _core: object

    def __init__(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> None:
        if not subscriptions:
            raise ValueError("a shared plan needs at least one member")
        self._subs: List[object] = list(subscriptions)
        if k_max is None:
            k_max = max(sub.query.k for sub in subscriptions)
        self.k_max: int = k_max

    # ------------------------------------------------------------------
    def subscriptions(self) -> List[object]:
        """The member subscriptions, in registration order."""
        return list(self._subs)

    def discard(self, subscription: object) -> None:
        """Forget a closed member (remaining members keep sharing)."""
        if subscription in self._subs:
            self._subs.remove(subscription)

    def describe(self) -> Dict[str, object]:
        """Introspection record shown by ``StreamEngine.groups()``."""
        return {
            "kind": self.kind,
            "k_max": self.k_max,
            "members": [sub.name for sub in self._subs],
        }

    # ------------------------------------------------------------------
    def fast_forward(self, slide_index: int) -> None:
        """Align the core's slide clock before a mid-stream join.

        Called when a plan is formed over a window that is already full:
        members restored into a started group (see ``QueryGroup._join``).
        """
        self._core.fast_forward(slide_index)

    def prepare(self, event: SlideEvent) -> SharedSlide:
        """Do the per-slide work once and answer every member."""
        raise NotImplementedError

    def answer_key(self, subscription: object) -> Hashable:
        """Where ``subscription``'s answer sits in a prepared slide's
        ``answers``: its ``k`` (members with one ``k`` share one answer)."""
        return subscription.query.k

    def candidate_count(self) -> int:
        """The candidate count every member reports."""
        return self._core.candidate_count()

    def member_memory_bytes(self) -> int:
        """The plan's memory estimate, amortised over the members."""
        return self._core.memory_bytes() // max(1, len(self._subs))


class CoreSharedPlan(SharedPlan):
    """A plan hosting one full algorithm instance (the *core*) at ``k_max``.

    The core answers the top-``k_max`` of the window, which holds every
    member's answer as its prefix, so nothing per-member remains: the plan
    runs the core once per slide and each distinct ``k``'s answer is sliced
    out of ``window_topk`` once, by one member algorithm with that ``k``
    (:meth:`~repro.core.interface.ContinuousTopKAlgorithm.process_shared_slide`),
    for every member with that ``k``.

    The core is the leading member's :meth:`spawn
    <repro.core.interface.ContinuousTopKAlgorithm.spawn>` at the ``k_max``
    query, so the configuration each member asked for is the one that
    runs.  Given ``core`` instead, the plan is a plan of one over that
    member's own instance (:attr:`solo`).
    """

    def __init__(
        self,
        subscriptions: Sequence[object],
        k_max: Optional[int] = None,
        core: Optional[object] = None,
    ) -> None:
        super().__init__(subscriptions, k_max)
        if core is None:
            leader = self._subs[0].algorithm
            core = leader.spawn(replace(leader.query, k=self.k_max))
        else:
            self.solo = True
        self._core = core
        self.kind = type(core).name
        self._index()

    def _index(self) -> None:
        """One member algorithm per distinct ``k`` below ``k_max`` (the
        core's own answer serves ``k_max``)."""
        slicers: Dict[int, object] = {}
        for sub in self._subs:
            slicers.setdefault(sub.query.k, sub.algorithm)
        slicers.pop(self.k_max, None)
        self._slicers = tuple(slicers.values())

    def discard(self, subscription: object) -> None:
        super().discard(subscription)
        self._index()

    def prepare(self, event: SlideEvent) -> SharedSlide:
        core = self._core
        started = time.perf_counter()
        result = core.process_slide(event)
        prep = time.perf_counter() - started
        members = len(self._subs)
        shared = SharedSlide(
            event,
            result.objects,
            prep / members,
            core.candidate_count(),
            core.memory_bytes() // members,
            {self.k_max: result},
        )
        for algorithm in self._slicers:
            algorithm.process_shared_slide(shared)
        return shared
