"""Shared-slide artifacts exchanged between a query group and its members.

Every sharing algorithm of the library answers with the exact top-k of the
window, so under the library-wide total order
``top_k(X, k) == top_k(X, k_max)[:k]`` for any ``k <= k_max``.  The engine's
:class:`repro.engine.group.QueryGroup` therefore runs *one* algorithm
instance (the plan's core) per bucket of co-windowed queries, at the
bucket's largest ``k``, and every member slices its own answer out of the
core's top-``k_max``.  SAP, k-skyband and MinTopK all share this way.

This module defines the data carried across that boundary:

* :class:`SharedSlide` — one window movement enriched with everything the
  plan computed for it (the core's answer and its bookkeeping sample);
* :class:`SharedPlan` — base class of the sharing plans;
* :class:`CoreSharedPlan` / :class:`SharedCoreMember` — the plan hosting
  one core at ``k_max`` and the member-side mixin slicing its answer
  (``SAPSharedPlan``, ``KSkybandSharedPlan``, ``MinTopKSharedPlan``).

Algorithms that cannot share anything simply ignore the extras: the default
:meth:`ContinuousTopKAlgorithm.process_shared_slide` falls back to the raw
:class:`~repro.core.window.SlideEvent` inside the shared slide.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, List, Optional, Sequence, Tuple

from .exceptions import AlgorithmStateError
from .object import StreamObject
from .result import TopKResult
from .window import SlideEvent


@dataclass(frozen=True)
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
        Seconds of shared preparation attributed to each open member (the
        plan's total preparation time divided by the member count); added
        to a member's own timed work, or its whole latency when it has none.
    candidates:
        The core's candidate count after this slide, sampled once for all
        members (``None`` when the plan does not sample it).
    memory_bytes:
        The core's memory estimate after this slide, amortised over the
        members (``None`` when the plan does not sample it).
    delivered:
        Set, empty, by a plan whose members do no work of their own
        (:class:`CoreSharedPlan`): they share ``answers``, one per ``k``,
        and the engine accounts the slide once for them, collected here.
    """

    event: SlideEvent
    window_topk: Tuple[StreamObject, ...] = ()
    prep_share: float = 0.0
    candidates: Optional[int] = None
    memory_bytes: Optional[int] = None
    answers: Dict[int, TopKResult] = field(default_factory=dict, compare=False, repr=False)
    delivered: Optional[DefaultDict[object, List[object]]] = None


def plan_k_max(subscriptions: Sequence[object], k_max: Optional[int] = None) -> int:
    """The ``k`` a plan over ``subscriptions`` runs at.

    Normally the members' largest ``k``.  A restored plan passes the
    ``k_max`` it was captured with: a live plan keeps its ``k_max`` when
    the member that set it unsubscribes, and the restore must run the
    same core as the plan it replaces.
    """
    if k_max is not None:
        return k_max
    return max(sub.query.k for sub in subscriptions)


class SharedPlan:
    """Base class of the per-algorithm sharing plans of a query group.

    A plan owns whatever state is computed once per slide for all member
    queries (a sealing partitioner, a k-skyband core, ...) and exposes it
    through :meth:`prepare`, called exactly once per slide event before any
    member processes it.  Members are the engine's subscription handles;
    the plan only relies on their ``closed``, ``name``, ``query``, and
    ``algorithm`` attributes.
    """

    #: Short label used by introspection (``StreamEngine.groups()``).
    kind: str = "shared"

    def __init__(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> None:
        if not subscriptions:
            raise ValueError("a shared plan needs at least one member")
        self._subs: List[object] = list(subscriptions)
        self.k_max: int = plan_k_max(subscriptions, k_max)

    # ------------------------------------------------------------------
    def subscriptions(self) -> List[object]:
        """The member subscriptions, in registration order."""
        return list(self._subs)

    def discard(self, subscription: object) -> None:
        """Forget an unsubscribed member (remaining members keep sharing)."""
        if subscription in self._subs:
            self._subs.remove(subscription)

    def has_open_members(self) -> bool:
        return any(not sub.closed for sub in self._subs)

    def open_member_count(self) -> int:
        return sum(1 for sub in self._subs if not sub.closed)

    def describe(self) -> Dict[str, object]:
        """Introspection record shown by ``StreamEngine.groups()``."""
        return {
            "kind": self.kind,
            "k_max": self.k_max,
            "members": [sub.name for sub in self._subs],
        }

    # ------------------------------------------------------------------
    def fast_forward(self, slide_index: int) -> None:
        """Align any internal slide clock before a mid-stream join.

        Called when a plan is formed over a window that is already full:
        members restored into a started group (see ``QueryGroup._join``).
        The default is a no-op; plans hosting a full algorithm core
        forward the call to it.
        """

    def prepare(self, event: SlideEvent) -> SharedSlide:
        """Do the shared per-slide work once; called before any member."""
        raise NotImplementedError


class CoreSharedPlan(SharedPlan):
    """A plan hosting one full algorithm instance (the *core*) at ``k_max``.

    The core answers the top-``k_max`` of the window, which holds every
    member's answer as its prefix, so nothing per-member remains: the plan
    runs the core once per slide and each distinct ``k``'s answer is sliced
    out of ``window_topk`` once, for every member with that ``k``.
    Subclasses build the core; the per-slide driving, timing attribution,
    and bookkeeping sampling live here.
    """

    def __init__(self, subscriptions: Sequence[object], core: object) -> None:
        super().__init__(subscriptions, core.query.k)
        self._core = core
        for sub in self._subs:
            sub.algorithm.join_shared_plan(self)

    def candidate_count(self) -> int:
        return self._core.candidate_count()

    def member_memory_bytes(self) -> int:
        """The core's memory estimate, amortised over the members."""
        return self._core.memory_bytes() // max(1, len(self._subs))

    def fast_forward(self, slide_index: int) -> None:
        self._core.fast_forward(slide_index)

    def prepare(self, event: SlideEvent) -> SharedSlide:
        started = time.perf_counter()
        result = self._core.process_slide(event)
        members = self.open_member_count() or 1
        prep = time.perf_counter() - started
        return SharedSlide(
            event=event,
            window_topk=result.objects,
            prep_share=prep / members,
            candidates=self.candidate_count(),
            memory_bytes=self.member_memory_bytes(),
            delivered=defaultdict(list),
        )


class SharedCoreMember:
    """Member-side half of :class:`CoreSharedPlan`, mixed into algorithms.

    Mix in *before* ``ContinuousTopKAlgorithm`` so the shared-slide
    overrides take precedence.  The algorithm keeps its independent
    behaviour until :meth:`join_shared_plan` is called; afterwards its
    answers are sliced from the plan core and its bookkeeping reports the
    shared structures (count as-is, memory amortised over the members).
    Subclasses implement the three ``_local_*``/``_sharing_started``
    hooks.
    """

    _shared_plan: Optional[CoreSharedPlan] = None

    # ------------------------------------------------------------------
    def _sharing_started(self) -> bool:
        """Whether the algorithm already processed anything (no late joins)."""
        raise NotImplementedError

    def _local_candidate_count(self) -> int:
        """Candidate count of the algorithm's own (unshared) structures."""
        raise NotImplementedError

    def _local_memory_bytes(self) -> int:
        """Memory estimate of the algorithm's own (unshared) structures."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def join_shared_plan(self, plan: CoreSharedPlan) -> None:
        if self._sharing_started():
            raise AlgorithmStateError(
                "cannot join a shared plan after processing has begun"
            )
        self._shared_plan = plan

    def process_shared_slide(self, shared: SharedSlide) -> TopKResult:
        if self._shared_plan is None:
            return self.process_slide(shared.event)
        k = self.query.k
        result = shared.answers.get(k)
        if result is None:
            # The core's answer is already best-first: slice, never re-sort.
            result = shared.answers[k] = TopKResult(
                slide_index=shared.event.index,
                window_end=shared.event.window_end,
                objects=shared.window_topk[:k],
            )
        return result

    def candidate_count(self) -> int:
        # Members of a shared plan hold no candidates of their own; they
        # report the shared core so the paper's bookkeeping stays visible.
        if self._shared_plan is not None:
            return self._shared_plan.candidate_count()
        return self._local_candidate_count()

    def memory_bytes(self) -> int:
        if self._shared_plan is not None:
            return self._shared_plan.member_memory_bytes()
        return self._local_memory_bytes()
