"""One continuous query attached to a :class:`~repro.engine.StreamEngine`.

A subscription owns everything one query needs *beyond* the shared window
machinery: the algorithm instance, the metric aggregates, the retained
answers, and the result callbacks.  Slide batching lives in the query
group the engine assigns the subscription to (all queries of one window
shape share a single batcher), and answering lives in the group's plans:
every member belongs to one :class:`~repro.core.shared.SharedPlan` — a
shared core, or a plan of one over the member's own instance — which
makes the member's answer and its metrics sample for each slide.  Once
its plan forms, a member's aggregates are those of its metric cohort
(:class:`~repro.core.metrics.MetricsCohort`): the members that joined the
plan together with one history, whose slide the group records once.

Memory stays O(window): the group batcher holds at most one window of
objects for the whole shape and the result buffer is bounded whenever the
caller bounds it (``result_buffer=...``) or disables retention
(``keep_results=False``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from ..core.interface import ContinuousTopKAlgorithm
from ..core.metrics import MetricsCohort, MetricsCollector
from ..core.result import TopKResult
from ..core.shared import SharedPlan, SharedSlide
from ..obs.registry import LATENCY_BUCKETS, SIZE_BUCKETS, get_registry

#: The documented schema of every per-subscription stats surface.
#: :meth:`Subscription.stats` (local and embedded engines),
#: ``ShardSubscription.stats()`` (one shard), and the cluster-wide
#: :func:`repro.cluster.merge.merged_latency_stats` all emit exactly
#: these keys, so stat consumers never branch on the execution plane.
#: Percentiles come from the latency sketch, within 1% of the exact ones;
#: ``latency_samples`` counts the latencies recorded.
STATS_KEYS = (
    "slides",
    "results_delivered",
    "average_candidates",
    "candidate_max",
    "average_memory_kb",
    "median_latency",
    "p50_latency",
    "p95_latency",
    "p99_latency",
    "max_latency",
    "latency_samples",
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .group import QueryGroup

ResultCallback = Callable[[str, TopKResult], None]


class Subscription:
    """Handle for one query registered on a :class:`StreamEngine`.

    Created by :meth:`StreamEngine.subscribe`; not meant to be instantiated
    directly.
    """

    def __init__(
        self,
        name: str,
        algorithm: ContinuousTopKAlgorithm,
        *,
        keep_results: bool = True,
        result_buffer: Optional[int] = None,
        collect_metrics: bool = True,
    ) -> None:
        self.name = name
        self.algorithm = algorithm
        self.query = algorithm.query
        self._group: Optional["QueryGroup"] = None
        #: The plan answering this member, set when its group forms plans.
        self._plan: Optional[SharedPlan] = None
        #: The member's aggregates outside a cohort: before its plan
        #: forms (its history), and after it leaves the plan.
        self._metrics = MetricsCollector()
        #: The metric cohort recording for the member while it is seated.
        self._cohort: Optional[MetricsCohort] = None
        self._collect_metrics = collect_metrics
        self._keep_results = keep_results
        self._results: Deque[TopKResult] = deque(maxlen=result_buffer)
        self._callbacks: List[ResultCallback] = []
        #: Answers delivered outside the cohort (history, or all of them
        #: once the member left its plan).
        self._delivered = 0
        self._closed = False
        self._template: Optional[ContinuousTopKAlgorithm] = None
        # Observability instruments, resolved once per subscription so the
        # per-slide path is increment/observe only (a disabled registry
        # hands out shared no-op instruments instead).
        registry = get_registry()
        labels = {"algorithm": algorithm.name}
        self._obs_slides = registry.counter(
            "repro_slides_total", "Sealed slides processed.", labels
        )
        self._obs_delivered = registry.counter(
            "repro_results_delivered_total", "Top-k answers produced.", labels
        )
        self._obs_latency = registry.histogram(
            "repro_deliver_latency_seconds",
            "Per-slide answer latency (the member's share of its plan's "
            "prepare time).",
            labels,
            LATENCY_BUCKETS,
        )
        self._obs_candidates = registry.histogram(
            "repro_candidates",
            "Candidate-set size sampled after each slide.",
            labels,
            SIZE_BUCKETS,
        )
        self._obs_candidates_last = registry.gauge(
            "repro_candidates_last", "Candidate-set size of the latest slide.", labels
        )

    # ------------------------------------------------------------------
    # Consuming answers
    # ------------------------------------------------------------------
    def on_result(self, callback: ResultCallback) -> "Subscription":
        """Invoke ``callback(name, result)`` for every new answer."""
        self._callbacks.append(callback)
        return self

    def results(self) -> List[TopKResult]:
        """The retained answers, oldest first (see ``keep_results``)."""
        return list(self._results)

    def latest(self) -> Optional[TopKResult]:
        """The most recent answer, or ``None`` before the window first fills."""
        return self._results[-1] if self._results else None

    def drain(self):
        """Yield and discard retained answers, oldest first.

        Draining keeps consumption O(1) on unbounded streams: answers pulled
        here no longer occupy the result buffer.
        """
        while self._results:
            yield self._results.popleft()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def metrics(self) -> MetricsCollector:
        """The metric aggregates.  While the member's plan runs they are
        a snapshot (the history followed by the cohort's), counting every
        slide its plan answered all members of: a result callback reads
        them as of the slide before."""
        cohort = self._cohort
        return self._metrics if cohort is None else cohort.total()

    @property
    def results_delivered(self) -> int:
        """Total answers produced so far (regardless of retention)."""
        cohort = self._cohort
        return self._delivered if cohort is None else self._delivered + cohort.live.slides

    @property
    def group(self) -> Optional["QueryGroup"]:
        """The query group (window shape bucket) this subscription joined."""
        return self._group

    def window_size(self) -> int:
        """Number of stream objects currently buffered by the window."""
        return self._group.window_size() if self._group is not None else 0

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view of the subscription's state.

        Preference-clustered subscriptions additionally carry a
        ``"cluster"`` record (cluster id, shared/private/drifted mode,
        re-rank and fallback counters) — the surface the serve layer's
        inspect endpoint reads.  The candidate count and memory are the
        plan's (memory amortised over its members); before the group
        forms plans they are the algorithm's own.
        """
        latest = self.latest()
        plan = self._plan
        if plan is None:
            candidates = self.algorithm.candidate_count()
            memory = self.algorithm.memory_bytes()
        else:
            candidates, memory = plan.candidate_count(), plan.member_memory_bytes()
        cluster_info = getattr(self.algorithm, "cluster_info", None)
        extras = {} if cluster_info is None else {"cluster": cluster_info()}
        return {
            **extras,
            "name": self.name,
            "algorithm": self.algorithm.name,
            "query": self.query.describe(),
            "closed": self._closed,
            "slides": self.metrics.slides,
            "results_delivered": self.results_delivered,
            "window_size": self.window_size(),
            "candidate_count": candidates,
            "memory_bytes": memory,
            "latest_scores": list(latest.scores) if latest is not None else [],
        }

    def stats(self) -> Dict[str, float]:
        """Aggregate performance statistics (the paper's three measures,
        plus the per-slide latency distribution as p50/p95/p99).

        Emits exactly :data:`STATS_KEYS` — the same schema every other
        stats surface (sharded, cluster-aggregate) uses.
        """
        m = self.metrics
        p50, p95, p99 = m.latency_percentiles((0.5, 0.95, 0.99))
        return {
            "slides": m.slides,
            "results_delivered": self.results_delivered,
            "average_candidates": m.average_candidates,
            "candidate_max": m.candidate_max,
            "average_memory_kb": m.average_memory_kb,
            "median_latency": p50,
            "p50_latency": p50,
            "p95_latency": p95,
            "p99_latency": p99,
            "max_latency": m.max_latency,
            "latency_samples": float(m.latency_count),
        }

    # ------------------------------------------------------------------
    # Lifecycle (driven by the engine and its query groups)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop receiving objects; retained results stay readable."""
        if not self._closed:
            self._closed = True
            self.algorithm.close()

    def _attach_group(self, group: "QueryGroup") -> None:
        self._group = group

    def _adopt_state(self, state, metrics: MetricsCollector) -> None:
        """Adopt the runtime history carried by a
        :class:`~repro.core.state.SubscriptionState`: retained answers, the
        delivery counter, and the metric aggregates ``metrics`` — a copy
        of the record's, so the state object stays reusable, shared by
        the members restored from one record's cohort, which form one
        cohort again.  Called by
        :meth:`repro.engine.core.EngineCore.restore_groups` so a rebalanced
        or recovered subscription keeps its percentiles and result history.
        """
        self._results.extend(state.results)
        self._delivered = state.results_delivered
        self._metrics = metrics

    def _leave_cohort(self, received: Optional[SharedSlide] = None) -> None:
        """Freeze the aggregates on leaving the plan: the cohort's so far,
        plus ``received``, a slide this member got whose cohort has not
        recorded it yet."""
        cohort = self._cohort
        if cohort is None:
            return
        metrics = cohort.total()
        delivered = self._delivered + cohort.live.slides
        if received is not None:
            delivered += 1
            if cohort.collect:
                metrics.record(received.candidates, received.memory_bytes, received.prep_share)
            else:
                metrics.slides += 1
        self._metrics, self._delivered, self._cohort = metrics, delivered, None

    def _algorithm_template(self) -> ContinuousTopKAlgorithm:
        """``algorithm.respawn()`` made once per instance; captures share it."""
        if self._template is None:
            self._template = self.algorithm.respawn()
        return self._template

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Subscription({self.name!r}, {self.algorithm.name}, "
            f"{self.query.describe()}, {state})"
        )
