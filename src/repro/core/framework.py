"""The SAP framework: self-adaptive partition based continuous top-k.

This module implements Algorithm 1 of the paper (the Top-k maintenance
procedure) on top of the building blocks of the other modules:

* the window is split into partitions by a pluggable
  :class:`~repro.partitioning.base.Partitioner` (equal, dynamic, enhanced
  dynamic);
* every sealed partition contributes its local top-k ``P_i^k`` to the global
  candidate set ``C``, which is refined with dominance counters during the
  merge (Figure 4);
* the front partition additionally owns a *meaningful object set* ``M_0``
  holding its k-skyband objects outside ``P_0^k``.  ``M_0`` is only formed
  when needed — when the partition reaches the front of the window and its
  group dominance number ``ρ`` is below ``k`` — and is stored either in the
  S-AVL structure (Section 5), in the UBSA segmented S-AVL when unit
  metadata is available (Section 5.2), or in a plain sorted list when the
  S-AVL is disabled (the ablation rows of Table 2);
* whenever a front candidate expires, the best live object of ``M_0`` is
  promoted into ``C`` in ``O(log k)`` so the candidate set always covers
  the true top-k; the front's candidates sit in a heap ordered by ``t``,
  so an expiring run touches only the candidates inside it;
* the query answer at every slide is the k best objects of
  ``C ∪ P_m^k`` where ``P_m^k`` is the top-k of the not-yet-sealed suffix
  of the stream.

Each slide touches only what can change the answer, through two floors.
Both rest on the same fact: every object of the unsealed suffix is newer
than every candidate, and every arrival is newer than the whole suffix, so
a newer object wins a score tie and the ``(score, t)`` order of such runs
is a stable sort by score alone.

* The pending floor: once ``P_m^k`` holds k objects, an arrival can enter
  it only if its score is at least the k-th kept score (ties enter).
* The answer floor: once ``C`` holds k candidates, a pending object scoring
  below the k-th candidate cannot answer (ties answer); when none is left,
  the answer is the candidates' top k with no sort.
"""

from __future__ import annotations

import heapq
import time
import weakref
from collections import deque
from operator import attrgetter
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from ..partitioning.base import PartitionContext, Partitioner
from ..partitioning.enhanced import EnhancedDynamicPartitioner
from ..savl.amortized import AmortizedSAVLBuilder
from ..savl.meaningful import EmptyMeaningfulSet, MeaningfulSet, SortedMeaningfulSet
from ..obs.registry import LATENCY_BUCKETS, SIZE_BUCKETS, get_registry
from ..savl.savl import SAVL
from ..savl.segmented import SegmentedSAVL
from ..stats.dominance import k_skyband
from .candidates import CandidateSet
from .columnar import topk_objects
from .exceptions import AlgorithmStateError
from .interface import (
    OBJECT_FOOTPRINT_BYTES,
    POINTER_FOOTPRINT_BYTES,
    ContinuousTopKAlgorithm,
)
from .object import StreamObject, rank_of
from .partition import Partition, PartitionSpec, build_partition
from .query import TopKQuery
from .result import TopKResult
from .shared import CoreSharedPlan
from .window import SlideEvent

RankKey = Tuple[float, int]

#: The score alone: the sort key of runs whose ``t`` order is their list
#: order (see the module docstring).
_score_of = attrgetter("score")

#: Seal-path instruments per registry.  SAP algorithms are pickled for
#: capture/rebalance, so observability handles must not live on the
#: instance; resolving them through the registry on every seal costs a
#: lock, so the seal path caches them here instead (weakly keyed: a
#: swapped-out registry — tests, the overhead benchmark — stays
#: collectable).
_seal_instrument_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _seal_instruments(registry):
    """``(stage histogram, sealed counter, size histogram)`` of ``registry``."""
    cached = _seal_instrument_cache.get(registry)
    if cached is None:
        cached = (
            registry.histogram(
                "repro_stage_seconds",
                "Pipeline stage timings over the slide lifecycle.",
                {"stage": "seal"},
                LATENCY_BUCKETS,
            ),
            registry.counter(
                "repro_partitions_sealed_total", "Partitions sealed and adopted."
            ),
            registry.histogram(
                "repro_seal_partition_size",
                "Objects per sealed partition.",
                None,
                SIZE_BUCKETS,
            ),
        )
        _seal_instrument_cache[registry] = cached
    return cached


class FrameworkStats:
    """Counters describing how much work the SAP framework actually did.

    These are the quantities the paper's discussion sections reason about:
    how many partitions were sealed, how often the meaningful object set was
    formed versus skipped thanks to the group dominance number, how many
    promotions the S-AVL served, and how many candidates the merge-refine
    step eliminated.
    """

    __slots__ = (
        "partitions_sealed",
        "fronts_prepared",
        "meaningful_formed",
        "meaningful_skipped",
        "promotions",
        "refine_removals",
    )

    def __init__(self) -> None:
        self.partitions_sealed = 0
        self.fronts_prepared = 0
        self.meaningful_formed = 0
        self.meaningful_skipped = 0
        self.promotions = 0
        self.refine_removals = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"FrameworkStats({inner})"


#: Policies controlling when the meaningful object set of a partition is
#: formed.  ``lazy`` is Algorithm 1 (form when the partition reaches the
#: front of the window); ``eager`` is the "non-delay" strawman of Table 2
#: (form at seal time, without the benefit of the group dominance number or
#: the global threshold); ``amortized`` spreads the formation of the next
#: partition's S-AVL over the slides during which the front partition
#: expires (the amortized proactive formation of Section 5.1).
MEANINGFUL_POLICIES = ("lazy", "eager", "amortized")


class SAPTopK(ContinuousTopKAlgorithm):
    """Continuous top-k monitoring with the SAP framework.

    Parameters
    ----------
    query:
        The continuous query ``⟨n, k, s, F⟩``.
    partitioner:
        Partitioning strategy; defaults to the enhanced dynamic partitioner,
        the configuration the paper evaluates as "SAP".
    meaningful_policy:
        ``"lazy"`` (default, Algorithm 1), ``"eager"`` (the non-delay
        variant used as a baseline in Table 2) or ``"amortized"`` (the
        next partition's S-AVL is built a step per slide while the front
        expires, Section 5.1).
    use_savl:
        When True (default) the meaningful object set is stored in the
        S-AVL structure (or its segmented variant when unit metadata is
        available); when False a plain re-scan plus sorted list is used.
    """

    name = "SAP"

    def __init__(
        self,
        query: TopKQuery,
        partitioner: Optional[Partitioner] = None,
        meaningful_policy: str = "lazy",
        use_savl: bool = True,
    ) -> None:
        super().__init__(query)
        if meaningful_policy not in MEANINGFUL_POLICIES:
            raise ValueError(
                f"meaningful_policy must be one of {MEANINGFUL_POLICIES}, "
                f"got {meaningful_policy!r}"
            )
        self._partitioner = partitioner if partitioner is not None else EnhancedDynamicPartitioner()
        self._partitioner.bind(query, PartitionContext(self._top_candidate_scores))
        self._policy = meaningful_policy
        self._use_savl = use_savl
        self.name = f"SAP[{self._partitioner.name}]"

        self._partitions: Deque[Partition] = deque()
        self._candidates = CandidateSet()
        #: Top-k of the unsealed suffix, ascending.
        self._pending_topk: List[StreamObject] = []
        self._premade: Dict[int, MeaningfulSet] = {}
        self._front_meaningful: Optional[MeaningfulSet] = None
        self._front_prepared = False
        self._front_candidate_live = 0
        #: ``(t, rank_key)`` heap of the prepared front's candidates; keys
        #: that have since left ``C`` are skipped when popped.
        self._front_expiry: List[Tuple[int, RankKey]] = []
        self._next_partition_id = 0
        self._watermark = 0
        self._slides_processed = 0
        # Amortized proactive formation of the next partition's S-AVL.
        self._amortized_builder: Optional[AmortizedSAVLBuilder] = None
        self._amortized_skip_id: Optional[int] = None
        self.stats = FrameworkStats()

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------
    def process_slide(self, event: SlideEvent) -> TopKResult:
        self._handle_expirations(event.expirations)
        self._handle_arrivals(event.arrivals)
        if self._policy == "amortized":
            self._advance_amortized(len(event.expirations))
        self._replenish_front()
        self._slides_processed += 1
        return self._current_result(event)

    # ------------------------------------------------------------------
    # Shared-slide hooks: SAP answers the exact top-k of the window, so
    # one core at k_max serves every co-windowed SAP query of the same
    # configuration; members slice the answer.
    # ------------------------------------------------------------------
    def shared_plan_key(self) -> Optional[Hashable]:
        return ("SAP", self._partitioner.plan_key(), self._policy, self._use_savl)

    def build_shared_plan(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> "SAPSharedPlan":
        return SAPSharedPlan(subscriptions, k_max)

    # Bound on the class itself so per-class instrumentation of SAPTopK
    # also sees member slides.
    process_shared_slide = ContinuousTopKAlgorithm.process_shared_slide

    def candidate_count(self) -> int:
        meaningful = len(self._front_meaningful) if self._front_meaningful else 0
        return len(self._candidates) + len(self._pending_topk) + meaningful

    def memory_bytes(self) -> int:
        candidates = len(self._candidates) + len(self._pending_topk)
        meaningful = len(self._front_meaningful) if self._front_meaningful else 0
        premade = sum(len(ms) for ms in self._premade.values())
        structural = (len(self._partitions) + 1) * POINTER_FOOTPRINT_BYTES
        per_partition_topk = sum(len(p.topk) for p in self._partitions)
        return (
            (candidates + meaningful + premade) * OBJECT_FOOTPRINT_BYTES
            + per_partition_topk * POINTER_FOOTPRINT_BYTES
            + structural
        )

    # ------------------------------------------------------------------
    # Introspection used by tests and benchmarks
    # ------------------------------------------------------------------
    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    def partition_sizes(self) -> List[int]:
        return [len(p) for p in self._partitions]

    def front_partition(self) -> Optional[Partition]:
        return self._partitions[0] if self._partitions else None

    def seal_stats(self) -> Dict[str, object]:
        """Sealing behaviour of this instance: the partitioner's sizing and
        the framework counters in one place.  A shared plan's numbers are
        its core's (:meth:`SAPSharedPlan.seal_stats`)."""
        base = self._partitioner.seal_stats()
        base["partitions_live"] = len(self._partitions)
        base["framework"] = self.stats.as_dict()
        return base

    def check_invariants(self) -> None:
        """Validate the per-slide bookkeeping (tests call it after slides)."""
        if self._front_prepared:
            front_id = self._partitions[0].partition_id
            owned = self._candidates.keys_of(front_id)
            assert self._front_candidate_live == len(owned), "front count drifted"
            queued = {key for _, key in self._front_expiry}
            assert queued.issuperset(owned), "front candidate missing from expiry heap"
        pending = self._pending_topk
        assert pending == sorted(pending, key=rank_of), "pending top-k not ascending"
        expected = topk_objects(self._partitioner.pending_objects(), self.query.k)
        assert pending == expected[::-1], "pending top-k is not the suffix's top-k"

    def spawn(self, query: TopKQuery) -> "SAPTopK":
        """A fresh SAP instance at ``query`` with this configuration (a
        fresh clone of the partitioner, the meaningful-set policy, the
        S-AVL toggle) and empty state."""
        return SAPTopK(
            query,
            partitioner=self._partitioner.spawn(),
            meaningful_policy=self._policy,
            use_savl=self._use_savl,
        )

    # ------------------------------------------------------------------
    # Expirations
    # ------------------------------------------------------------------
    def _handle_expirations(self, expirations: Sequence[StreamObject]) -> None:
        if not expirations:
            return
        partitions = self._partitions
        index = 0
        total = len(expirations)
        while index < total:
            front = partitions[0] if partitions else self._front_for_expiry()
            if not self._front_prepared:
                self._prepare_front(front)
            # Absorb the longest run this front can take in one batch; only
            # the front's candidates inside the run (the heap entries up to
            # its last t) leave C — every other object is untouched.
            run = min(front.live_count, total - index)
            batch = expirations[index : index + run]
            front.expire_batch(batch)
            self._expire_front_candidates(front, batch)
            index += run
            if front.fully_expired:
                self._retire_front()
        self._watermark = max(self._watermark, expirations[-1].t + 1)
        if self._front_meaningful is not None:
            self._front_meaningful.prune_expired(self._watermark)

    def _expire_front_candidates(
        self, front: Partition, batch: Sequence[StreamObject]
    ) -> None:
        """Drop the front's candidates among ``batch``, its expired run."""
        heap, candidates = self._front_expiry, self._candidates
        last_t = batch[-1].t
        while heap and heap[0][0] <= last_t:
            item = heapq.heappop(heap)
            entry = candidates.get(item[1])
            if entry is not None and entry.partition_id == front.partition_id:
                candidates.remove(item[1])
                self._front_candidate_live -= 1

    def _front_for_expiry(self) -> Partition:
        if not self._partitions:
            # Safety valve: expirations would reach into the unsealed buffer
            # (only possible with a single partition per window); seal it.
            spec = self._partitioner.force_seal()
            if spec is None:
                raise AlgorithmStateError("expiration requested on an empty window")
            self._seal(spec)
            self._rebuild_pending_topk()
        return self._partitions[0]

    def _retire_front(self) -> None:
        old = self._partitions.popleft()
        self._premade.pop(old.partition_id, None)
        self._front_meaningful = None
        self._front_prepared = False
        self._front_candidate_live = 0
        self._front_expiry = []

    def _ensure_front_prepared(self) -> None:
        if self._front_prepared or not self._partitions:
            return
        self._prepare_front(self._partitions[0])

    def _prepare_front(self, partition: Partition) -> None:
        """Finalize the front partition: compute ``ρ`` and form ``M_0``."""
        self._front_prepared = True
        self.stats.fronts_prepared += 1
        k = self.query.k
        rho = self._candidates.group_dominance(partition.kth_key, partition.partition_id, k)
        partition.rho = rho
        front_id = partition.partition_id
        self._front_expiry = [(key[1], key) for key in self._candidates.keys_of(front_id)]
        heapq.heapify(self._front_expiry)
        self._front_candidate_live = len(self._front_expiry)
        if self._policy == "eager":
            self._front_meaningful = self._premade.pop(
                partition.partition_id, EmptyMeaningfulSet()
            )
            self.stats.meaningful_formed += 1
        elif self._policy == "amortized" and self._amortized_covers(partition):
            self._front_meaningful = self._take_amortized(partition)
            if isinstance(self._front_meaningful, EmptyMeaningfulSet):
                self.stats.meaningful_skipped += 1
            else:
                self.stats.meaningful_formed += 1
        elif rho >= k:
            self._front_meaningful = EmptyMeaningfulSet()
            self.stats.meaningful_skipped += 1
        else:
            self._front_meaningful = self._form_meaningful(partition, rho)
            self.stats.meaningful_formed += 1
        self._front_meaningful.prune_expired(self._watermark)

    def _form_meaningful(self, partition: Partition, rho: int) -> MeaningfulSet:
        k = self.query.k
        stacks = max(1, k - rho)
        exclude = set(partition.topk_keys())
        threshold = self._candidates.global_threshold(partition.partition_id, k)
        if self._use_savl and partition.units:
            return SegmentedSAVL(
                partition,
                num_stacks=stacks,
                threshold_provider=lambda: self._candidates.global_threshold(
                    partition.partition_id, k
                ),
                exclude_keys=exclude,
            )
        if self._use_savl:
            if not self.query.time_based and self.query.s > 1:
                # Appendix C: objects arriving in the same slide expire
                # together, so only the best (k - rho) per slide can ever
                # become meaningful.
                return SAVL.build_batched(
                    partition.objects,
                    batch_size=self.query.s,
                    num_stacks=stacks,
                    global_threshold=threshold,
                    exclude_keys=exclude,
                )
            return SAVL.build(
                partition.objects,
                num_stacks=stacks,
                global_threshold=threshold,
                exclude_keys=exclude,
            )
        # Plain re-scan: local k-skyband with (k - rho) allowed dominators,
        # followed by the global threshold filter.
        local = k_skyband(partition.objects, stacks)
        qualifying = [
            obj
            for obj in local
            if obj.rank_key not in exclude
            and (threshold is None or obj.rank_key >= threshold)
        ]
        return SortedMeaningfulSet(qualifying)

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _handle_arrivals(self, arrivals: Sequence[StreamObject]) -> None:
        if not arrivals:
            return
        self._push_pending_topk_many(arrivals)
        specs = self._partitioner.observe(arrivals)
        for spec in specs:
            self._seal(spec)
        if specs:
            self._rebuild_pending_topk()

    def _seal(self, spec: PartitionSpec) -> None:
        # The observability handles come from the module-level per-registry
        # cache (never the instance): SAP algorithms are pickled for
        # capture/rebalance, so instruments must not ride on ``self``.
        registry = get_registry()
        timed = registry.enabled
        started = time.perf_counter() if timed else 0.0
        partition = build_partition(
            self._next_partition_id, spec.objects, self.query.k, spec.units, spec.topk
        )
        self._next_partition_id += 1
        self.stats.partitions_sealed += 1
        removed = self._candidates.merge_partition_topk(
            partition.topk, partition.partition_id, self.query.k
        )
        self.stats.refine_removals += len(removed)
        if self._front_prepared:
            front_id = self._partitions[0].partition_id
            for entry in removed:
                if entry.partition_id == front_id:
                    self._front_candidate_live -= 1
        self._partitions.append(partition)
        if self._policy == "eager":
            self._premade[partition.partition_id] = self._build_premade(partition)
        if timed:
            stage, sealed_total, partition_size = _seal_instruments(registry)
            stage.observe(time.perf_counter() - started)
            sealed_total.inc()
            partition_size.observe(len(partition.objects))

    def _build_premade(self, partition: Partition) -> MeaningfulSet:
        """Non-delay variant: form ``M_i`` at seal time.

        At seal time the partition is the newest in the window, so neither
        the group dominance number nor the global threshold can prune
        anything — which is exactly why this policy is slower (Table 2).
        """
        k = self.query.k
        exclude = set(partition.topk_keys())
        if self._use_savl:
            return SAVL.build(
                partition.objects,
                num_stacks=k,
                global_threshold=None,
                exclude_keys=exclude,
            )
        local = k_skyband(partition.objects, k)
        return SortedMeaningfulSet(
            [obj for obj in local if obj.rank_key not in exclude]
        )

    def _push_pending_topk_many(self, objects: Sequence[StreamObject]) -> None:
        # top_k(A ∪ B) == top_k(top_k(A) ∪ B): merge the kept objects with
        # the arrivals that can enter and keep the k best.  Arrivals are
        # newer than every kept object, so the pending floor admits score
        # ties, and a stable sort by score alone yields the (score, t) order.
        pending = self._pending_topk
        k = self.query.k
        if len(pending) >= k:
            floor = pending[0].score
            objects = [obj for obj in objects if obj.score >= floor]
            if not objects:
                return
        merged = pending + list(objects)
        merged.sort(key=_score_of)
        excess = len(merged) - k
        if excess > 0:
            del merged[:excess]
        self._pending_topk = merged

    def _rebuild_pending_topk(self) -> None:
        best = self._partitioner.pending_topk(self.query.k)
        best.reverse()
        self._pending_topk = best

    # ------------------------------------------------------------------
    # Amortized proactive formation (Section 5.1)
    # ------------------------------------------------------------------
    def _advance_amortized(self, expired_count: int) -> None:
        """Spread the construction of the next partition's S-AVL over the
        slides during which the current front expires."""
        if not self._use_savl or len(self._partitions) < 2:
            return
        front = self._partitions[0]
        target = self._partitions[1]
        builder = self._amortized_builder
        if (
            (builder is None or builder.partition is not target)
            and self._amortized_skip_id != target.partition_id
        ):
            builder = self._start_amortized(front, target)
        if builder is not None and builder.partition is target and not builder.done:
            builder.step(max(expired_count, self.query.s))

    def _start_amortized(
        self, front: Partition, target: Partition
    ) -> Optional[AmortizedSAVLBuilder]:
        """Create the builder for ``target`` (the partition right behind the
        front), or record that its meaningful set is provably empty."""
        k = self.query.k
        excluded = {front.partition_id, target.partition_id}
        rho = self._candidates.group_dominance_excluding(target.kth_key, excluded, k)
        if rho >= k:
            # rho only grows as new candidates arrive, so skipping is final.
            self._amortized_skip_id = target.partition_id
            self._amortized_builder = None
            return None
        threshold = self._candidates.global_threshold_excluding(excluded, k)
        builder = AmortizedSAVLBuilder(
            target,
            num_stacks=max(1, k - rho),
            global_threshold=threshold,
            exclude_keys=set(target.topk_keys()),
        )
        self._amortized_builder = builder
        return builder

    def _amortized_covers(self, partition: Partition) -> bool:
        builder = self._amortized_builder
        if builder is not None and builder.partition is partition:
            return True
        return self._amortized_skip_id == partition.partition_id

    def _take_amortized(self, partition: Partition) -> MeaningfulSet:
        if self._amortized_skip_id == partition.partition_id:
            self._amortized_skip_id = None
            return EmptyMeaningfulSet()
        builder = self._amortized_builder
        assert builder is not None and builder.partition is partition
        self._amortized_builder = None
        return builder.finish()

    # ------------------------------------------------------------------
    # Promotion from M_0
    # ------------------------------------------------------------------
    def _replenish_front(self) -> None:
        if not self._partitions:
            return
        self._ensure_front_prepared()
        front = self._partitions[0]
        meaningful = self._front_meaningful
        if meaningful is None:
            return
        meaningful.advance(front.expired_prefix)
        k = self.query.k
        while self._front_candidate_live < k:
            obj = meaningful.pop_best(self._watermark)
            if obj is None:
                break
            if obj.rank_key in self._candidates:
                continue
            self._candidates.add(obj, front.partition_id)
            heapq.heappush(self._front_expiry, (obj.t, obj.rank_key))
            self._front_candidate_live += 1
            self.stats.promotions += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _current_result(self, event: SlideEvent) -> TopKResult:
        # The two sources are ascending runs — the candidate set's top k
        # and the pending top-k — and every pending object is newer than
        # every candidate (candidates come from sealed partitions).  The
        # answer floor drops the pending objects scoring below the k-th
        # candidate; a stable sort by score merges what is left.
        k = self.query.k
        best = self._candidates.top_objects(k)
        pending = self._pending_topk
        if pending and len(best) == k:
            floor = best[0].score
            low, high = 0, len(pending)
            while low < high:
                middle = (low + high) // 2
                if pending[middle].score < floor:
                    low = middle + 1
                else:
                    high = middle
            pending = pending[low:]
        if pending:
            best += pending
            best.sort(key=_score_of)
            del best[:-k]
        return TopKResult(
            slide_index=event.index,
            window_end=event.window_end,
            objects=tuple(reversed(best)),
        )

    # ------------------------------------------------------------------
    # Candidate view shared with the dynamic partitioner
    # ------------------------------------------------------------------
    def _top_candidate_scores(self, count: int) -> List[float]:
        return self._candidates.top_scores(count)


class SAPSharedPlan(CoreSharedPlan):
    """One SAP core (at ``k_max``) serving every member query.

    The core is the leading member's spawn — a fresh clone of its
    partitioner, its meaningful-set policy, and its S-AVL toggle, which
    the plan key makes equal across members — so the configuration each
    member asked for is the one that runs.
    """

    # Bound on the class itself so SAP plan preparation can be instrumented
    # apart from the other plans.
    prepare = CoreSharedPlan.prepare

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["partitioner"] = self._core.partitioner.name
        return info

    def seal_stats(self) -> Dict[str, object]:
        """Sealing behaviour and framework counters of the plan core."""
        return self._core.seal_stats()
