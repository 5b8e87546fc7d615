"""Preference clustering: cross-function plan sharing.

The shared multi-query plane (:mod:`repro.core.shared`) dedupes
subscriptions that differ only in ``k`` inside one window shape; this
module extends plan sharing across *scoring functions*.  Every member
declares a linear preference vector ``w`` over non-negative attribute
vectors carried in the stream payloads (``score_w(x) = w · x``, the
``F = price × volume`` shape of the paper's application scenarios).
Similar vectors are clustered (:class:`ClusterSpace`); one shared plan
per cluster (:class:`ClusterSharedPlan`) runs a single registry
algorithm at a padded result size ``k_pad`` over the cluster's
*dominating score bound*, and each member answers by vectorized
re-ranking of the shared candidate set.

Why this is exact
-----------------
Let ``U`` be the cluster's **upper envelope**: the elementwise maximum of
the member vectors.  For any member ``w`` (so ``w <= U`` elementwise) and
any attribute vector ``x >= 0``::

    score_w(x) = w · x  <=  U · x = score_U(x)

The shared core maintains the exact top-``k_pad`` of the window under
``score_U``.  Let ``tau_U`` be the ``k_pad``-th best ``U``-score.  Every
object *outside* the candidate set has ``score_w <= score_U <= tau_U``,
so whenever a member's ``k``-th best candidate ``w``-score is *strictly*
greater than ``tau_U`` (strict, so total-order ties on ``(score, t)``
cannot sneak an outside object in), the member's exact top-k is a subset
of the candidates — the **exactness guard**.  When the guard fails (or an
object with a negative attribute taints the window, or a member's vector
drifts above the envelope after :meth:`ClusteredTopK.update_vector`), the
member falls back to a vectorized full-window scan, which is exact by
construction; the fallback and drift counters are exported through the
metrics registry, so an operator can see when to re-cluster.

Byte-identity
-------------
All paths — shared re-ranking, the fallback scan, the private per-member
plan, and any independent engine fed a pre-scored stream — must produce
bit-identical float scores.  They all funnel through one canonical
scorer, :func:`linear_scores`: an elementwise product followed by a
*row-wise* reduction (``(m * w).sum(axis=1)``), whose pairwise summation
depends only on the vector dimension, never on the batch size.  Every
path ranks the scores with the one column ordering,
:func:`repro.core.columnar.rank_descending`.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..obs.registry import get_registry
from .columnar import rank_descending
from .exceptions import AlgorithmStateError, InvalidQueryError
from .interface import (
    OBJECT_FOOTPRINT_BYTES,
    POINTER_FOOTPRINT_BYTES,
    ContinuousTopKAlgorithm,
)
from .object import StreamObject
from .query import TopKQuery
from .result import TopKResult
from .shared import SharedPlan, SharedSlide
from .window import SlideEvent

__all__ = [
    "DEFAULT_PAD_FACTOR",
    "DEFAULT_SIMILARITY",
    "ClusterSpace",
    "ClusterSharedPlan",
    "ClusteredTopK",
    "attributes_of",
    "k_pad_for",
    "linear_score",
    "linear_scores",
    "upper_envelope",
    "validate_vector",
]

#: Default padding of the shared candidate set: ``k_pad ~ 4 * k_max``.
#: Larger pads make the exactness guard pass more often (fewer fallback
#: scans) at the cost of a bigger shared core; 4x keeps the guard hit
#: rate high for clusters of cosine-similar vectors while the core stays
#: O(k) sized.
DEFAULT_PAD_FACTOR = 4.0

#: The cosine-similarity threshold of :class:`ClusterSpace`: vectors
#: at least this similar to a cluster's centroid join that cluster.  The
#: threshold is deliberately tight: preference vectors are non-negative,
#: and in the positive orthant even unrelated tastes measure ~0.9 cosine
#: similarity, so a loose threshold would merge everything into one
#: cluster whose envelope is too wide for the exactness guard to hold
#: (every answer degrades to a fallback scan).  0.995 admits small
#: per-user perturbations of a shared taste (~±10% per weight) while
#: keeping distinct tastes in separate clusters.
DEFAULT_SIMILARITY = 0.995

#: Score of an object whose payload carries no usable attribute vector.
#: Used identically by every scoring path so such objects can never
#: break byte-identity (they sort last, oldest last).
UNATTRIBUTED_SCORE = float("-inf")


# ----------------------------------------------------------------------
# Preference vectors and attribute extraction
# ----------------------------------------------------------------------
def validate_vector(vector: Sequence[float]) -> Tuple[float, ...]:
    """Normalise a preference vector to a tuple of floats, or raise.

    Weights must be finite and non-negative (the dominance bound
    ``w <= U  =>  score_w <= score_U`` needs ``x >= 0`` *and* ``w >= 0``
    for the envelope maths to stay one-sided), and at least one weight
    must be positive (an all-zero vector scores everything 0.0 and has
    no direction to cluster by).
    """
    try:
        values = tuple(float(value) for value in vector)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(f"preference vector is not numeric: {exc}") from None
    if not values:
        raise InvalidQueryError("preference vector must not be empty")
    for value in values:
        if math.isnan(value) or math.isinf(value):
            raise InvalidQueryError(
                f"preference weights must be finite, got {value!r}"
            )
        if value < 0:
            raise InvalidQueryError(
                f"preference weights must be non-negative, got {value!r} "
                "(the cluster dominance bound requires w >= 0)"
            )
    if not any(values):
        raise InvalidQueryError("preference vector must have a positive weight")
    return values


def attributes_of(obj: StreamObject, dim: int) -> Optional[Tuple[float, ...]]:
    """The attribute vector of one stream object's payload, or ``None``.

    Recognised payload shapes, checked in order:

    * a mapping with an ``"attributes"`` (or ``"attrs"``) entry holding a
      numeric sequence of length ``dim``;
    * an object with an ``attributes`` attribute of that shape;
    * a bare numeric sequence of length ``dim``.

    Anything else — including a right-shaped sequence with a non-numeric
    or non-finite entry — yields ``None``, and every scoring path prices
    the object at :data:`UNATTRIBUTED_SCORE` (counted per cluster).
    """
    return attributes_of_payload(obj.payload, dim)


def attributes_of_payload(payload: object, dim: int) -> Optional[Tuple[float, ...]]:
    """:func:`attributes_of` over a raw record instead of a StreamObject
    (the shape used by stream sources scoring records before wrapping)."""
    if payload is None:
        return None
    candidate = None
    if isinstance(payload, dict):
        candidate = payload.get("attributes", payload.get("attrs"))
    else:
        candidate = getattr(payload, "attributes", None)
        if candidate is None and not isinstance(payload, (str, bytes)):
            candidate = payload
    if candidate is None:
        return None
    try:
        values = tuple(float(value) for value in candidate)
    except (TypeError, ValueError):
        return None
    if len(values) != dim or not all(map(math.isfinite, values)):
        return None
    return values


def linear_scores(
    weights: Sequence[float], rows: Sequence[Optional[Sequence[float]]]
) -> List[float]:
    """Canonical batch scorer: ``w · x`` per row, ``None`` rows -> -inf.

    This is the *only* routine that turns attributes into scores — the
    shared re-ranking path, the fallback scan, the private plan, and the
    independent baselines of the property tests all call it, so their
    floats are bit-identical (see the module docstring on why the numpy
    reduction is batch-size independent).
    """
    present = [row for row in rows if row is not None]
    if not present:
        return [UNATTRIBUTED_SCORE] * len(rows)
    matrix = _np.ascontiguousarray(present, dtype=_np.float64)
    w = _np.asarray(weights, dtype=_np.float64)
    scored = iter((matrix * w).sum(axis=1).tolist())
    return [UNATTRIBUTED_SCORE if row is None else next(scored) for row in rows]


def linear_score(
    weights: Sequence[float], attributes: Optional[Sequence[float]]
) -> float:
    """Canonical single-object score (== ``linear_scores(w, [x])[0]``)."""
    return linear_scores(weights, [attributes])[0]


def upper_envelope(vectors: Sequence[Sequence[float]]) -> Tuple[float, ...]:
    """Elementwise maximum of same-dimension vectors (the cluster bound)."""
    if not vectors:
        raise ValueError("an envelope needs at least one vector")
    dims = {len(vector) for vector in vectors}
    if len(dims) != 1:
        raise InvalidQueryError(
            f"cluster members disagree on attribute dimension: {sorted(dims)}"
        )
    return tuple(max(column) for column in zip(*vectors))


def dominated_by(vector: Sequence[float], envelope: Sequence[float]) -> bool:
    """Whether ``vector <= envelope`` elementwise (the in-guard test)."""
    return len(vector) == len(envelope) and all(
        v <= u for v, u in zip(vector, envelope)
    )


def k_pad_for(k_max: int, n: int, pad_factor: float = DEFAULT_PAD_FACTOR) -> int:
    """Padded shared result size: ``min(n, max(k_max + 1, ceil(k_max * f)))``.

    At least ``k_max + 1`` so the guard can ever be strict, at most the
    window size (a core at ``k = n`` is just the sorted window).
    """
    if pad_factor < 1.0:
        raise InvalidQueryError(f"pad_factor must be >= 1, got {pad_factor}")
    return min(n, max(k_max + 1, int(math.ceil(k_max * pad_factor))))


# ----------------------------------------------------------------------
# Cluster assignment (greedy online centroid fit)
# ----------------------------------------------------------------------
class ClusterSpace:
    """Greedy online clustering of preference vectors by cosine similarity.

    ``assign`` matches a vector against the existing cluster centroids of
    its dimension: the first (lowest-id) centroid at least
    :data:`DEFAULT_SIMILARITY` cosine-similar wins and absorbs the vector
    into its running mean; otherwise a fresh cluster is opened.
    Assignment is deterministic in arrival order, which is what lets the
    sharded facade and a local engine agree on ids without talking to
    each other: whoever owns the space assigns, and the id travels with
    the subscription.  :meth:`snapshot` / :meth:`load` carry the space
    across a restart, so a recovered owner keeps assigning the ids its
    uncrashed twin would.
    """

    def __init__(self) -> None:
        # id -> (weight sums, member count); centroid = sums / count.
        self._centroids: Dict[int, Tuple[List[float], int]] = {}
        self._next_id = 0

    def snapshot(self) -> Dict[str, object]:
        """The whole space as JSON-representable data (see :meth:`load`)."""
        return {
            "next_id": self._next_id,
            "centroids": [
                [cluster_id, list(sums), count]
                for cluster_id, (sums, count) in sorted(self._centroids.items())
            ],
        }

    def load(self, snapshot: Dict[str, object]) -> None:
        """Replace this space's contents with a :meth:`snapshot`."""
        self._next_id = int(snapshot["next_id"])
        self._centroids = {
            int(cluster_id): ([float(value) for value in sums], int(count))
            for cluster_id, sums, count in snapshot["centroids"]
        }

    def __len__(self) -> int:
        return len(self._centroids)

    @staticmethod
    def _cosine(left: Sequence[float], right: Sequence[float]) -> float:
        left = _np.asarray(left, dtype=_np.float64)
        right = _np.asarray(right, dtype=_np.float64)
        norms = math.sqrt(float(left @ left) * float(right @ right))
        return float(left @ right) / norms if norms > 0 else 0.0

    def assign(self, vector: Sequence[float]) -> int:
        """The cluster id for ``vector`` (existing when similar, else new)."""
        vector = validate_vector(vector)
        for cluster_id in sorted(self._centroids):
            sums, count = self._centroids[cluster_id]
            if len(sums) != len(vector):
                continue
            centroid = [value / count for value in sums]
            if self._cosine(vector, centroid) >= DEFAULT_SIMILARITY:
                self._centroids[cluster_id] = (
                    [a + b for a, b in zip(sums, vector)],
                    count + 1,
                )
                return cluster_id
        cluster_id = self._next_id
        self._next_id += 1
        self._centroids[cluster_id] = (list(vector), 1)
        return cluster_id

    def centroid(self, cluster_id: int) -> Tuple[float, ...]:
        sums, count = self._centroids[cluster_id]
        return tuple(value / count for value in sums)

    def describe(self) -> Dict[int, Dict[str, object]]:
        return {
            cluster_id: {"members": count, "centroid": self.centroid(cluster_id)}
            for cluster_id, (_, count) in sorted(self._centroids.items())
        }


# ----------------------------------------------------------------------
# The shared plan: one envelope core at k_pad, per-member re-ranking
# ----------------------------------------------------------------------
class _WindowEntry:
    """One live window object with its extracted attributes.

    ``u_scored`` is the object as the shared core saw it (envelope score,
    same ``t``): expirations must replay exactly the arrivals the core
    consumed, or its candidate bookkeeping desyncs.
    """

    __slots__ = ("obj", "attributes", "negative", "u_scored")

    def __init__(self, obj: StreamObject, attributes: Optional[Tuple[float, ...]]):
        self.obj = obj
        self.attributes = attributes
        self.negative = attributes is not None and any(a < 0 for a in attributes)
        self.u_scored: Optional[StreamObject] = None


class _PreparedSlide:
    """Per-slide shared state consumed by the member answers of one
    :meth:`ClusterSharedPlan.prepare`."""

    __slots__ = ("event", "candidates", "tau_u", "saturated", "tainted", "batch", "scan", "scanned")

    def __init__(self, event, candidates, tau_u, saturated, tainted):
        self.event = event
        #: The shared core's top-k_pad window entries, best-first by U-score.
        self.candidates: List[_WindowEntry] = candidates
        #: U-score of the k_pad-th candidate (the guard threshold).
        self.tau_u: float = tau_u
        #: Whether the candidate set is full (|C| == k_pad): only then can
        #: an object exist outside it.
        self.saturated: bool = saturated
        #: Whether the live window holds any negative attribute (dominance
        #: bound invalid -> every member must scan).
        self.tainted: bool = tainted
        #: Every member's candidate scores, made by the first re-rank.
        self.batch: Optional[_SlideBatch] = None
        #: ``(entries, ts, matrix, missing)`` of the window, made by the
        #: first scan, and each scanned vector's window scores.
        self.scan: Optional[tuple] = None
        self.scanned: Dict[Tuple[float, ...], List[float]] = {}


class _SlideBatch:
    """One slide's vectorized member scores: ``scores[row_of[w]]`` holds
    ``w``'s candidate scores, ``order[row_of[w]]`` the full descending
    ``(score, t)`` rank (see :meth:`ClusterSharedPlan._batch_for`)."""

    __slots__ = ("scores", "order", "row_of")

    def __init__(self, scores, order, row_of):
        self.scores = scores
        self.order = order
        self.row_of: Dict[Tuple[float, ...], int] = row_of


class ClusterSharedPlan(SharedPlan):
    """One shared execution plan for a cluster of preference queries.

    The plan re-scores every arrival under the cluster's upper envelope
    ``U``, drives one registry algorithm (the *inner core*, e.g. SAP or
    MinTopK) at ``k_pad`` over the ``U``-scored stream, and answers every
    member from the resulting candidate set inside :meth:`prepare` — a
    vectorized ``w``-re-rank guarded by the dominance bound, with an exact
    full-window scan as the fallback — so each member's latency is its
    share of the prepare.
    """

    kind = "cluster"
    #: Members differ in their preference vectors: each carries its own.
    shares_configuration = False

    def __init__(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> None:
        super().__init__(subscriptions, k_max)
        algorithms = [sub.algorithm for sub in self._subs]
        first = algorithms[0]
        for algorithm in algorithms:
            if not isinstance(algorithm, ClusteredTopK):
                raise AlgorithmStateError(
                    "cluster plans only host ClusteredTopK members"
                )
        self.cluster_id = first.cluster_id
        self.inner_name = first.inner_name
        self.envelope = upper_envelope([a.vector for a in algorithms])
        self.dim = len(self.envelope)
        query = first.query
        self.k_pad = k_pad_for(
            self.k_max, query.n, max(a.pad_factor for a in algorithms)
        )
        from ..registry import create_algorithm  # lazy: avoids import cycle

        self._core = create_algorithm(
            self.inner_name,
            TopKQuery(
                n=query.n, k=self.k_pad, s=query.s, time_based=query.time_based
            ),
            **first.inner_options,
        )
        #: Live window entries, oldest first (expiry pops from the left —
        #: sliding windows expire in exactly arrival order).
        self._window: Deque[_WindowEntry] = deque()
        self._by_t: Dict[int, _WindowEntry] = {}
        self._negatives = 0
        registry = get_registry()
        labels = {"cluster": str(self.cluster_id), "inner": self.inner_name}
        self._obs_rerank = registry.counter(
            "repro_cluster_rerank_total",
            "Member answers served by re-ranking the shared candidate set.",
            labels,
        )
        self._obs_fallback = registry.counter(
            "repro_cluster_fallback_total",
            "Member answers that fell back to an exact full-window scan.",
            labels,
        )
        self._obs_unattributed = registry.counter(
            "repro_cluster_unattributed_total",
            "Window objects whose payloads carried no usable attributes.",
            labels,
        )
        self._obs_members = registry.gauge(
            "repro_cluster_members",
            "Open member subscriptions of this cluster plan.",
            labels,
        )
        self.rerank_count = 0
        self.fallback_count = 0
        for algorithm in algorithms:
            algorithm.join_shared_plan(self)

    # ------------------------------------------------------------------
    def candidate_count(self) -> int:
        return self._core.candidate_count() + len(self._window)

    def member_memory_bytes(self) -> int:
        per_entry = OBJECT_FOOTPRINT_BYTES + self.dim * POINTER_FOOTPRINT_BYTES // 2
        total = self._core.memory_bytes() + len(self._window) * per_entry
        return total // max(1, len(self._subs))

    def describe(self) -> Dict[str, object]:
        record = super().describe()
        record.update(
            {
                "cluster_id": self.cluster_id,
                "inner": self.inner_name,
                "k_pad": self.k_pad,
                "dim": self.dim,
                "reranks": self.rerank_count,
                "fallbacks": self.fallback_count,
            }
        )
        return record

    # ------------------------------------------------------------------
    def _ingest(
        self, event: SlideEvent
    ) -> Tuple[Tuple[StreamObject, ...], Tuple[StreamObject, ...]]:
        """Maintain the raw window mirror; return the U-scored
        ``(arrivals, expirations)`` of the envelope event."""
        entries = []
        for obj in event.arrivals:
            entry = _WindowEntry(obj, attributes_of(obj, self.dim))
            if entry.attributes is None:
                self._obs_unattributed.inc()
            if entry.negative:
                self._negatives += 1
            self._window.append(entry)
            self._by_t[obj.t] = entry
            entries.append(entry)
        scores = linear_scores(
            self.envelope, [entry.attributes for entry in entries]
        )
        for entry, score in zip(entries, scores):
            entry.u_scored = StreamObject(
                score=score,
                t=entry.obj.t,
                payload=entry.obj.payload,
                timestamp=entry.obj.timestamp,
            )
        expired_scored = []
        for expired in event.expirations:
            entry = self._window.popleft()
            if entry.obj.t != expired.t:  # pragma: no cover - invariant
                raise AlgorithmStateError(
                    "cluster plan window desynced from the group batcher: "
                    f"expired t={expired.t}, mirror head t={entry.obj.t}"
                )
            if self._by_t.get(entry.obj.t) is entry:
                del self._by_t[entry.obj.t]
            if entry.negative:
                self._negatives -= 1
            expired_scored.append(entry.u_scored)
        return (
            tuple(entry.u_scored for entry in entries),
            tuple(expired_scored),
        )

    def prepare(self, event: SlideEvent) -> SharedSlide:
        started = time.perf_counter()
        scored_arrivals, scored_expirations = self._ingest(event)
        envelope_event = SlideEvent(
            index=event.index,
            arrivals=scored_arrivals,
            expirations=scored_expirations,
            window_end=event.window_end,
        )
        result = self._core.process_slide(envelope_event)
        candidates = [self._by_t[obj.t] for obj in result.objects]
        saturated = len(candidates) >= self.k_pad
        prepared = _PreparedSlide(
            event=event,
            candidates=candidates,
            tau_u=result.objects[-1].score if saturated else UNATTRIBUTED_SCORE,
            saturated=saturated,
            tainted=self._negatives > 0,
        )
        answers = {sub: self._answer(sub.algorithm, prepared) for sub in self._subs}
        members = len(self._subs)
        self._obs_members.set(members)
        prep = time.perf_counter() - started
        return SharedSlide(
            event=event,
            window_topk=result.objects,
            prep_share=prep / members,
            candidates=self.candidate_count(),
            memory_bytes=self.member_memory_bytes(),
            answers=answers,
        )

    def answer_key(self, subscription: object) -> object:
        # Each member re-ranks under its own vector: one answer per member.
        return subscription

    # ------------------------------------------------------------------
    def _attribute_matrix(self, entries: Sequence[_WindowEntry]):
        """``(matrix, missing)``: the entries' attribute rows as a
        ``len(entries) x dim`` float64 matrix (zeros for unattributed
        rows) and the positions of the unattributed rows."""
        rows = [entry.attributes for entry in entries]
        missing = [i for i, row in enumerate(rows) if row is None]
        zeros = (0.0,) * self.dim
        matrix = _np.array(
            [zeros if row is None else row for row in rows], dtype=_np.float64
        ).reshape(len(rows), self.dim)
        return matrix, missing

    def _batch_for(self, prepared: _PreparedSlide) -> "_SlideBatch":
        """All members' candidate scores and ranks, computed in one pass.

        Built on the slide's first re-ranked member answer: one elementwise
        product + row reduction scores every distinct member vector
        against every candidate, and one 2-D :func:`rank_descending`
        ranks all of them — two numpy calls per slide regardless of
        member count.  The reduction runs along the attribute axis
        exactly like the canonical scorer's ``(m * w).sum(axis=1)``, so
        the floats stay bit-identical to a per-member scoring pass.
        """
        if prepared.batch is not None:
            return prepared.batch
        row_of: Dict[Tuple[float, ...], int] = {}
        for sub in self._subs:
            algorithm = sub.algorithm
            if algorithm.drifted or algorithm.vector in row_of:
                continue
            row_of[algorithm.vector] = len(row_of)
        weights = _np.array(list(row_of), dtype=_np.float64).reshape(len(row_of), self.dim)
        matrix, missing = self._attribute_matrix(prepared.candidates)
        scores = (weights[:, None, :] * matrix[None, :, :]).sum(axis=2)
        if missing:
            scores[:, missing] = UNATTRIBUTED_SCORE
        ts = [entry.obj.t for entry in prepared.candidates]
        prepared.batch = _SlideBatch(scores, rank_descending(scores, ts), row_of)
        return prepared.batch

    def _answer(self, member: "ClusteredTopK", prepared: _PreparedSlide) -> TopKResult:
        """One member's exact answer for the slide being prepared."""
        event = prepared.event
        k = member.query.k
        if not member.drifted and not prepared.tainted:
            # Every undrifted member has a row: the plan builds the batch
            # from its members during the prepare.
            batch = self._batch_for(prepared)
            row = batch.row_of[member.vector]
            scores = batch.scores[row]
            order = batch.order[row]
            exact = not prepared.saturated or (
                order.shape[0] >= k and scores[order[k - 1]] > prepared.tau_u
            )
            if exact:
                self.rerank_count += 1
                self._obs_rerank.inc()
                return _result_from(
                    event, k, prepared.candidates, scores.tolist(), order[:k].tolist()
                )
        self.fallback_count += 1
        self._obs_fallback.inc()
        return self._scan(member, prepared, k)

    def _scan(
        self, member: "ClusteredTopK", prepared: _PreparedSlide, k: int
    ) -> TopKResult:
        """Exact vectorized full-window scan (guard failed / tainted /
        drifted).  The window's attribute matrix is materialised once per
        slide and shared by every scanning member (the slide's dominant
        cost is otherwise rebuilding it per member), and per-slide scores
        are cached per vector so members sharing one drifted vector pay
        the scoring once."""
        if prepared.scan is None:
            entries = list(self._window)
            ts = [entry.obj.t for entry in entries]
            prepared.scan = (entries, ts) + self._attribute_matrix(entries)
        entries, ts, matrix, missing = prepared.scan
        scores = prepared.scanned.get(member.vector)
        if scores is None:
            # Same elementwise-product row reduction as the canonical
            # scorer (bit-identical floats), over the shared matrix.
            scored = (matrix * _np.asarray(member.vector, dtype=_np.float64)).sum(axis=1)
            if missing:
                scored[missing] = UNATTRIBUTED_SCORE
            scores = prepared.scanned[member.vector] = scored.tolist()
        order = rank_descending(scores, ts)[:k].tolist()
        return _result_from(prepared.event, k, entries, scores, order)

    def member_vector_changed(
        self, member: "ClusteredTopK", vector: Tuple[float, ...]
    ) -> bool:
        """Whether ``vector`` still sits under the plan's envelope.

        The envelope is *not* recomputed on drift: widening it would
        invalidate the running core's scores.  A drifted member keeps its
        membership but answers by exact scan until re-clustered."""
        return dominated_by(vector, self.envelope)


def _result_from(
    event: SlideEvent,
    k: int,
    entries: Sequence[_WindowEntry],
    scores: List[float],
    order: Sequence[int],
) -> TopKResult:
    objects = tuple(
        StreamObject(
            score=scores[i],
            t=entries[i].obj.t,
            payload=entries[i].obj.payload,
            timestamp=entries[i].obj.timestamp,
        )
        for i in order[:k]
    )
    return TopKResult(
        slide_index=event.index, window_end=event.window_end, objects=objects
    )


# ----------------------------------------------------------------------
# The member algorithm
# ----------------------------------------------------------------------
class ClusteredTopK(ContinuousTopKAlgorithm):
    """Continuous top-k under a declared linear preference vector.

    The algorithm has two execution modes:

    * **shared** — when at least two co-windowed subscriptions carry the
      same ``(inner, cluster id)`` plan key, the query group forms one
      :class:`ClusterSharedPlan`, which answers this member by
      re-ranking the plan's padded candidate set (exactness-guarded,
      scan fallback) while the instance itself stays idle;
    * **private** — alone in its bucket (or moved alone to another
      engine by ``restore_subscription``), the member is a plan of one
      over this instance, which runs its own inner registry algorithm
      over the stream re-scored with its *own* vector: the per-user
      exact plan that the shared mode is benchmarked against.

    Either way the answers are byte-identical to an independent engine
    fed ``StreamObject(score=w·attributes(payload), t)`` — the property
    tests assert exactly that.
    """

    name = "clustered"

    def __init__(
        self,
        query: TopKQuery,
        *,
        vector: Sequence[float],
        cluster_id: int = 0,
        inner: str = "SAP",
        pad_factor: float = DEFAULT_PAD_FACTOR,
        **inner_options: object,
    ) -> None:
        super().__init__(query)
        self.vector = validate_vector(vector)
        self.cluster_id = int(cluster_id)
        self.inner_name = str(inner)
        self.pad_factor = float(pad_factor)
        if not 1.0 <= self.pad_factor < math.inf:
            raise InvalidQueryError(
                f"pad_factor must be finite and >= 1, got {self.pad_factor}"
            )
        self.inner_options = dict(inner_options)
        from ..registry import create_algorithm  # lazy: import cycle

        # The inner core builds lazily, and a shared member never builds
        # one: build it once here and discard it, so an inner configuration
        # that the inner algorithm refuses fails now, not at the first slide.
        create_algorithm(self.inner_name, query, **self.inner_options).close()
        self.drifted = False
        self._plan: Optional[ClusterSharedPlan] = None
        self._inner: Optional[ContinuousTopKAlgorithm] = None
        self._window: Deque[StreamObject] = deque()
        self._pending_fast_forward: Optional[int] = None
        self._slides = 0
        self._last_index: Optional[int] = None

    # ------------------------------------------------------------------
    # Plan membership
    # ------------------------------------------------------------------
    def shared_plan_key(self):
        return ("cluster", self.inner_name, self.cluster_id)

    def build_shared_plan(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> ClusterSharedPlan:
        return ClusterSharedPlan(subscriptions, k_max)

    def join_shared_plan(self, plan: ClusterSharedPlan) -> None:
        self._plan = plan
        if not dominated_by(self.vector, plan.envelope):  # pragma: no cover
            # The envelope is the max over the members, so a founding
            # member is always dominated; only a buggy custom plan trips
            # this.
            self.drifted = True

    @property
    def mode(self) -> str:
        if self._plan is not None:
            return "drifted" if self.drifted else "shared"
        return "private"

    def cluster_info(self) -> Dict[str, object]:
        """The serve-visible cluster record of this member."""
        record: Dict[str, object] = {
            "cluster_id": self.cluster_id,
            "mode": self.mode,
            "inner": self.inner_name,
            "dim": len(self.vector),
            "drifted": self.drifted,
        }
        if self._plan is not None:
            record["k_pad"] = self._plan.k_pad
            record["reranks"] = self._plan.rerank_count
            record["fallbacks"] = self._plan.fallback_count
        return record

    # ------------------------------------------------------------------
    # Private (per-user exact) path
    # ------------------------------------------------------------------
    def _ensure_inner(self) -> ContinuousTopKAlgorithm:
        if self._inner is None:
            from ..registry import create_algorithm  # lazy: import cycle

            self._inner = create_algorithm(
                self.inner_name, self.query, **self.inner_options
            )
            if self._pending_fast_forward is not None:
                self._inner.fast_forward(self._pending_fast_forward)
        return self._inner

    def _rescore(self, objects: Sequence[StreamObject]) -> List[StreamObject]:
        rows = [attributes_of(obj, len(self.vector)) for obj in objects]
        scores = linear_scores(self.vector, rows)
        return [
            StreamObject(
                score=score, t=obj.t, payload=obj.payload, timestamp=obj.timestamp
            )
            for obj, score in zip(objects, scores)
        ]

    def _rescored_event(self, event: SlideEvent) -> SlideEvent:
        arrivals = self._rescore(event.arrivals)
        self._window.extend(arrivals)
        expirations = []
        for expired in event.expirations:
            mine = self._window.popleft()
            if mine.t != expired.t:  # pragma: no cover - invariant
                raise AlgorithmStateError(
                    "private cluster window desynced from the group batcher"
                )
            expirations.append(mine)
        return SlideEvent(
            index=event.index,
            arrivals=tuple(arrivals),
            expirations=tuple(expirations),
            window_end=event.window_end,
        )

    def process_slide(self, event: SlideEvent) -> TopKResult:
        self._slides += 1
        self._last_index = event.index
        return self._ensure_inner().process_slide(self._rescored_event(event))

    # ------------------------------------------------------------------
    # Vector updates (drift)
    # ------------------------------------------------------------------
    def update_vector(self, vector: Sequence[float]) -> Dict[str, object]:
        """Re-declare the preference vector mid-stream.

        Shared members whose new vector still sits under the plan's
        envelope keep re-ranking (the guard stays sound); vectors outside
        the envelope mark the member *drifted* — every subsequent answer
        is an exact full-window scan, and the drift counter says it is
        time to re-cluster.  Private members rebuild their inner algorithm
        over the re-scored live window, which keeps the answer stream
        exact without touching the query group.
        """
        vector = validate_vector(vector)
        if len(vector) != len(self.vector):
            raise InvalidQueryError(
                f"preference dimension changed from {len(self.vector)} to "
                f"{len(vector)}; resubscribe instead"
            )
        if vector == self.vector:
            return self.cluster_info()
        self.vector = vector
        if self._plan is not None:
            was_drifted = self.drifted
            self.drifted = not self._plan.member_vector_changed(self, vector)
            if self.drifted and not was_drifted:
                get_registry().counter(
                    "repro_cluster_drift_total",
                    "Members whose updated vector left the cluster envelope.",
                    {"cluster": str(self.cluster_id), "inner": self.inner_name},
                ).inc()
        elif self._slides:
            self._rebuild_private()
        return self.cluster_info()

    def _rebuild_private(self) -> None:
        """Drain-and-replay the private inner over the re-scored window."""
        from .state import replay_event  # lazy: state imports interface

        raw = [
            StreamObject(
                score=0.0, t=obj.t, payload=obj.payload, timestamp=obj.timestamp
            )
            for obj in self._window
        ]
        self._window.clear()
        if self._inner is not None:
            self._inner.close()
        self._inner = None
        self._pending_fast_forward = self._last_index
        inner = self._ensure_inner()
        if raw and self._last_index is not None:
            rescored = self._rescore(raw)
            self._window.extend(rescored)
            inner.process_slide(
                replay_event(tuple(rescored), self._last_index)
            )

    # ------------------------------------------------------------------
    # Lifecycle / bookkeeping
    # ------------------------------------------------------------------
    def spawn(self, query: TopKQuery) -> "ClusteredTopK":
        return ClusteredTopK(
            query,
            vector=self.vector,
            cluster_id=self.cluster_id,
            inner=self.inner_name,
            pad_factor=self.pad_factor,
            **self.inner_options,
        )

    def fast_forward(self, slide_index: int) -> None:
        self._pending_fast_forward = slide_index
        self._last_index = slide_index
        if self._inner is not None:
            self._inner.fast_forward(slide_index)

    def candidate_count(self) -> int:
        if self._inner is not None:
            return self._inner.candidate_count()
        return 0

    def memory_bytes(self) -> int:
        if self._inner is not None:
            return self._inner.memory_bytes() + len(self._window) * (
                OBJECT_FOOTPRINT_BYTES + len(self.vector) * POINTER_FOOTPRINT_BYTES // 2
            )
        return 0

    def snapshot(self) -> Dict[str, object]:
        record = super().snapshot()
        record["cluster"] = self.cluster_info()
        return record

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
