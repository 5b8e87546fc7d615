"""The engine core: subscription/group bookkeeping and local execution.

:class:`EngineCore` is the part of the push-based engine that every
execution plane shares: it owns the subscription registry, places
subscriptions into :class:`~repro.engine.group.QueryGroup` objects, moves
stream objects through the groups, and captures / restores query groups
as :class:`~repro.core.state.GroupState` records.

Every subscription is placed by one rule, in ``EngineCore._place``: it
joins the query group that has its window shape and its window position,
or opens one.  :meth:`~EngineCore.subscribe` places a fresh subscription
("not started"); :meth:`~EngineCore.restore_groups` places the members of
each captured record at the record's slide index and window.

Three planes build on the core rather than forking it:

* :class:`repro.engine.StreamEngine` — the single-process facade; it adds
  the adaptive control plane integration (controller attachment, the
  load-shedding valve, slide-aligned chunking) by overriding the small
  hook methods at the bottom of this class.
* the shard workers of :mod:`repro.cluster` — each worker process hosts a
  full :class:`StreamEngine`, and the sharded facade moves subscriptions
  between workers with :meth:`capture_groups` / :meth:`restore_groups`,
  so a moved group joins the target's group at the same position;
* the durability plane (:mod:`repro.durability`) — it checkpoints whole
  query groups with :meth:`capture_groups`, journals every restored
  record, and recovers both through :meth:`restore_groups`.

Every ingest call — :meth:`~EngineCore.push`, :meth:`~EngineCore.push_many`
and :meth:`~EngineCore.push_block` — hands its chunks to one edge,
``EngineCore._ingest``: it validates arrival order, journals, counts, moves
the chunk through every query group and notifies the hooks, in that order.

The group hooks (``_register_group``, ``_unregister_group``) keep the
group list; the ingest hooks (``_admission_filter``, ``_chunk_size_for``,
``_note_chunk``) default to no-ops, so the core alone is a fully
functional, control-plane-free engine.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.exceptions import AlgorithmStateError
from ..core.interface import ContinuousTopKAlgorithm
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.state import (
    STATE_FORMAT_VERSION,
    GroupState,
    SubscriptionState,
    capture_subscription,
    check_version,
    loads,
)
from ..core.window import check_order
from ..obs.registry import get_registry
from ..registry import create_algorithm
from .group import QueryGroup, group_key_for
from .spec import QuerySpec, resolve_query
from .subscription import ResultCallback, Subscription

#: What ``subscribe`` accepts as the algorithm: a registry name, a ready
#: instance, or any factory/class called as ``factory(query, **options)``.
AlgorithmLike = Union[str, ContinuousTopKAlgorithm, Callable[..., ContinuousTopKAlgorithm]]

#: Default chunk size of ``push_many``: objects are drained from the input
#: iterable in chunks of this many and moved through each query group with
#: one call, instead of one full dispatch per object per subscription.
PUSH_MANY_CHUNK = 256


class EngineCore:
    """Shared, push-based execution of any number of continuous queries."""

    def __init__(self, *, keep_results: bool = True, return_results: bool = True) -> None:
        """``keep_results`` is the default retention policy of new
        subscriptions; ``return_results=False`` additionally makes
        :meth:`push` / :meth:`flush` return empty mappings without
        building them, for hot loops that only consume callbacks."""
        self._subscriptions: Dict[str, Subscription] = {}
        self._groups: List[QueryGroup] = []
        self._default_keep_results = keep_results
        self._return_results = return_results
        self._cluster_space = None
        self._closed = False
        self._durability = None
        #: ``t`` of the newest admitted object; a chunk starting below it
        #: is rejected whole at the ingest edge.
        self._last_t = float("-inf")
        self._obs_ingested = get_registry().counter(
            "repro_events_ingested_total",
            "Stream objects admitted into this engine's windows.",
        )

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        name: str,
        spec: Union[QuerySpec, TopKQuery, None] = None,
        algorithm: AlgorithmLike = "SAP",
        *,
        keep_results: Optional[bool] = None,
        result_buffer: Optional[int] = None,
        collect_metrics: bool = True,
        on_result: Optional[ResultCallback] = None,
        **algorithm_options: object,
    ) -> Subscription:
        """Register a continuous query and return its subscription handle.

        Parameters
        ----------
        name:
            Unique identifier of the query on this engine.
        spec:
            The query, as a :class:`QuerySpec` builder or a ready
            :class:`TopKQuery`.  May be omitted when ``algorithm`` is an
            instance (the instance already knows its query).
        algorithm:
            A name from :mod:`repro.registry` (default ``"SAP"``), an
            algorithm instance, or a factory called as
            ``factory(query, **algorithm_options)``.
        keep_results / result_buffer:
            Retention policy for answers: ``keep_results=False`` retains
            nothing (callbacks still fire), ``result_buffer=b`` keeps only
            the ``b`` most recent answers.  The default retains everything,
            matching the legacy one-shot API.
        collect_metrics:
            Record candidate counts, memory, and per-slide latency.
        on_result:
            Optional callback invoked as ``callback(name, result)`` for
            every answer.

        The subscription joins the query group of its window shape that
        has not consumed the stream yet (its window starts empty), or
        opens one; queries subscribed between the same two pushes share
        state.

        A :class:`QuerySpec` that carries execution choices (``using``,
        ``preferring``) is the whole declaration: the ``algorithm``
        parameter must then stay at its default and the spec's plan wins
        (preference vectors route through the clustered sharing plane,
        see :mod:`repro.core.clustering`).
        """
        self._ensure_open()
        if name in self._subscriptions:
            raise ValueError(f"query {name!r} is already subscribed")
        if isinstance(spec, QuerySpec) and spec.carries_execution():
            if algorithm != "SAP" or algorithm_options:
                raise ValueError(
                    "the spec already declares its execution (using/"
                    "preferring); drop the algorithm/options arguments"
                )
            algorithm, algorithm_options = spec.execution_plan()
            if (
                algorithm == "clustered"
                and "cluster_id" not in algorithm_options
            ):
                algorithm_options["cluster_id"] = int(
                    self.cluster_space().assign(algorithm_options["vector"])
                )

        instance = self._resolve_algorithm(spec, algorithm, algorithm_options)
        subscription = Subscription(
            name,
            instance,
            keep_results=self._default_keep_results if keep_results is None else keep_results,
            result_buffer=result_buffer,
            collect_metrics=collect_metrics,
        )
        if on_result is not None:
            subscription.on_result(on_result)
        self._place([subscription])
        self._subscriptions[name] = subscription
        if self._durability is not None:
            self._log_subscribe_op(name, instance, algorithm, algorithm_options,
                                   subscription)
        return subscription

    def _log_subscribe_op(
        self, name, instance, algorithm, options, subscription
    ) -> None:
        """WAL the subscription so recovery can replay its creation.

        Registry-named algorithms log a compact ``subscribe`` op; ready
        instances/factories fall back to a ``restore`` op of the fresh
        member's :class:`GroupState` (checkpoint-only durability when even
        that is unpicklable, e.g. closure-scored queries)."""
        if isinstance(algorithm, str):
            self._durability.log_op((
                "subscribe",
                name,
                instance.query,
                algorithm,
                dict(options),
                subscription._keep_results,
                subscription._results.maxlen,
                subscription._collect_metrics,
            ))
        else:
            self._durability.log_op(("restore", self.capture_subscription(name)))

    def update_preference(self, name: str, vector: Iterable[float]) -> Dict[str, object]:
        """Re-declare one preference subscription's vector mid-stream.

        Returns the member's cluster record (id, mode, counters).  A
        vector that drifts outside its cluster's envelope flips the member
        to exact per-slide fallback and bumps the MAPE-K-visible drift
        counter; it never changes the answers' exactness.
        """
        subscription = self.subscription(name)
        update = getattr(subscription.algorithm, "update_vector", None)
        if update is None:
            raise AlgorithmStateError(
                f"subscription {name!r} has no preference vector; declare one "
                "with subscribe(name, QuerySpec(...).preferring(vector))"
            )
        vector = tuple(vector)
        record = update(vector)
        if self._durability is not None:
            self._durability.log_op(("update_preference", name, vector))
        return record

    def cluster_space(self):
        """The engine's preference-cluster assignment state (lazy)."""
        if self._cluster_space is None:
            from ..core.clustering import ClusterSpace

            self._cluster_space = ClusterSpace()
        return self._cluster_space

    def unsubscribe(self, name: str) -> None:
        """Close and remove one query."""
        subscription = self._subscriptions.pop(name, None)
        if subscription is None:
            raise KeyError(f"no subscription named {name!r}")
        subscription.close()
        group = subscription.group
        if group is not None:
            group.remove(subscription)
            if not len(group):
                self._unregister_group(group)
        if self._durability is not None:
            self._durability.log_op(("unsubscribe", name))

    def subscription(self, name: str) -> Subscription:
        try:
            return self._subscriptions[name]
        except KeyError:
            raise KeyError(
                f"no subscription named {name!r}; active: {sorted(self._subscriptions)}"
            ) from None

    def subscriptions(self) -> List[str]:
        """Names of every subscription, in registration order."""
        return list(self._subscriptions)

    def groups(self) -> List[Dict[str, object]]:
        """Description of every query group and its shared plans."""
        return [group.describe() for group in self._groups]

    def __contains__(self, name: object) -> bool:
        return name in self._subscriptions

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    # Serializable state (rebalancing between engines / processes)
    # ------------------------------------------------------------------
    def capture_subscription(self, name: str) -> GroupState:
        """Capture one subscription as a one-member :class:`GroupState`
        (:meth:`capture_groups` of that name).

        The subscription keeps running here; pair with :meth:`unsubscribe`
        to move it, or use the sharded engine's ``rebalance`` which does
        both ends atomically.
        """
        (state,) = self.capture_groups((name,))
        return state

    def capture_group(
        self, group: QueryGroup, members: Optional[Sequence[Subscription]] = None
    ) -> GroupState:
        """Capture ``members`` of one query group (default: all, in member
        order): the group's window and slide clock once, every member's
        state, and their plan layout.

        Only exact slide boundaries can be captured (the live window must
        equal the last reported window), so captures line up with the
        points where the control plane may rebuild algorithms.  Raises
        :class:`AlgorithmStateError` off a slide boundary and on a
        time-based group that has started.
        """
        window: Tuple[StreamObject, ...] = ()
        slide_index = None
        if group.started:
            if group.time_based:
                raise AlgorithmStateError(
                    "time-based subscriptions cannot be captured: their windows "
                    "have no exact slide boundaries"
                )
            if not group.at_slide_boundary():
                raise AlgorithmStateError(
                    "capture is only possible at a slide boundary (window full, "
                    "no partial slide buffered); push a whole number of slides "
                    "or use slide-aligned chunking"
                )
            window, slide_index = tuple(group.window_contents()), group.last_slide_index()
        members = group.members() if members is None else members
        return GroupState(
            version=STATE_FORMAT_VERSION,
            n=group.n,
            s=group.s,
            window=window,
            slide_index=slide_index,
            members=tuple(capture_subscription(sub) for sub in members),
            plans=group.plan_layout(members),
        )

    def capture_groups(self, names: Optional[Iterable[str]] = None) -> Tuple[GroupState, ...]:
        """:meth:`capture_group` of every query group, in engine order —
        or, given ``names``, of every group holding a named subscription,
        restricted to those members."""
        if names is None:
            return tuple(self.capture_group(group) for group in self._groups)
        wanted = {id(self.subscription(name)) for name in names}
        states = []
        for group in self._groups:
            members = [sub for sub in group.members() if id(sub) in wanted]
            if members:
                states.append(self.capture_group(group, members))
        return tuple(states)

    def restore_subscription(self, state: Union[GroupState, bytes]) -> Subscription:
        """Re-home one captured subscription on this engine.

        Accepts :meth:`capture_subscription`'s one-member
        :class:`~repro.core.state.GroupState` or its pickled bytes, and is
        :meth:`restore_groups` of that one record: the subscription
        resumes with its retained answers and metric aggregates, and
        produces byte-identical answers to an uninterrupted run.
        """
        if isinstance(state, (bytes, bytearray)):
            state = loads(bytes(state))
        check_version(state, GroupState)
        if len(state.members) != 1:
            raise ValueError(
                f"expected one member, got {len(state.members)}; use restore_groups"
            )
        (subscription,) = self.restore_groups((state,))
        return subscription

    def restore_groups(
        self, states: Sequence[GroupState], order: Sequence[str] = ()
    ) -> List[Subscription]:
        """Place the members of captured query groups; return them.

        The members of each record go through the engine's placement rule
        together: they join the group at the record's window position — a
        live group at the same slide index and window, or the group of
        their shape that has not started — or open one seeded with the
        record's window.  They form plans from the record's layout, so
        plans (buckets, ``k_max``) match the captured ones.  ``order``,
        when given, is the registration order of the restored names
        (default: record order).

        With a durability manager attached every record is journaled as
        one ``restore`` op, which WAL replay feeds back through this
        method.
        """
        self._ensure_open()
        for state in states:
            check_version(state, GroupState)
            for member in state.members:
                check_version(member, SubscriptionState)
                query = member.algorithm.query
                if (query.n, query.s) != (state.n, state.s):
                    raise ValueError(
                        f"member {member.name!r} ({query.describe()}) does not "
                        f"fit a group of window n={state.n}, s={state.s}"
                    )
        names = [member.name for state in states for member in state.members]
        seen = set(self._subscriptions)
        for name in names:
            if name in seen:
                raise ValueError(f"query {name!r} is already subscribed")
            seen.add(name)
        if order and sorted(order) != sorted(names):
            raise ValueError("order must list exactly the restored subscriptions")
        restored: Dict[str, Subscription] = {}
        for state in states:
            members = []
            for member in state.members:
                # Respawn once more so the state object stays reusable:
                # restoring the same payload twice must not share one live
                # instance.
                subscription = Subscription(
                    member.name,
                    member.algorithm.respawn(),
                    keep_results=member.keep_results,
                    result_buffer=member.result_buffer,
                    collect_metrics=member.collect_metrics,
                )
                subscription._adopt_state(member)
                members.append(subscription)
                restored[member.name] = subscription
            if members:
                self._place(members, state)
        for name in order or restored:
            self._subscriptions[name] = restored[name]
        if self._durability is not None:
            for state in states:
                self._durability.log_op(("restore", state))
        return list(restored.values())

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, obj: StreamObject) -> Dict[str, List[TopKResult]]:
        """Feed one object to every open subscription.

        Returns, per query name, the answers (possibly none) whose windows
        were completed by this object.  With ``return_results=False`` the
        mapping is never built and an empty dict is returned; callbacks
        and retained results are unaffected.
        """
        self._ensure_open()
        admit = self._admission_filter()
        if admit is not None and not admit(obj):
            return {}
        return self._ordered(self._ingest((obj,), collect=self._return_results))

    def push_many(
        self, objects: Iterable[StreamObject], *, chunk_size: int = PUSH_MANY_CHUNK
    ) -> int:
        """Feed any iterable of objects, lazily; return how many were pushed.

        The iterable is never materialised — it is drained in chunks of
        ``chunk_size`` objects that move through each query group with a
        single batched call, so arbitrarily long generators stream through
        in O(window) memory with none of ``push``'s per-object dispatch.
        Answers are not collected (use callbacks, ``results()``, or
        ``drain()``); they are produced in the same order as with ``push``.
        A chunk whose ``t`` does not strictly increase is rejected whole;
        earlier chunks of the same call stay applied.
        """
        self._ensure_open()
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        chunk_size = self._chunk_size_for(chunk_size)
        count = 0
        source = iter(objects)
        while True:
            # The admission filter can only engage/disengage between
            # chunks, so it is re-read once per chunk (None in the common
            # unfiltered case).
            admit = self._admission_filter()
            feed = source if admit is None else filter(admit, source)
            chunk = list(islice(feed, chunk_size))
            if not chunk:
                return count
            self._ingest(chunk)
            count += len(chunk)

    def push_block(self, block) -> int:
        """Feed one :class:`~repro.core.columnar.SlideBlock` as a chunk.

        The block is materialised once, here, and every query group moves
        the same objects.  With an admission filter active it falls back to
        :meth:`push_many`, which filters per object and keeps the control
        plane's slide-aligned chunks."""
        self._ensure_open()
        objects = block.to_objects()
        if objects and self._admission_filter() is not None:
            return self.push_many(objects, chunk_size=len(objects))
        self._ingest(objects)
        return len(objects)

    def _ingest(
        self, objects: Sequence[StreamObject], collect: bool = False
    ) -> Optional[Dict[str, List[TopKResult]]]:
        """The one ingest edge: every admitted chunk enters the engine here.

        The chunk's arrival order is validated first, so a rejected chunk
        leaves the engine and its write-ahead log exactly as they were.
        Then the chunk is journaled, counted, moved through every query
        group and reported to the control-plane and durability hooks.
        Returns the answers per name when ``collect`` is set.
        """
        if not objects:
            return None
        if not self._subscriptions:
            raise ValueError("no queries subscribed")
        last_t = self._check_order(objects)
        if self._durability is not None and self._durability.logs_engine_chunks:
            self._durability.log_objects(objects)
        self._last_t = last_t
        self._obs_ingested.inc(len(objects))
        produced = None
        # Snapshot: result callbacks may unsubscribe (mutating the list).
        for group in tuple(self._groups):
            for subscription, results in group.ingest(objects, collect):
                if produced is None:
                    produced = {}
                produced[subscription.name] = results
        self._note_chunk(len(objects))
        if self._durability is not None:
            self._durability.after_chunk(self, len(objects))
        return produced

    def _check_order(self, objects: Sequence[StreamObject]) -> int:
        """The chunk's last ``t``; raises :class:`InvalidQueryError` unless
        ``t`` strictly increases within the chunk and past the last
        admitted one."""
        return check_order(objects, self._last_t)

    def flush(self) -> Dict[str, List[TopKResult]]:
        """Emit the end-of-stream report of time-based windows (if any)."""
        self._ensure_open()
        collect = self._return_results
        produced = None
        for group in tuple(self._groups):
            for subscription, results in group.flush(collect=collect):
                if produced is None:
                    produced = {}
                produced[subscription.name] = results
        self._note_chunk(0)
        return self._ordered(produced)

    def _ordered(
        self, produced: Optional[Dict[str, List[TopKResult]]]
    ) -> Dict[str, List[TopKResult]]:
        """Re-key group-major results into subscription registration order."""
        if not produced:
            return {}
        if len(produced) == 1:
            return produced
        return {name: produced[name] for name in self._subscriptions if name in produced}

    # ------------------------------------------------------------------
    # Reading answers and state
    # ------------------------------------------------------------------
    def results(self, name: str) -> List[TopKResult]:
        """Retained answers of one query (see ``keep_results``)."""
        return self.subscription(name).results()

    def drain_results(self) -> Dict[str, List[TopKResult]]:
        """Fetch *and discard* every subscription's retained answers.

        One call covers the whole engine: the serving layer
        (:mod:`repro.serve`) uses it to collect everything a just-pushed
        batch produced without a per-subscription round-trip.  Names with
        no new answers are omitted.  Reading is allowed on a closed
        engine (the final answers stay collectible after ``close``).
        """
        produced: Dict[str, List[TopKResult]] = {}
        for name, subscription in self._subscriptions.items():
            drained = list(subscription.drain())
            if drained:
                produced[name] = drained
        return produced

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time state of every subscription, keyed by name."""
        return {name: sub.snapshot() for name, sub in self._subscriptions.items()}

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Aggregate performance statistics of every subscription."""
        return {name: sub.stats() for name, sub in self._subscriptions.items()}

    def aggregate_stats(self) -> Dict[str, float]:
        """Engine-wide latency distribution over every subscription.

        The local analogue of
        :meth:`repro.cluster.ShardedStreamEngine.aggregate_stats`: the
        same merge code runs over this engine's subscriptions as over a
        cluster's shards, so both planes emit the identical schema
        (:data:`~repro.engine.subscription.STATS_KEYS`) and identical
        numbers for the same stream.
        """
        from ..cluster.merge import merged_latency_stats

        telemetry = {
            name: {
                "stats": sub.stats(),
                "latencies": list(sub.metrics.latencies),
                "shard": -1,
            }
            for name, sub in self._subscriptions.items()
        }
        return merged_latency_stats([telemetry])

    # ------------------------------------------------------------------
    # Durability (checkpoints + write-ahead log, :mod:`repro.durability`)
    # ------------------------------------------------------------------
    def attach_durability(self, manager) -> None:
        """Persist this engine through ``manager``: every subscription op
        and ingested chunk is WAL'd ahead of application, and checkpoints
        commit at slide boundaries.  Attach exactly one manager, *after*
        any :meth:`repro.durability.DurabilityManager.recover` call (the
        replayed records are already in the log)."""
        if self._durability is not None:
            raise ValueError("a durability manager is already attached")
        self._durability = manager

    @property
    def last_t(self) -> float:
        """``t`` of the newest admitted object (``-inf`` before the first);
        restored windows and replayed journal chunks move it too."""
        return self._last_t

    @property
    def durability(self):
        """The attached :class:`~repro.durability.DurabilityManager`."""
        return self._durability

    def at_checkpoint_boundary(self) -> bool:
        """Whether every window sits at an exact slide boundary (the only
        points where :meth:`capture_groups` — and therefore a checkpoint —
        is possible).  Time-based windows never are."""
        for group in self._groups:
            if group.time_based:
                return False
            if group.started and not group.at_slide_boundary():
                return False
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> Dict[str, List[TopKResult]]:
        """Flush pending time-based reports, then close every subscription.

        Returns the answers produced by the final flush.  Closing twice is
        a no-op; pushing after close raises :class:`AlgorithmStateError`.
        """
        if self._closed:
            return {}
        produced = self.flush()
        for subscription in self._subscriptions.values():
            subscription.close()
        self._closed = True
        return produced

    def __enter__(self) -> "EngineCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise AlgorithmStateError("the engine is closed")

    def _place(
        self, members: Sequence[Subscription], state: Optional[GroupState] = None
    ) -> None:
        """The one placement rule: ``members`` join the query group with
        their window shape and window position — "not started" for fresh
        subscriptions, ``state``'s slide index and window for captured
        ones — or open one (seeded with ``state``'s window)."""
        key = group_key_for(members[0].query)
        position = None if state is None else state.position
        for group in self._groups:
            if group.key == key and group.at(position):
                break
        else:
            group = QueryGroup(*key)
            if position is not None:
                group.prime(state.window, state.slide_index)
                self._last_t = max(self._last_t, state.window[-1].t)
            self._register_group(group)
        group.admit(members, None if state is None else state.plans)

    @staticmethod
    def _resolve_algorithm(
        spec: Union[QuerySpec, TopKQuery, None],
        algorithm: AlgorithmLike,
        options: Dict[str, object],
    ) -> ContinuousTopKAlgorithm:
        if isinstance(algorithm, ContinuousTopKAlgorithm):
            if options:
                raise ValueError(
                    "algorithm options cannot be applied to a ready instance: "
                    f"{sorted(options)}"
                )
            if spec is not None and resolve_query(spec) != algorithm.query:
                raise ValueError(
                    "the given spec disagrees with the algorithm instance's query; "
                    "omit the spec or build the instance from it"
                )
            return algorithm
        if spec is None:
            raise ValueError("a QuerySpec (or TopKQuery) is required")
        query = resolve_query(spec)
        if isinstance(algorithm, str):
            return create_algorithm(algorithm, query, **options)
        return algorithm(query, **options)

    # ------------------------------------------------------------------
    # Hooks (overridden by StreamEngine's control-plane integration)
    # ------------------------------------------------------------------
    def _register_group(self, group: QueryGroup) -> None:
        """A new query group joined the engine."""
        self._groups.append(group)

    def _unregister_group(self, group: QueryGroup) -> None:
        """A query group lost its last member and leaves the engine."""
        self._groups.remove(group)

    def _admission_filter(self) -> Optional[Callable[[StreamObject], bool]]:
        """Admission filter of the next chunk (None = admit all): the
        load-shedding valve."""
        return None

    def _chunk_size_for(self, requested: int) -> int:
        """Opportunity to align ``push_many`` chunks to slide boundaries."""
        return requested

    def _note_chunk(self, count: int) -> None:
        """A chunk of ``count`` objects finished moving through the groups
        (``count`` is 0 after a :meth:`flush`)."""
