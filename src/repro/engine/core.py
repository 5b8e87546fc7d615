"""The push-based engine: one class for every execution plane.

:class:`StreamEngine` (also exported as ``EngineCore``) is the
single-process execution path of the reproduction: the CLI, the
benchmarks and the tests run and measure every algorithm through its
subscriptions.  Callers describe queries with
:class:`~repro.engine.spec.QuerySpec` (or a plain
:class:`~repro.core.query.TopKQuery`), attach any algorithm registered in
:mod:`repro.registry` by name, and push stream objects::

    engine = StreamEngine()
    fire = engine.subscribe("fire", QuerySpec(n=5000, k=10, s=100), algorithm="SAP")
    for obj in sensor_feed:           # unbounded — never materialised
        engine.push(obj)
        for result in fire.drain():
            alert(result)
    engine.close()

The engine owns the subscription registry, places subscriptions into
:class:`~repro.engine.group.QueryGroup` objects — one per window shape,
sharing one partition-sealing / candidate-core pipeline at the group's
largest ``k`` (see :mod:`repro.core.shared`) — moves stream objects
through the groups, and captures / restores query groups as
:class:`~repro.core.state.GroupState` records.  Memory stays O(window)
per window *shape* plus whatever answers the caller asked to retain.

Every subscription is placed by one rule, in ``_place``: it joins the
query group that has its window shape and its window position, or opens
one.  :meth:`~StreamEngine.subscribe` places a fresh subscription ("not
started"); :meth:`~StreamEngine.restore_groups` places the members of
each captured record at the record's window position.

Every subscription op — ``subscribe``, ``unsubscribe``,
``update_preference`` and ``restore`` — has one tuple form, parsed in one
place, :meth:`~StreamEngine.apply_op`: the durability plane
(:mod:`repro.durability`) journals these ops and replays them through
it, and each shard worker of :mod:`repro.cluster` (one full engine per
process) applies the sharded facade's commands through it.
:meth:`~StreamEngine.durable` / :meth:`~StreamEngine.recover` build an
engine that journals into a directory and recovers from it.

Every ingest call — :meth:`~StreamEngine.push`, :meth:`~StreamEngine.push_many`
and :meth:`~StreamEngine.push_block` — hands its chunks to one edge,
``StreamEngine._ingest``: it validates the chunk (:func:`~repro.core.window.check_order`),
journals, counts, and moves it through every query group, in that order.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    dumps,
    loads,
)
from ..core.window import check_order
from ..obs.registry import get_registry
from ..registry import create_algorithm
from .group import QueryGroup, group_key_for
from .spec import ExecutionPlanner, QuerySpec, resolve_query
from .subscription import ResultCallback, Subscription

#: Default chunk size of ``push_many``: objects are drained from the input
#: iterable in chunks of this many and moved through each query group with
#: one call, instead of one full dispatch per object per subscription.
PUSH_MANY_CHUNK = 256


def subscribe_op(
    name: str,
    query: TopKQuery,
    algorithm: str,
    options: Dict[str, object],
    keep_results: bool,
    result_buffer: Optional[int],
    collect_metrics: bool,
) -> Tuple:
    """The ``subscribe`` op of a registry-named algorithm: the write-ahead
    log's record of a subscription and the shard worker's subscribe
    command.  :meth:`StreamEngine.apply_op` applies it."""
    return (
        "subscribe", name, query, algorithm, dict(options),
        keep_results, result_buffer, collect_metrics,
    )


class StreamEngine(ExecutionPlanner):
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
        self._closed = False
        self._durability = None
        #: Set by :meth:`recover` — what the durability plane replayed.
        self.recovery_report = None
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
        algorithm: Union[str, ContinuousTopKAlgorithm] = "SAP",
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
            A name from :mod:`repro.registry` (default ``"SAP"``) or an
            algorithm instance.
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

        A durable engine journals a registry-named subscription as a
        compact ``subscribe`` op with the options as declared (replay
        assigns the same cluster from the same space), and a ready
        instance as a ``restore`` op of the fresh member.  The op is
        serialized first: one that cannot be pickled raises
        :class:`~repro.core.state.StateSerializationError` and leaves the
        engine, its cluster space and its log as they were.
        """
        self._ensure_open()
        if name in self._subscriptions:
            raise ValueError(f"query {name!r} is already subscribed")
        algorithm, declared = self.plan(spec, algorithm, algorithm_options)
        keep = self._default_keep_results if keep_results is None else keep_results
        payload = None
        if isinstance(algorithm, str):
            if spec is None:
                raise ValueError("a QuerySpec (or TopKQuery) is required")
            query = resolve_query(spec)
            payload = self._journal(subscribe_op(
                name, query, algorithm, declared, keep, result_buffer, collect_metrics,
            ))
            cluster_id = self.cluster_for(query, algorithm, declared)
            options = declared if cluster_id is None else {**declared, "cluster_id": cluster_id}
            instance = create_algorithm(algorithm, query, **options)
        elif isinstance(algorithm, ContinuousTopKAlgorithm):
            if declared:
                raise ValueError(
                    "algorithm options cannot be applied to a ready instance: "
                    f"{sorted(declared)}"
                )
            if spec is not None and resolve_query(spec) != algorithm.query:
                raise ValueError(
                    "the given spec disagrees with the algorithm instance's query; "
                    "omit the spec or build the instance from it"
                )
            instance = algorithm
        else:
            raise TypeError(
                "algorithm must be a registry name or a ContinuousTopKAlgorithm "
                f"instance, got {type(algorithm).__name__}"
            )
        subscription = Subscription(
            name,
            instance,
            keep_results=keep,
            result_buffer=result_buffer,
            collect_metrics=collect_metrics,
        )
        if self._durability is not None and payload is None:
            # The fresh member as a not-started group would capture it.
            query = instance.query
            payload = self._journal(("restore", GroupState(
                version=STATE_FORMAT_VERSION, n=query.n, s=query.s, window=(),
                slide_index=None, members=(capture_subscription(subscription),),
            )))
        if on_result is not None:
            subscription.on_result(on_result)
        self._place([subscription])
        self._subscriptions[name] = subscription
        if payload is not None:
            self._durability.log_op(payload)
        return subscription

    def apply_op(self, op: Tuple) -> Optional[Dict[str, object]]:
        """Apply one subscription op — the one parser of the op tuples
        that write-ahead-log replay and the shard worker feed in.

        ``("subscribe", ...)`` is :func:`subscribe_op`'s tuple;
        ``("unsubscribe", name)``; ``("update_preference", name, vector)``;
        ``("restore", states)`` where ``states`` is one
        :class:`~repro.core.state.GroupState`, a tuple or list of them, or
        their pickled bytes.  Returns ``update_preference``'s cluster
        record, else ``None``.
        """
        kind = op[0]
        if kind == "subscribe":
            _, name, query, algorithm, options, keep, buffer, collect = op
            self.subscribe(
                name, query, algorithm, keep_results=keep, result_buffer=buffer,
                collect_metrics=collect, **options,
            )
        elif kind == "unsubscribe":
            self.unsubscribe(op[1])
        elif kind == "update_preference":
            return self.update_preference(op[1], op[2])
        elif kind == "restore":
            states = op[1]
            if isinstance(states, (bytes, bytearray)):
                states = loads(bytes(states))
            self.restore_groups(states if isinstance(states, (tuple, list)) else (states,))
        else:
            raise ValueError(f"unknown subscription op {kind!r}")
        return None

    def update_preference(self, name: str, vector: Iterable[float]) -> Dict[str, object]:
        """Re-declare one preference subscription's vector mid-stream.

        Returns the member's cluster record (id, mode, counters).  A
        vector that drifts outside its cluster's envelope flips the member
        to exact per-slide fallback and bumps the cluster's drift counter;
        it never changes the answers' exactness.
        """
        subscription = self.subscription(name)
        update = getattr(subscription.algorithm, "update_vector", None)
        if update is None:
            raise AlgorithmStateError(
                f"subscription {name!r} has no preference vector; declare one "
                "with subscribe(name, QuerySpec(...).preferring(vector))"
            )
        vector = tuple(vector)
        payload = self._journal(("update_preference", name, vector))
        record = update(vector)
        subscription._template = None  # the vector is configuration
        if payload is not None:
            self._durability.log_op(payload)
        return record

    def unsubscribe(self, name: str) -> None:
        """Close and remove one query."""
        if name not in self._subscriptions:
            raise KeyError(f"no subscription named {name!r}")
        payload = self._journal(("unsubscribe", name))
        subscription = self._subscriptions.pop(name)
        subscription.close()
        group = subscription.group
        if group is not None:
            group.remove(subscription)
            if not len(group):
                self._groups.remove(group)
        if payload is not None:
            self._durability.log_op(payload)

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
        order): the group's window, partial slide and slide and report
        clocks once, every member's state, and their plan layout.  Any
        group can be captured after any accepted chunk."""
        window, slide_index, pending, report_time = group.window_state()
        members = group.members() if members is None else members
        return GroupState(
            version=STATE_FORMAT_VERSION,
            n=group.n,
            s=group.s,
            window=window,
            slide_index=slide_index,
            members=tuple(capture_subscription(sub) for sub in members),
            plans=group.plan_layout(members),
            pending=pending,
            report_time=report_time,
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
        live group with the same window and clocks, or the group of
        their shape that has not started — or open one seeded with the
        record's window.  They form plans from the record's layout, so
        plans (buckets, ``k_max``) match the captured ones.  ``order``,
        when given, is the registration order of the restored names
        (default: record order).

        With a durability manager attached every record is journaled as
        one ``restore`` op, which WAL replay feeds back through this
        method; the ops are serialized before any member is placed, so a
        record that cannot be pickled raises
        :class:`~repro.core.state.StateSerializationError` and restores
        nothing.
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
        payloads = [self._journal(("restore", state)) for state in states]
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
        for payload in payloads:
            if payload is not None:
                self._durability.log_op(payload)
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
        count = 0
        source = iter(objects)
        while True:
            chunk = list(islice(source, chunk_size))
            if not chunk:
                return count
            self._ingest(chunk)
            count += len(chunk)

    def push_block(self, block) -> int:
        """Feed one :class:`~repro.core.columnar.SlideBlock` as a chunk.

        The block is materialised once, here, and every query group moves
        the same objects."""
        self._ensure_open()
        objects = block.to_objects()
        self._ingest(objects)
        return len(objects)

    def _ingest(
        self, objects: Sequence[StreamObject], collect: bool = False
    ) -> Optional[Dict[str, List[TopKResult]]]:
        """The one ingest edge: every pushed chunk enters the engine here.

        The chunk is validated first (order, integer ``t`` and timestamps
        within int64, finite scores float64 holds), so a rejected chunk
        leaves the engine and its write-ahead log exactly as they were.
        Then the chunk is journaled, counted, moved through every query
        group and reported to the durability manager.
        Returns the answers per name when ``collect`` is set.
        """
        if not objects:
            return None
        if not self._subscriptions:
            raise ValueError("no queries subscribed")
        last_t = check_order(objects, self._last_t)
        if self._durability is not None and self._durability.logs_engine_chunks:
            self._durability.log_objects(objects)
        self._last_t = last_t
        self._obs_ingested.inc(len(objects))
        return self._move(objects, collect)

    def _move(
        self, objects: Optional[Sequence[StreamObject]], collect: bool
    ) -> Dict[str, List[TopKResult]]:
        """Move a chunk (``None``: the end-of-stream flush) through every
        query group, then report it to the durability manager.  A raising
        result callback does not cut it short: the first callback error is
        re-raised at the end."""
        produced: Dict[str, List[TopKResult]] = {}
        errors: List[Exception] = []
        # Snapshot: result callbacks may unsubscribe (mutating the list).
        for group in tuple(self._groups):
            for subscription, results in group.ingest(objects, errors, collect):
                produced[subscription.name] = results
        if objects and self._durability is not None:
            self._durability.after_chunk(self, len(objects))
        if errors:
            raise errors[0]
        return produced

    def flush(self) -> Dict[str, List[TopKResult]]:
        """Emit the end-of-stream report of time-based windows (if any)."""
        self._ensure_open()
        return self._ordered(self._move(None, self._return_results))

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
        return {
            name: list(subscription.drain())
            for name, subscription in self._subscriptions.items()
            if subscription._results
        }

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

        return merged_latency_stats([self.telemetry()])

    def telemetry(self, shard: int = -1) -> Dict[str, Dict[str, object]]:
        """Per-subscription statistics plus each latency sketch's bucket
        counts, tagged with ``shard``: what
        :func:`~repro.cluster.merge.merged_latency_stats` adds up, so
        percentiles merge by adding counts instead of averaging
        percentiles (which would be wrong)."""
        return {
            name: {
                "stats": sub.stats(),
                "latencies": dict(sub.metrics.latency_buckets),
                "shard": shard,
            }
            for name, sub in self._subscriptions.items()
        }

    # ------------------------------------------------------------------
    # Durability (checkpoints + write-ahead log, :mod:`repro.durability`)
    # ------------------------------------------------------------------
    @classmethod
    def durable(cls, directory: str, *, checkpoint_interval: Optional[int] = None,
                **engine_kwargs) -> "StreamEngine":
        """A fresh engine persisting into ``directory``.

        Equivalent to :meth:`recover` on an empty directory; on a
        directory with prior state it *also* recovers first, so callers
        can use one constructor for both cold and crashed starts.
        """
        return cls.recover(directory, checkpoint_interval=checkpoint_interval,
                           **engine_kwargs)

    @classmethod
    def recover(cls, directory: str, *, checkpoint_interval: Optional[int] = None,
                **engine_kwargs) -> "StreamEngine":
        """Rebuild the engine persisted in ``directory`` and keep persisting.

        Restores the latest checkpoint, replays the write-ahead-log tail
        (producing the exact pre-crash subscriptions, windows, retained
        answers and preference clusters), then attaches the durability
        manager so the recovered engine continues journaling.  The replay
        summary is left on ``engine.recovery_report``.  An empty directory
        recovers to an empty engine — i.e. this is also how a durable
        engine is *first* created.
        """
        from ..durability import DurabilityManager

        kwargs = {}
        if checkpoint_interval is not None:
            kwargs["checkpoint_interval"] = checkpoint_interval
        engine = cls(**engine_kwargs)
        manager = DurabilityManager(directory, **kwargs)
        engine.recovery_report = manager.recover(engine)
        engine.attach_durability(manager)
        return engine

    def attach_durability(self, manager) -> None:
        """Persist this engine through ``manager``: every subscription op
        and ingested chunk is WAL'd ahead of application, and a checkpoint
        commits every ``checkpoint_interval`` chunks.  Attach exactly one
        manager, *after* any
        :meth:`repro.durability.DurabilityManager.recover` call (the
        replayed records are already in the log)."""
        if self._durability is not None:
            raise ValueError("a durability manager is already attached")
        self._durability = manager
        # The log may end past every restored window; order resumes there.
        self._last_t = max(self._last_t, manager.last_t)

    @property
    def last_t(self) -> float:
        """``t`` of the newest admitted object (``-inf`` before the first);
        restored windows and replayed journal chunks move it too."""
        return self._last_t

    @property
    def durability(self):
        """The attached :class:`~repro.durability.DurabilityManager`."""
        return self._durability

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> Dict[str, List[TopKResult]]:
        """Flush pending time-based reports, then close every subscription.

        Returns the answers produced by the final flush, and closes the
        attached durability manager.  Closing twice is a no-op; pushing
        after close raises :class:`AlgorithmStateError`.
        """
        if self._closed:
            return {}
        try:
            return self.flush()
        finally:
            for subscription in self._subscriptions.values():
                subscription.close()
            self._closed = True
            if self._durability is not None:
                self._durability.close()

    def __enter__(self) -> "StreamEngine":
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
        subscriptions, ``state``'s window and clocks for captured ones — or
        open one (seeded with ``state``'s window)."""
        key = group_key_for(members[0].query)
        position = None if state is None else state.position
        for group in self._groups:
            if group.key == key and group.at(position):
                break
        else:
            group = QueryGroup(*key)
            if position is not None:
                group.prime(state)
                buffered = state.pending or state.window
                if buffered:
                    self._last_t = max(self._last_t, buffered[-1].t)
            self._groups.append(group)
        group.admit(members, None if state is None else state.plans)

    def _journal(self, op: Tuple) -> Optional[bytes]:
        """``op`` serialized for the write-ahead log (``None`` when the
        engine is not durable).  Every op is serialized before it applies,
        so one the log cannot hold raises
        :class:`~repro.core.state.StateSerializationError` and changes
        nothing."""
        return None if self._durability is None else dumps(op)


#: The engine's other name: the planes built on it (and the benchmark's
#: per-layer tracer) refer to it as the engine core.
EngineCore = StreamEngine
