"""The sharded execution plane: many engines, many processes, one facade.

:class:`ShardedStreamEngine` looks like a :class:`repro.StreamEngine` but
runs every query on one of N worker processes, each hosting a full
single-process engine.  Python's GIL caps a single engine at one core no
matter how many queries the shared plane dedupes; sharding is the axis
that turns additional cores into throughput::

    engine = ShardedStreamEngine(shards=4)
    for user, (n, k, s) in dashboards.items():
        engine.subscribe(user, QuerySpec(n=n, k=k, s=s), algorithm="SAP")
    engine.push_many(feed)            # fans chunks out to all shards
    engine.flush()
    print(engine.aggregate_stats())   # percentiles merged from samples
    engine.close()

Division of labour:

* *placement* (:mod:`repro.cluster.placement`) picks the shard of a new
  subscription — by window-shape hash (keeps ``k_max`` plan sharing
  intact) or least-loaded;
* the *router* (:mod:`repro.cluster.router`) fans ``push_many`` chunks to
  every shard that hosts subscriptions, asynchronously, with bounded
  queues for backpressure;
* the *merge layer* (:mod:`repro.cluster.merge`) combines per-shard
  results and statistics (percentiles merged from latency sketches,
  never averaged);
* *rebalancing* moves live subscriptions between shards after any
  accepted chunk as :class:`~repro.core.state.GroupState` records — the same
  capture-and-replay contract as durable recovery, so a moved query's
  answers are byte-identical to an unmoved one's, and the same placement
  rule as local restores, so a moved query joins the target's group at
  its window position instead of opening its own.

Because subscriptions cross a process boundary, ``subscribe`` takes an
*algorithm name* from :mod:`repro.registry` (plus picklable options), not
a live instance, and result callbacks are not supported — consume answers
with ``results()`` / ``drain()`` on the returned handle.  A subscription
whose options cannot be pickled is refused with
:class:`~repro.core.state.StateSerializationError`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Union

from ..core.exceptions import AlgorithmStateError
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.state import dumps
from ..core.window import check_order
from ..engine.core import subscribe_op
from ..engine.spec import ExecutionPlanner, QuerySpec, resolve_query
from ..obs.exposition import merge_snapshots
from ..obs.registry import get_registry
from .merge import merge_disjoint, merged_latency_stats
from .placement import PlacementPolicy, make_placement
from .router import (
    DEFAULT_BACKPRESSURE_TIMEOUT,
    DEFAULT_QUEUE_DEPTH,
    ShardError,
    ShardRouter,
)

#: Fan-out chunk size (objects per router dispatch): large chunks amortise
#: queue/pickle overhead, which is the IPC cost driver.
DEFAULT_CHUNK = 4096


class ShardSubscription:
    """Handle for one query living on some shard of the cluster.

    Mirrors the read side of :class:`repro.engine.Subscription`; all
    methods are synchronous round-trips to the hosting worker.
    """

    def __init__(self, engine: "ShardedStreamEngine", name: str, query: TopKQuery) -> None:
        self.name = name
        self.query = query
        self._engine = engine

    @property
    def shard(self) -> int:
        """The shard currently hosting this query (changes on rebalance)."""
        return self._engine.shard_of(self.name)

    def results(self) -> List[TopKResult]:
        """The retained answers, oldest first (see ``keep_results``)."""
        return self._engine._request_shard(self.name, ("results", self.name, False))

    def drain(self) -> List[TopKResult]:
        """Fetch and discard the retained answers, oldest first."""
        return self._engine._request_shard(self.name, ("results", self.name, True))

    def latest(self) -> Optional[TopKResult]:
        """The most recent answer, or ``None`` before the window fills."""
        return self._engine._request_shard(self.name, ("latest", self.name))

    def stats(self) -> Dict[str, float]:
        """Aggregate performance statistics of this query (one round-trip
        to the hosting shard, not a cluster-wide barrier)."""
        return self._engine._request_shard(self.name, ("stats_one", self.name))

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view of the subscription's state (one round-trip
        to the hosting shard, not a cluster-wide barrier)."""
        return self._engine._request_shard(self.name, ("snapshot_one", self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardSubscription({self.name!r}, shard={self.shard})"


class ShardedStreamEngine(ExecutionPlanner):
    """Multi-process execution of continuous top-k queries behind one facade."""

    def __init__(
        self,
        shards: int = 4,
        *,
        placement: Union[str, PlacementPolicy] = "hash-window",
        chunk_size: int = DEFAULT_CHUNK,
        keep_results: bool = True,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        transport: str = "queue",
        backpressure_timeout: Optional[float] = DEFAULT_BACKPRESSURE_TIMEOUT,
        durability_dir: Optional[str] = None,
    ) -> None:
        """``shards`` worker processes are started immediately.

        ``placement`` picks each subscription's shard (``"hash-window"``,
        ``"least-loaded"``, or a :class:`PlacementPolicy` instance);
        ``chunk_size`` is the requested router fan-out granularity;
        ``keep_results`` is the default retention policy of new
        subscriptions; ``queue_depth`` bounds each worker's one command
        queue (default 8), which chunks and control messages share;
        workers start with ``fork`` where the platform has it.
        ``transport`` accepts only ``"queue"`` and raises
        :class:`ValueError` for anything else — it stays in the signature
        because existing callers (the ``perfbench`` sharded workload among
        them) pass it.  ``backpressure_timeout`` bounds how
        long a push may stall on one congested shard before raising
        :class:`~repro.cluster.router.ShardBackpressureError`.

        ``durability_dir`` makes the cluster crash-recoverable: each
        worker journals into ``<dir>/shard-<id>`` (checkpoints + WAL, see
        :mod:`repro.durability`), a ``cluster.json`` manifest records the
        shard count (on restart the manifest *wins* over the ``shards``
        argument, so a resized cluster comes back at its resized width)
        and the facade's preference-cluster space, and the facade
        rebuilds its name->shard map from the workers' recovered
        subscriptions.  A worker that dies mid-stream can then
        be revived in place with :meth:`resurrect_shard`.
        """
        if transport != "queue":
            raise ValueError(f"transport must be 'queue', got {transport!r}")
        self._durability_dir = durability_dir
        recorded = {}
        if durability_dir is not None:
            os.makedirs(durability_dir, exist_ok=True)
            manifest = os.path.join(durability_dir, "cluster.json")
            if os.path.exists(manifest):
                with open(manifest, "r", encoding="utf-8") as fh:
                    recorded = json.load(fh)
            shards = int(recorded.get("shards") or shards)
            if "clusters" in recorded:
                self.cluster_space().load(recorded["clusters"])
        self._router = ShardRouter(
            shards,
            queue_depth=queue_depth,
            backpressure_timeout=backpressure_timeout,
            durability_root=durability_dir,
        )
        self._placement = make_placement(placement)
        self._chunk_size = chunk_size
        self._default_keep_results = keep_results
        self._handles: Dict[str, ShardSubscription] = {}
        self._shard_of: Dict[str, int] = {}
        self._loads: List[float] = [0.0] * shards
        # The last admitted arrival order: the facade rejects a chunk whose
        # t does not strictly increase before any shard sees it, as the
        # embedded engine's ingest edge does.
        self._last_t = float("-inf")
        self._closed = False
        if durability_dir is not None:
            self._write_manifest()
            self._recover_map()

    def _write_manifest(self) -> None:
        """Persist the live shard count and preference-cluster space
        (atomically) for the next boot."""
        if self._durability_dir is None:
            return
        path = os.path.join(self._durability_dir, "cluster.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"shards": len(self._router), "clusters": self.cluster_space().snapshot()},
                fh,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _recover_map(self) -> None:
        """Rebuild handles, placement map, load accounting and the last
        admitted ``t`` from what the workers recovered out of their
        journals."""
        for shard_id, manifest in zip(
            self._router.shard_ids(), self._router.broadcast(("manifest",))
        ):
            for name, query in manifest["subscriptions"].items():
                self._handles[name] = ShardSubscription(self, name, query)
                self._shard_of[name] = shard_id
                self._loads[shard_id] += self._placement.load_of(query)
            self._last_t = max(self._last_t, manifest["last_t"])

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        name: str,
        spec: Union[QuerySpec, TopKQuery],
        algorithm: str = "SAP",
        *,
        keep_results: Optional[bool] = None,
        result_buffer: Optional[int] = None,
        collect_metrics: bool = True,
        shard: Optional[int] = None,
        **algorithm_options: object,
    ) -> ShardSubscription:
        """Register a continuous query on some shard; return its handle.

        ``algorithm`` must be a registry *name* (the instance is built
        inside the worker process); ``shard`` overrides the placement
        policy.  All other parameters match
        :meth:`repro.engine.EngineCore.subscribe`, minus ``on_result``
        (callbacks cannot cross process boundaries).

        A :class:`QuerySpec` that carries its own execution —
        ``spec.using(...)`` / ``spec.preferring(...)`` — is the unified
        path: the algorithm and options come from the spec (passing them
        separately too is an error), the facade assigns the preference
        cluster centrally (:class:`~repro.core.clustering.ClusterSpace`),
        and placement is **cluster-affine** for preference specs —
        :meth:`~repro.cluster.placement.PlacementPolicy.place_preference`
        hashes the cluster id so one cluster's members (and therefore its
        shared padded-k plan) never straddle shards.
        """
        self._ensure_open()
        if name in self._handles:
            raise ValueError(f"query {name!r} is already subscribed")
        algorithm, algorithm_options = self.plan(spec, algorithm, algorithm_options)
        if not isinstance(algorithm, str):
            raise TypeError(
                "the sharded engine takes an algorithm name from "
                "repro.registry (the instance is constructed inside the "
                f"worker process), got {type(algorithm).__name__}"
            )
        query = resolve_query(spec)
        keep = self._default_keep_results if keep_results is None else keep_results
        # Refuse what cannot reach a shard before the space assigns (the
        # pinned id the shard runs is an int and changes nothing here).
        dumps(subscribe_op(
            name, query, algorithm, algorithm_options, keep, result_buffer, collect_metrics,
        ))
        cluster_id = self.cluster_for(query, algorithm, algorithm_options)
        if cluster_id is not None:
            # The facade assigns clusters; the shard runs the pinned id.
            algorithm_options = {**algorithm_options, "cluster_id": cluster_id}
            self._write_manifest()
        if shard is None:
            if cluster_id is not None:
                shard = self._placement.place_preference(
                    query, cluster_id, self._loads
                )
            else:
                shard = self._placement.place(query, self._loads)
        elif not 0 <= shard < len(self._router):
            raise ValueError(
                f"shard {shard} out of range (cluster has {len(self._router)})"
            )
        self._router.request(
            shard,
            subscribe_op(
                name, query, algorithm, algorithm_options,
                keep, result_buffer, collect_metrics,
            ),
        )
        handle = ShardSubscription(self, name, query)
        self._handles[name] = handle
        self._shard_of[name] = shard
        self._loads[shard] += self._placement.load_of(query)
        return handle

    def update_preference(self, name: str, vector) -> Dict[str, object]:
        """Re-declare one preference subscription's vector mid-stream
        (one round-trip to the hosting shard); returns the member's
        cluster record, including its post-update mode."""
        self._ensure_open()
        return self._router.request(
            self.shard_of(name), ("update_preference", name, tuple(vector))
        )

    def unsubscribe(self, name: str) -> None:
        """Close and remove one query from its shard."""
        self._ensure_open()
        shard = self.shard_of(name)
        self._router.request(shard, ("unsubscribe", name))
        self._forget(name, shard)

    def _forget(self, name: str, shard: int) -> None:
        handle = self._handles.pop(name)
        del self._shard_of[name]
        self._loads[shard] -= self._placement.load_of(handle.query)

    def subscription(self, name: str) -> ShardSubscription:
        try:
            return self._handles[name]
        except KeyError:
            raise KeyError(
                f"no subscription named {name!r}; active: {sorted(self._handles)}"
            ) from None

    def subscriptions(self) -> List[str]:
        """Names of every subscription, in registration order."""
        return list(self._handles)

    def shard_of(self, name: str) -> int:
        """The shard currently hosting ``name``."""
        self.subscription(name)
        return self._shard_of[name]

    def describe_shards(self) -> List[Dict[str, object]]:
        """Placement map: per shard, its load score and its queries."""
        by_shard: Dict[int, List[str]] = {s: [] for s in self._router.shard_ids()}
        for name, shard in self._shard_of.items():
            by_shard[shard].append(name)
        return [
            {"shard": shard, "load": round(self._loads[shard], 6), "members": members}
            for shard, members in by_shard.items()
        ]

    def __contains__(self, name: object) -> bool:
        return name in self._handles

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def shards(self) -> int:
        return len(self._router)

    @property
    def last_t(self) -> float:
        """``t`` of the newest admitted object (``-inf`` before the first),
        recovered from the workers' journals after a restart."""
        return self._last_t

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, obj: StreamObject) -> Dict[str, List[TopKResult]]:
        """Feed one object to every shard hosting subscriptions.

        Dispatch is asynchronous, so the returned mapping is always empty
        — consume answers with ``results()`` / ``drain()``.  ``push`` costs
        one queue round per shard per object; feed real volume through
        :meth:`push_many`.
        """
        self._ensure_open()
        targets = self._active_shards()
        if not targets:
            raise ValueError("no queries subscribed")
        self._dispatch([obj], targets)
        return {}

    def push_many(
        self, objects: Iterable[StreamObject], *, chunk_size: Optional[int] = None
    ) -> int:
        """Fan an iterable out to the shards in chunks of ``chunk_size``.

        The iterable is consumed lazily; each chunk is enqueued to every
        shard hosting subscriptions and processed by all of them in
        parallel.  A chunk whose ``t`` does not strictly increase is
        rejected whole with :class:`~repro.core.exceptions.InvalidQueryError`
        before any shard sees it; earlier chunks of the same call stay
        dispatched.
        Returns the number of objects dispatched.
        """
        self._ensure_open()
        targets = self._active_shards()
        if not targets:
            raise ValueError("no queries subscribed")
        size = self._chunk_size if chunk_size is None else chunk_size
        if size < 1:
            raise ValueError(f"chunk_size must be positive, got {size}")
        count = 0
        chunk: List[StreamObject] = []
        for obj in objects:
            chunk.append(obj)
            if len(chunk) >= size:
                self._dispatch(chunk, targets)
                count += len(chunk)
                chunk = []
        if chunk:
            self._dispatch(chunk, targets)
            count += len(chunk)
        return count

    def _dispatch(self, chunk: List[StreamObject], targets: List[int]) -> None:
        """Check the chunk's arrival order, then send it to ``targets``."""
        last_t = check_order(chunk, self._last_t)
        self._router.push_chunk(chunk, targets)
        self._last_t = last_t

    def flush(self) -> Dict[str, List[TopKResult]]:
        """Drain the cluster, then emit end-of-stream reports of
        time-based windows; returns the merged per-query answers.

        No explicit barrier is needed: each worker drains its queued
        pushes before handling the flush command (FIFO queue ordering).
        """
        self._ensure_open()
        produced = self._router.broadcast(("flush",))
        merged = merge_disjoint(produced)
        return {name: merged[name] for name in self._handles if name in merged}

    def synchronize(self) -> int:
        """Block until every dispatched object has been processed; returns
        the cluster-wide processed-object count."""
        self._ensure_open()
        return self._router.barrier()

    def _active_shards(self) -> List[int]:
        return sorted({shard for shard in self._shard_of.values()})

    # ------------------------------------------------------------------
    # Rebalancing (the serialization layer in action)
    # ------------------------------------------------------------------
    def rebalance(self, name: str, to_shard: int) -> ShardSubscription:
        """Move a live subscription to another shard, answers preserved.

        The subscription's state — configuration, window contents, slide
        clock, retained answers, metrics — is captured and removed on the
        source shard (behind any queued pushes, which the worker drains
        first), and restored on the target through the standard
        drain-and-replay path: it joins the target's group of its window
        shape and position when there is one.  Any query moves after any
        push, and subsequent answers are byte-identical to an unmoved run.
        """
        self._ensure_open()
        source = self.shard_of(name)
        if not 0 <= to_shard < len(self._router):
            raise ValueError(
                f"shard {to_shard} out of range (cluster has {len(self._router)})"
            )
        if to_shard != source:
            self._move([name], source, to_shard)
        return self._handles[name]

    def _move(self, names: List[str], source: int, target: int) -> None:
        """Capture ``names`` off ``source`` (removing them there) and
        restore the captured groups on ``target``; on failure put them
        back on ``source``."""
        states = self._router.request(source, ("capture", names, True))
        # Pre-pickle once: the worker's restore takes the bytes directly,
        # so the (potentially large) windows + retained results are not
        # serialized a second time by the router's pickle check.
        payload = dumps(states)
        try:
            self._router.request(target, ("restore", payload))
        except Exception as target_error:
            try:
                self._router.request(source, ("restore", payload))
            except Exception:
                # Both shards refused: the subscriptions are hosted
                # nowhere, so stop advertising them and surface the cause.
                for name in names:
                    self._forget(name, source)
                raise ShardError(
                    f"moving {names} failed on the target shard {target} and "
                    f"the rollback to shard {source} failed too; the "
                    "subscriptions have been dropped"
                ) from target_error
            raise
        for name in names:
            load = self._placement.load_of(self._handles[name].query)
            self._loads[source] -= load
            self._loads[target] += load
            self._shard_of[name] = target

    # ------------------------------------------------------------------
    # Durability and elasticity
    # ------------------------------------------------------------------
    @property
    def durability_dir(self) -> Optional[str]:
        """The cluster's durability root, or ``None`` when not durable."""
        return self._durability_dir

    def durability_status(self) -> List[Dict[str, object]]:
        """Per-shard journal status (chunks logged, objects ingested,
        subscriptions recovered at the last boot); one cluster barrier."""
        self._ensure_open()
        return self._router.broadcast(("wal_status",))

    def resurrect_shard(self, shard_id: int) -> Dict[str, object]:
        """Revive a dead worker in place (durable clusters only).

        The replacement process recovers the shard's checkpoint + WAL
        tail, the router re-sends the received-but-unjournaled chunk
        tail, and the shard continues producing the exact answer stream
        the dead worker would have — see
        :meth:`~repro.cluster.router.ShardRouter.resurrect`.
        """
        self._ensure_open()
        return self._router.resurrect(shard_id)

    def spawn_shard(self) -> int:
        """Grow the cluster by one (initially empty) worker; returns the
        new shard id.  Move load onto it with :meth:`rebalance`."""
        self._ensure_open()
        shard_id = self._router.add_shard()
        self._loads.append(0.0)
        self._write_manifest()
        return shard_id

    def retire_shard(self, shard_id: Optional[int] = None) -> int:
        """Drain and stop the highest-numbered worker; returns its id.

        Each query group the shard hosts first moves whole, in one
        capture, onto the least-loaded remaining shard, where it joins the
        group at its window position if there is one; then the
        worker is stopped and its journal removed.  Ids stay dense, so
        only the highest shard can retire.
        """
        self._ensure_open()
        last = len(self._router) - 1
        if shard_id is None:
            shard_id = last
        if shard_id != last:
            raise ValueError(
                f"only the highest-numbered shard can retire; got {shard_id}, "
                f"expected {last}"
            )
        if len(self._router) == 1:
            raise ValueError("cannot retire the last shard")
        for group in self._router.request(shard_id, ("groups",)):
            target = min(range(shard_id), key=self._loads.__getitem__)
            self._move(group["members"], shard_id, target)
        self._router.remove_shard(shard_id)
        self._loads.pop()
        self._write_manifest()
        return shard_id

    # ------------------------------------------------------------------
    # Reading answers and state
    # ------------------------------------------------------------------
    def results(self, name: str) -> List[TopKResult]:
        """Retained answers of one query.  Queue ordering drains the
        *hosting shard's* pending pushes first; use :meth:`synchronize`
        for a cluster-wide drain."""
        return self.subscription(name).results()

    def drain_results(self) -> Dict[str, List[TopKResult]]:
        """Fetch-and-discard every subscription's retained answers in one
        cluster-wide broadcast (the multi-process analogue of
        :meth:`repro.engine.core.EngineCore.drain_results`).  Queue
        ordering drains each shard's pending pushes first, so the answers
        cover everything dispatched before this call."""
        self._ensure_open()
        merged = merge_disjoint(self._router.broadcast(("drain",)))
        return {name: merged[name] for name in self._handles if name in merged}

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-subscription statistics, merged across shards."""
        self._ensure_open()
        merged = merge_disjoint(self._router.broadcast(("stats",)))
        return {name: merged[name] for name in self._handles if name in merged}

    def aggregate_stats(self) -> Dict[str, float]:
        """Cluster-wide latency distribution: percentiles of every
        subscription's latency sketches added together (never an average
        of per-shard percentiles), within 1% of the exact ones."""
        self._ensure_open()
        return merged_latency_stats(self._router.broadcast(("telemetry",)))

    def transport_stats(self) -> Dict[int, Dict[str, object]]:
        """Per-shard data-path breakdown, keyed by shard id: the router's
        serialize/send counters merged with the worker's deserialize
        counters (one cluster-wide barrier)."""
        self._ensure_open()
        merged: Dict[int, Dict[str, object]] = {}
        router_side = self._router.transport_stats()
        worker_side = self._router.broadcast(("transport_stats",))
        for shard_id, record in zip(self._router.shard_ids(), worker_side):
            entry = dict(router_side.get(shard_id, {}))
            entry.update(record or {})
            merged[shard_id] = entry
        return merged

    # ------------------------------------------------------------------
    # Observability (cluster-aggregated metrics)
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> List[Dict[str, object]]:
        """One cluster-wide metrics snapshot: this process's registry
        (router fan-out stages, facade instruments) merged with every
        worker's, each worker's series stamped ``shard="<id>"``.  Counter
        and histogram series sum across processes; facade-process series
        stay unlabelled by shard."""
        self._ensure_open()
        snapshots = [get_registry().snapshot(), *self._router.broadcast(("metrics",))]
        extra = [None] + [
            {"shard": str(shard_id)} for shard_id in self._router.shard_ids()
        ]
        return merge_snapshots(snapshots, extra)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time state of every subscription, keyed by name."""
        self._ensure_open()
        merged = merge_disjoint(self._router.broadcast(("snapshot",)))
        return {name: merged[name] for name in self._handles if name in merged}

    def groups(self) -> List[Dict[str, object]]:
        """Every shard's query groups, tagged with their shard."""
        self._ensure_open()
        described: List[Dict[str, object]] = []
        for shard, groups in zip(self._router.shard_ids(), self._router.broadcast(("groups",))):
            for group in groups:
                tagged = dict(group)
                tagged["shard"] = shard
                described.append(tagged)
        return described

    def _request_shard(self, name: str, message) -> object:
        """Synchronous request to the shard hosting ``name`` (drains that
        shard's queued pushes first, by queue ordering)."""
        self._ensure_open()
        return self._router.request(self.shard_of(name), message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> Dict[str, List[TopKResult]]:
        """Flush every shard, stop the workers, and return the merged
        final-flush answers.  Closing twice is a no-op.

        Shutdown is best-effort: a shard that already failed (its error
        was observable on every earlier synchronous call) cannot block the
        rest of the cluster from stopping, so its final flush is skipped
        rather than raised here — the worker still closes its engine
        before replying, so a latched failure leaks nothing.  Repeated
        ``close()`` (e.g. an explicit call followed by ``__exit__``, or a
        retry after a worker failure surfaced) stays a safe no-op.
        """
        if self._closed:
            return {}
        self._closed = True
        try:
            produced: Dict[str, List[TopKResult]] = {}
            for shard_id in self._router.shard_ids():
                try:
                    produced.update(self._router.request(shard_id, ("close",)))
                except Exception:
                    # ShardError (latched failure / dead worker) or any
                    # transport problem: shutdown must not raise half-way,
                    # the remaining shards still need their close.
                    continue
            return {name: produced[name] for name in self._handles if name in produced}
        finally:
            self._router.stop()

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise AlgorithmStateError("the engine is closed")
