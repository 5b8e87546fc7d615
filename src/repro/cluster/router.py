"""The shard router: process handles, fan-out, and barriers.

:class:`ShardRouter` owns the worker processes and feeds each one through
a single ``mp.Queue`` that carries both kinds of traffic in FIFO order:

* the **data path** — asynchronous ``push`` batches, fanned out to every
  interested shard without waiting so all workers crunch in parallel.  The
  chunk is packed once into :func:`~repro.core.columnar.encode_chunk`
  bytes and the same payload is enqueued for every target shard.
* the **control path** — synchronous request/reply.  Because one worker
  processes its queue strictly in order, a synchronous request also acts
  as a barrier for everything queued to that shard before it;
  :meth:`barrier` exploits this to drain the whole cluster before
  operations that need a consistent cut (stats, flush, rebalance, close).

Bounded command queues give natural backpressure: a producer that outruns
the workers blocks on ``put`` (with exponential backoff) instead of
buffering the stream in memory, and surfaces a typed
:class:`ShardBackpressureError` naming the shard when the stall exceeds
the configured budget.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import time
from collections import deque
from queue import Empty, Full
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.columnar import encode_chunk
from ..core.exceptions import ReproError
from ..core.state import dumps
from ..obs.registry import LATENCY_BUCKETS, get_registry
from .worker import shard_worker_main

#: Command-queue depth per worker.  Small on purpose: each entry can carry
#: a whole slide-aligned chunk, so even a depth of 8 keeps every worker
#: busy while bounding the in-flight stream to O(depth * chunk).
DEFAULT_QUEUE_DEPTH = 8

#: Upper bound of the poll interval used while waiting on replies and on
#: backpressured puts; both waits start small and back off exponentially
#: to this cap, so failures surface fast without busy-spinning.
REPLY_POLL_SECONDS = 1.0
_POLL_MIN_SECONDS = 0.005

#: How long a producer may stay blocked on one shard's full command queue
#: before the stall is reported as backpressure.
DEFAULT_BACKPRESSURE_TIMEOUT = 30.0


class ShardError(ReproError):
    """A shard worker failed or died; carries the remote traceback."""


class ShardBackpressureError(ShardError):
    """A shard's inbound path stayed full past the backpressure budget.

    Distinct from a generic :class:`ShardError` so callers can react to
    overload (shed load, widen the cluster, slow the producer) differently
    from worker death; ``shard_id`` names the congested shard.
    """

    def __init__(self, message: str, shard_id: int) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class _TransportCounters:
    """Router-side per-shard accounting of the data path."""

    __slots__ = ("encode_seconds", "send_seconds", "bytes", "batches", "objects")

    def __init__(self) -> None:
        self.encode_seconds = 0.0
        self.send_seconds = 0.0
        self.bytes = 0
        self.batches = 0
        self.objects = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "encode_seconds": self.encode_seconds,
            "send_seconds": self.send_seconds,
            "bytes": self.bytes,
            "batches": self.batches,
            "objects": self.objects,
        }


class _ShardHandle:
    """One worker process plus its queues and liveness state."""

    __slots__ = (
        "shard_id",
        "process",
        "commands",
        "replies",
        "sent_chunks",
        "counters",
        "bp_waits",
        "durability_dir",
        "retained",
    )

    def __init__(
        self,
        shard_id: int,
        ctx,
        queue_depth: int,
        durability_dir: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self.commands = ctx.Queue(maxsize=queue_depth)
        self.replies = ctx.Queue()
        self.sent_chunks = 0
        self.counters = _TransportCounters()
        self.bp_waits = 0
        self.durability_dir = durability_dir
        # Resurrection buffer: the most recent ``(seq, payload)`` sends.
        # A crashed worker has journaled every chunk except those still in
        # flight, and in-flight is bounded by the queue depth — so this
        # deque provably covers the journal -> send-count gap.
        if durability_dir is not None:
            self.retained: Optional[deque] = deque(maxlen=2 * queue_depth + 4)
        else:
            self.retained = None
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(shard_id, self.commands, self.replies),
            kwargs={"durability_dir": durability_dir},
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )


class ShardRouter:
    """Owns the worker pool; routes commands and collects replies."""

    def __init__(
        self,
        shard_count: int,
        *,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        backpressure_timeout: Optional[float] = DEFAULT_BACKPRESSURE_TIMEOUT,
        durability_root: Optional[str] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        # ``fork`` starts workers in milliseconds and is the Linux default;
        # ``spawn`` works too (the worker entry point is importable) and is
        # the fallback where fork is unavailable.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        self.backpressure_timeout = backpressure_timeout
        self.queue_depth = queue_depth
        self.durability_root = durability_root
        self._shards: List[_ShardHandle] = [
            self._build_handle(shard_id) for shard_id in range(shard_count)
        ]
        for shard in self._shards:
            shard.process.start()
        self._stopped = False
        # Router-process observability: the fan-out stages as histograms,
        # and a pull-time collector exporting the per-shard data-path
        # counters (already maintained — zero hot-path cost).  Worker-process stages live in each worker's registry.
        registry = get_registry()
        stage_help = "Pipeline stage timings over the slide lifecycle."
        self._obs_encode = registry.histogram(
            "repro_stage_seconds", stage_help, {"stage": "encode"}, LATENCY_BUCKETS
        )
        self._obs_send = registry.histogram(
            "repro_stage_seconds", stage_help, {"stage": "send"}, LATENCY_BUCKETS
        )
        self._registry = registry
        registry.add_collector(self._collect)

    def _build_handle(self, shard_id: int) -> _ShardHandle:
        """Construct (but do not start) one worker handle."""
        durability_dir = None
        if self.durability_root is not None:
            durability_dir = os.path.join(self.durability_root, f"shard-{shard_id}")
        return _ShardHandle(shard_id, self._ctx, self.queue_depth, durability_dir)

    def _collect(self, registry) -> None:
        """Pull-time export of the data-path state this router maintains."""
        for shard in self._shards:
            labels = {"shard": str(shard.shard_id), "direction": "send"}
            counters = shard.counters
            # Counter values mirror external monotone state, so the
            # collector assigns rather than increments.
            registry.counter(
                "repro_transport_bytes_total", "Encoded chunk bytes moved.", labels
            ).value = float(counters.bytes)
            registry.counter(
                "repro_transport_batches_total", "Chunks moved.", labels
            ).value = float(counters.batches)
            registry.counter(
                "repro_transport_objects_total", "Stream objects moved.", labels
            ).value = float(counters.objects)
            registry.counter(
                "repro_backpressure_waits_total",
                "Producer stalls on a full shard inbound path.",
                {"shard": str(shard.shard_id)},
            ).value = float(shard.bp_waits)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shards)

    def shard_ids(self) -> List[int]:
        return [shard.shard_id for shard in self._shards]

    def _handle(self, shard_id: int) -> _ShardHandle:
        try:
            return self._shards[shard_id]
        except IndexError:
            raise ValueError(
                f"no shard {shard_id}; cluster has {len(self._shards)} shards"
            ) from None

    def _put(self, shard: _ShardHandle, message: Tuple) -> None:
        """Enqueue one command with backpressure, bounded backoff, *and* a
        liveness check: a worker that died with a full command queue must
        surface as a :class:`ShardError` instead of blocking the producer
        forever, and a healthy-but-stalled queue must surface as
        :class:`ShardBackpressureError` once the budget is spent."""
        deadline = (
            time.monotonic() + self.backpressure_timeout
            if self.backpressure_timeout is not None
            else None
        )
        delay = _POLL_MIN_SECONDS
        waited = False
        while True:
            try:
                shard.commands.put(message, timeout=delay)
                return
            except Full:
                if not waited:
                    waited = True
                    shard.bp_waits += 1
                if not shard.process.is_alive():
                    raise ShardError(
                        f"shard {shard.shard_id} died (exit code "
                        f"{shard.process.exitcode}) with a full command queue"
                    ) from None
                if deadline is not None and time.monotonic() > deadline:
                    raise ShardBackpressureError(
                        f"shard {shard.shard_id} command queue stayed full for "
                        f"{self.backpressure_timeout}s (backpressure)",
                        shard_id=shard.shard_id,
                    ) from None
                delay = min(delay * 2, REPLY_POLL_SECONDS)

    # ------------------------------------------------------------------
    # Data path (asynchronous)
    # ------------------------------------------------------------------
    def send(self, shard_id: int, message: Tuple) -> None:
        """Enqueue a fire-and-forget command (blocks on backpressure)."""
        self._put(self._handle(shard_id), message)

    def push_chunk(self, chunk: Sequence, shard_ids: Sequence[int]) -> None:
        """Fan one slide-aligned chunk out to the given shards.

        The chunk is packed once into columnar wire bytes; each shard then
        receives the same immutable payload on its command queue.
        """
        targets = [self._handle(shard_id) for shard_id in shard_ids]
        if not targets:
            return
        started = time.perf_counter()
        payload = encode_chunk(chunk)
        encode_seconds = time.perf_counter() - started
        self._obs_encode.observe(encode_seconds)
        size = len(payload)
        count = len(chunk)
        for shard in targets:
            counters = shard.counters
            counters.encode_seconds += encode_seconds / len(targets)
            counters.bytes += size
            counters.batches += 1
            counters.objects += count
            if shard.retained is not None:
                # Retain *before* sending: a worker that dies mid-send
                # must still find this chunk in the resurrection buffer.
                shard.retained.append((shard.sent_chunks, payload))
            started = time.perf_counter()
            self._put(shard, ("push", payload))
            send_seconds = time.perf_counter() - started
            counters.send_seconds += send_seconds
            self._obs_send.observe(send_seconds)
            shard.sent_chunks += 1

    def transport_stats(self) -> Dict[int, Dict[str, float]]:
        """Router-side data-path counters, keyed by shard id."""
        return {shard.shard_id: shard.counters.as_dict() for shard in self._shards}

    def pressure_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-shard saturation signal: the lifetime backpressure-stall
        count (a producer that found the shard's queue full)."""
        return {
            shard.shard_id: {"bp_waits": float(shard.bp_waits)}
            for shard in self._shards
        }

    # ------------------------------------------------------------------
    # Control path (synchronous request/reply)
    # ------------------------------------------------------------------
    @staticmethod
    def _checked(message: Tuple) -> Tuple:
        """Validate that a control message pickles *before* enqueueing it.

        ``mp.Queue`` serializes in a background feeder thread: an
        unpicklable payload (a closure option, a locally defined class) would
        otherwise never reach the worker, and the caller would block
        forever waiting for a reply that cannot come.  Failing here turns
        that silent hang into a clear :class:`StateSerializationError`.
        The data path skips this check (chunks travel as already-encoded
        bytes; double-pickling every chunk would dominate the fan-out
        cost)."""
        dumps(message)
        return message

    def request(self, shard_id: int, message: Tuple):
        """Send a synchronous command and return its payload.

        Raises :class:`ShardError` when the worker reports a failure or
        dies before replying, and
        :class:`~repro.core.state.StateSerializationError` when the
        message itself cannot cross the process boundary.
        """
        shard = self._handle(shard_id)
        self._put(shard, self._checked(message))
        return self._await_reply(shard, message[0])

    def broadcast(self, message: Tuple, shard_ids: Optional[Sequence[int]] = None):
        """Send a synchronous command to several shards; returns the
        payloads in shard order.  The sends all go out before any reply is
        awaited, so the shards execute concurrently.

        Every reply is consumed even when one shard errors — otherwise the
        unconsumed "ok" replies of the healthy shards would desynchronize
        the request/reply pairing of every later command.  The first
        shard's error (in shard order) is raised after the collection
        pass; a dead shard's missing reply cannot stall the drain of the
        others.
        """
        targets = [self._handle(s) for s in (shard_ids if shard_ids is not None else self.shard_ids())]
        message = self._checked(message)
        for shard in targets:
            self._put(shard, message)
        payloads = []
        first_error: Optional[ShardError] = None
        for shard in targets:
            try:
                payloads.append(self._await_reply(shard, message[0]))
            except ShardError as exc:
                payloads.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return payloads

    def barrier(self, shard_ids: Optional[Sequence[int]] = None) -> int:
        """Wait until every queued command has been processed; returns the
        total number of objects pushed across the drained shards."""
        return sum(self.broadcast(("sync",), shard_ids))

    def _await_reply(self, shard: _ShardHandle, op: str):
        # Escalating poll: short waits right after the send (replies to
        # cheap ops arrive in microseconds), backing off to
        # REPLY_POLL_SECONDS between liveness checks of a slow worker.
        poll = _POLL_MIN_SECONDS
        while True:
            try:
                status, payload = shard.replies.get(timeout=poll)
            except Empty:
                if not shard.process.is_alive():
                    raise ShardError(
                        f"shard {shard.shard_id} died (exit code "
                        f"{shard.process.exitcode}) before replying to {op!r}"
                    ) from None
                poll = min(poll * 2, REPLY_POLL_SECONDS)
                continue
            if status == "err":
                raise ShardError(f"shard {shard.shard_id} {op!r} failed: {payload}")
            return payload

    # ------------------------------------------------------------------
    # Resurrection and elasticity
    # ------------------------------------------------------------------
    def resurrect(self, shard_id: int) -> Dict[str, object]:
        """Restart a dead worker in place from its durability directory.

        The replacement process recovers the shard's journal (checkpoint +
        WAL tail) at boot; the router then re-sends the chunk tail the
        dead worker had *received but not yet journaled* — bounded by the
        command queue's in-flight window and therefore always covered by
        the retention buffer.  The new handle inherits the lifetime send
        count, which the journal's chunk count is compared against.
        Returns the worker's ``wal_status`` payload.
        """
        old = self._handle(shard_id)
        if old.durability_dir is None:
            raise ShardError(
                f"shard {shard_id} has no durability directory; start the "
                "router with durability_root to enable resurrection"
            )
        if old.process.is_alive():
            raise ShardError(
                f"shard {shard_id} is still alive; refusing to resurrect it"
            )
        # Reap the corpse.  Its queues may hold undelivered
        # chunks; every one of them is still in the retention buffer.
        try:
            old.process.join(timeout=1.0)
        except Exception:
            pass
        for queue in (old.commands, old.replies):
            try:
                queue.close()
                queue.cancel_join_thread()
            except Exception:
                pass
        fresh = self._build_handle(shard_id)
        fresh.sent_chunks = old.sent_chunks
        fresh.counters = old.counters
        fresh.bp_waits = old.bp_waits
        fresh.retained = old.retained
        self._shards[shard_id] = fresh
        fresh.process.start()
        self._put(fresh, ("wal_status",))
        status = self._await_reply(fresh, "wal_status")
        self._resend_tail(fresh, int(status["chunks"] or 0))
        return status

    def _resend_tail(self, shard: _ShardHandle, logged: int) -> None:
        """Re-send every sent chunk the worker's journal does not hold."""
        if logged >= shard.sent_chunks:
            return
        tail = [(seq, payload) for seq, payload in shard.retained if seq >= logged]
        if [seq for seq, _ in tail] != list(range(logged, shard.sent_chunks)):
            raise ShardError(
                f"shard {shard.shard_id} resurrection gap: the journal holds "
                f"{logged} chunks and {shard.sent_chunks} were sent, but the "
                f"retention buffer covers only {[seq for seq, _ in tail]}"
            )
        for _, payload in tail:
            # Raw re-send: these are already counted in ``sent_chunks``
            # and already sit in the retention buffer.
            self._put(shard, ("push", payload))

    def add_shard(self) -> int:
        """Grow the pool by one worker; returns the new shard id."""
        shard_id = len(self._shards)
        if self.durability_root is not None:
            # A previously retired shard of the same id must not leave a
            # stale journal for the newcomer to "recover".
            shutil.rmtree(
                os.path.join(self.durability_root, f"shard-{shard_id}"),
                ignore_errors=True,
            )
        fresh = self._build_handle(shard_id)
        self._shards.append(fresh)
        fresh.process.start()
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Retire the highest-numbered worker (ids stay dense).

        The caller is responsible for having drained the shard's
        subscriptions off it first (see the facade's ``retire_shard``).
        """
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        if shard_id != len(self._shards) - 1:
            raise ValueError(
                f"only the highest-numbered shard can be removed; "
                f"got {shard_id}, expected {len(self._shards) - 1}"
            )
        shard = self._shards.pop()
        try:
            shard.commands.put(("stop",), timeout=1.0)
        except Exception:
            pass
        shard.process.join(timeout=5.0)
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=5.0)
        for queue in (shard.commands, shard.replies):
            try:
                queue.close()
                queue.cancel_join_thread()
            except Exception:
                pass
        if shard.durability_dir is not None:
            shutil.rmtree(shard.durability_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop and reap every worker (idempotent, never raises)."""
        if self._stopped:
            return
        self._stopped = True
        registry = getattr(self, "_registry", None)
        if registry is not None:
            registry.remove_collector(self._collect)
        for shard in self._shards:
            try:
                # Bounded: a dead worker with a full queue must not hang
                # shutdown; terminate() below reaps it regardless.
                shard.commands.put(("stop",), timeout=1.0)
            except Exception:
                pass
        for shard in self._shards:
            shard.process.join(timeout=join_timeout)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=join_timeout)
        for shard in self._shards:
            for queue in (shard.commands, shard.replies):
                try:
                    queue.close()
                    queue.cancel_join_thread()
                except Exception:
                    pass

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.stop(join_timeout=0.5)
        except Exception:
            pass
