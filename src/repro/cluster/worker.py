"""The shard worker: one :class:`StreamEngine` behind a command queue.

Each worker is a separate OS process (its own interpreter, its own GIL)
hosting a full single-process engine — query groups and ``k_max`` shared
plans work inside a shard exactly as they do locally.  The worker loop is
deliberately dumb: it pops ``(opcode, ...)`` tuples off its command queue,
answers each synchronous opcode with one call from its table — the four
subscription ops go to the engine's one op parser,
:meth:`~repro.engine.StreamEngine.apply_op` — and pushes
``("ok", payload)`` / ``("err", message)`` tuples onto its reply queue.

``push`` is the one asynchronous opcode: the router streams pre-chunked
object batches without waiting for replies (that is where
the parallelism comes from), and any failure raised while processing a
batch is latched and surfaced at the next synchronous opcode, so errors
cannot disappear just because nobody was waiting.  Every batch arrives
in the one columnar wire format (:func:`~repro.core.columnar.encode_chunk`
of a chunk the facade's ingest edge admitted) and enters the engine as
one :class:`~repro.core.columnar.SlideBlock`.
"""

from __future__ import annotations

import os
import time
import traceback
from queue import Empty
from typing import Optional

from ..core.columnar import decode_chunk
from ..engine import StreamEngine
from ..obs.registry import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
    set_registry,
)

#: How long an idle worker waits on its command queue before checking
#: that its parent is still alive.  The worker holds the queue's write end
#: too, so a SIGKILLed parent never shows up as end-of-file; without this
#: re-check the worker would block forever as an orphan.
PARENT_CHECK_SECONDS = 1.0


def shard_worker_main(
    shard_id: int,
    commands,
    replies,
    durability_dir: Optional[str] = None,
) -> None:
    """Entry point of a worker process (module-level so every
    multiprocessing start method can import it).  Data chunks and control
    messages both arrive on ``commands``, in the order the router sent
    them.  A worker whose parent dies (it is re-parented, so
    ``os.getppid()`` changes) exits without touching its engine, exactly
    as if it had been killed with the parent.

    With a ``durability_dir`` the worker journals every received chunk
    and subscription op into a :class:`repro.durability.DurabilityManager`
    and recovers any prior state from the directory at boot — the
    resurrection path of :meth:`~repro.cluster.router.ShardRouter`
    restarts a SIGKILL'd worker this way, then re-sends the chunk tail
    the dead process had received but not yet logged."""
    parent_pid = os.getppid()
    # A fresh registry, not the inherited one: under the fork start method
    # the parent's families (and their values at fork time) would otherwise
    # leak into this worker's snapshot and double-count on merge.
    registry = MetricsRegistry(enabled=get_registry().enabled)
    set_registry(registry)
    stage_help = "Pipeline stage timings over the slide lifecycle."
    obs_decode = registry.histogram(
        "repro_stage_seconds", stage_help, {"stage": "decode"}, LATENCY_BUCKETS
    )
    obs_push = registry.histogram(
        "repro_stage_seconds", stage_help, {"stage": "push"}, LATENCY_BUCKETS
    )

    engine = StreamEngine(keep_results=True, return_results=True)
    pushed = 0
    failure: Optional[str] = None

    durability = None
    recovery = None
    if durability_dir is not None:
        from ..durability import DurabilityManager

        # The worker logs each chunk's wire payload on receipt (before
        # decoding), so the engine hook must not re-encode and re-log it.
        durability = DurabilityManager(durability_dir, logs_engine_chunks=False)
        recovery = durability.recover(engine)
        engine.attach_durability(durability)
        pushed = recovery.ingested_total

    decode_stats = {
        "decode_seconds": 0.0,
        "decode_bytes": 0,
        "decoded_batches": 0,
        "decoded_objects": 0,
    }

    def collect_transport(reg) -> None:
        """Pull-time export of the decode-side transport counters."""
        labels = {"direction": "recv"}
        reg.counter(
            "repro_transport_bytes_total", "Encoded chunk bytes moved.", labels
        ).value = float(decode_stats["decode_bytes"])
        reg.counter(
            "repro_transport_batches_total", "Chunks moved.", labels
        ).value = float(decode_stats["decoded_batches"])
        reg.counter(
            "repro_transport_objects_total", "Stream objects moved.", labels
        ).value = float(decode_stats["decoded_objects"])

    registry.add_collector(collect_transport)

    def handle_push(payload) -> None:
        """Apply one data chunk of :func:`~repro.core.columnar.encode_chunk`
        bytes, latching any failure for the next synchronous opcode."""
        nonlocal pushed, failure
        if failure is not None:
            return  # the shard is broken; drop data, keep the error
        try:
            if durability is not None:
                # Journal the wire payload ahead of application; the
                # replayed journal is then the exact received sequence.
                durability.log_encoded(bytes(payload))
            started = time.perf_counter()
            block = decode_chunk(payload)
            decode_seconds = time.perf_counter() - started
            obs_decode.observe(decode_seconds)
            decode_stats["decode_seconds"] += decode_seconds
            decode_stats["decode_bytes"] += len(payload)
            decode_stats["decoded_batches"] += 1
            decode_stats["decoded_objects"] += len(block)
            started = time.perf_counter()
            pushed += engine.push_block(block)
            obs_push.observe(time.perf_counter() - started)
        except BaseException:
            failure = traceback.format_exc()

    def capture(message):
        _, names, remove = message
        states = engine.capture_groups(names)
        if remove:
            for name in names:
                engine.unsubscribe(name)
        return states

    def results(message):
        subscription = engine.subscription(message[1])
        return list(subscription.drain()) if message[2] else subscription.results()

    def wal_status(message):
        # Resurrection handshake: how many chunks the journal holds, so
        # the router knows which retained chunks to re-send.
        return {
            "shard": shard_id,
            "chunks": durability.chunks_logged if durability is not None else None,
            "ingested": pushed,
            "recovered_subscriptions": (
                None if recovery is None else recovery.restored_subscriptions
            ),
            "recovered_groups": None if recovery is None else recovery.restored_groups,
        }

    def manifest(message):
        # Which subscriptions this shard hosts and the last t its engine
        # admitted — the facade rebuilds its name->shard map, load
        # accounting and order check from these after a restart.  The
        # engine's own t is kept both live and through checkpoint restore
        # plus journal replay.
        return {
            "subscriptions": {
                name: engine.subscription(name).query for name in engine.subscriptions()
            },
            "last_t": engine.last_t,
        }

    # Every synchronous opcode: one call each, ``message`` is the command
    # tuple.  ``push`` and ``stop`` are fire-and-forget; an opcode missing
    # here is rejected.
    calls = {
        **dict.fromkeys(
            ("subscribe", "unsubscribe", "update_preference", "restore"),
            engine.apply_op,
        ),
        "flush": lambda message: engine.flush(),
        "sync": lambda message: pushed,
        "results": results,
        "drain": lambda message: engine.drain_results(),
        "latest": lambda message: engine.subscription(message[1]).latest(),
        "stats": lambda message: engine.stats(),
        "stats_one": lambda message: engine.subscription(message[1]).stats(),
        "snapshot_one": lambda message: engine.subscription(message[1]).snapshot(),
        "telemetry": lambda message: engine.telemetry(shard_id),
        "transport_stats": lambda message: {"shard": shard_id, **decode_stats},
        "metrics": lambda message: registry.snapshot(),
        "snapshot": lambda message: engine.snapshot(),
        "groups": lambda message: engine.groups(),
        "capture": capture,
        "wal_status": wal_status,
        "manifest": manifest,
        "close": lambda message: engine.close(),
    }

    while True:
        try:
            message = commands.get(timeout=PARENT_CHECK_SECONDS)
        except Empty:
            if os.getppid() != parent_pid:
                # Orphaned: the parent died without sending "stop".  Nobody
                # reads the replies any more, so do not wait to flush them.
                replies.cancel_join_thread()
                return
            continue
        op = message[0]
        if op == "stop":
            # Reap the engine on the way out so a worker stopped without a
            # prior "close" (e.g. best-effort facade shutdown after a
            # failure) still releases its subscriptions.
            try:
                engine.close()
            except BaseException:
                pass
            break
        if op == "push":
            handle_push(message[1])
            continue

        call = calls.get(op)
        if call is None:
            replies.put(("err", f"unknown opcode {op!r}"))
            continue
        if failure is not None:
            # The shard is latched broken: every synchronous opcode keeps
            # reporting the original failure.  "close" is special-cased so
            # shutdown still reaps the engine — the facade ignores the
            # error reply on its best-effort close path, and a repeated
            # close must stay a safe no-op rather than leak the engine.
            if op == "close":
                try:
                    engine.close()
                except BaseException:
                    pass
            replies.put(("err", f"shard {shard_id} failed during push:\n{failure}"))
            continue
        try:
            replies.put(("ok", call(message)))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the facade
            replies.put(
                ("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )
