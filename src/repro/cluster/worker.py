"""The shard worker: one :class:`StreamEngine` behind a command queue.

Each worker is a separate OS process (its own interpreter, its own GIL)
hosting a full single-process engine — query groups, ``k_max`` shared
plans, and optionally an adaptive controller all work inside a shard
exactly as they do locally.  The worker loop is deliberately dumb: it
pops ``(opcode, ...)`` tuples off its command queue, applies them to the
engine, and pushes ``("ok", payload)`` / ``("err", message)`` tuples onto
its reply queue for synchronous opcodes.

``push`` is the one asynchronous opcode: the router streams pre-chunked,
slide-aligned object batches without waiting for replies (that is where
the parallelism comes from), and any failure raised while processing a
batch is latched and surfaced at the next synchronous opcode, so errors
cannot disappear just because nobody was waiting.
"""

from __future__ import annotations

import os
import time
import traceback
from queue import Empty
from typing import Dict, Optional

from ..control import AdaptiveController
from ..core.columnar import decode_chunk
from ..core.state import loads
from ..engine import StreamEngine
from ..obs.registry import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from ..obs.tracing import Tracer, set_tracer, span_payload

#: Opcodes that reply on the worker's reply queue.  ``push`` and ``stop``
#: are fire-and-forget; everything else is synchronous.
SYNC_OPS = frozenset(
    {
        "subscribe",
        "update_preference",
        "unsubscribe",
        "flush",
        "sync",
        "results",
        "drain",
        "latest",
        "stats",
        "stats_one",
        "snapshot_one",
        "telemetry",
        "transport_stats",
        "metrics",
        "spans",
        "set_tracing",
        "snapshot",
        "groups",
        "capture",
        "restore",
        "attach_controller",
        "detach_controller",
        "controller_report",
        "wal_status",
        "manifest",
        "close",
    }
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
    # This process's tracer carries the shard id on every span; installed
    # before the engine exists so subscriptions and groups cache the right
    # one.  The facade's "set_tracing" broadcast flips it on.
    tracer = Tracer(shard=shard_id)
    set_tracer(tracer)
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
    controller: Optional[AdaptiveController] = None
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

    def telemetry() -> Dict[str, Dict[str, object]]:
        """Per-subscription statistics plus the raw bounded latency sample,
        so the facade can merge percentiles from samples instead of
        averaging per-shard percentiles (which would be wrong)."""
        record: Dict[str, Dict[str, object]] = {}
        for name in engine.subscriptions():
            subscription = engine.subscription(name)
            record[name] = {
                "stats": subscription.stats(),
                "latencies": list(subscription.metrics.latencies),
                "shard": shard_id,
            }
        return record

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
            # Pre-increment sequence number: matches the router's
            # ``sent_chunks`` stamp on its encode/send spans, so the
            # trace stitches across the process boundary.
            seq = decode_stats["decoded_batches"]
            started = time.perf_counter()
            objects, block = decode_chunk(payload, materialize=False)
            decode_seconds = time.perf_counter() - started
            obs_decode.observe(decode_seconds)
            if tracer.enabled:
                tracer.record(
                    "decode",
                    seq,
                    time.time() - decode_seconds,
                    decode_seconds,
                    f"bytes={len(payload)}",
                )
            count = len(block) if block is not None else len(objects)
            decode_stats["decode_seconds"] += decode_seconds
            decode_stats["decode_bytes"] += len(payload)
            decode_stats["decoded_batches"] += 1
            decode_stats["decoded_objects"] += count
            # The router pre-chunks to slide-aligned sizes; a columnar
            # chunk moves through each query group in block form.
            started = time.perf_counter()
            if block is not None:
                pushed += engine.push_block(block)
            else:
                pushed += engine.push_many(objects, chunk_size=max(1, len(objects)))
            push_seconds = time.perf_counter() - started
            obs_push.observe(push_seconds)
            if tracer.enabled:
                tracer.record(
                    "push",
                    seq,
                    time.time() - push_seconds,
                    push_seconds,
                    f"objects={count}",
                )
        except BaseException:
            failure = traceback.format_exc()

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

        # Synchronous opcodes.  SYNC_OPS is the contract: anything else is
        # rejected here, so the dispatch below and the documented opcode
        # split cannot drift apart.
        if op not in SYNC_OPS:
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
            payload: object = None
            if op == "subscribe":
                _, name, query, algorithm, options, keep, buffer, metrics = message
                engine.subscribe(
                    name,
                    query,
                    algorithm=algorithm,
                    keep_results=keep,
                    result_buffer=buffer,
                    collect_metrics=metrics,
                    **options,
                )
            elif op == "update_preference":
                payload = engine.update_preference(message[1], message[2])
            elif op == "unsubscribe":
                engine.unsubscribe(message[1])
            elif op == "flush":
                payload = engine.flush()
            elif op == "sync":
                payload = pushed
            elif op == "results":
                _, name, drain = message
                subscription = engine.subscription(name)
                payload = (
                    list(subscription.drain()) if drain else subscription.results()
                )
            elif op == "drain":
                payload = engine.drain_results()
            elif op == "latest":
                payload = engine.subscription(message[1]).latest()
            elif op == "stats":
                payload = engine.stats()
            elif op == "stats_one":
                payload = engine.subscription(message[1]).stats()
            elif op == "snapshot_one":
                payload = engine.subscription(message[1]).snapshot()
            elif op == "telemetry":
                payload = telemetry()
            elif op == "transport_stats":
                payload = {"shard": shard_id, **decode_stats}
            elif op == "metrics":
                payload = registry.snapshot()
            elif op == "spans":
                payload = span_payload(tracer.drain())
            elif op == "set_tracing":
                if message[1]:
                    tracer.enable()
                else:
                    tracer.disable()
            elif op == "snapshot":
                payload = engine.snapshot()
            elif op == "groups":
                payload = engine.groups()
            elif op == "capture":
                _, names, remove = message
                payload = engine.capture_groups(names)
                if remove:
                    for name in names:
                        engine.unsubscribe(name)
            elif op == "restore":
                engine.restore_groups(loads(message[1]))
            elif op == "attach_controller":
                if controller is not None:
                    raise RuntimeError(f"shard {shard_id} already has a controller")
                controller = AdaptiveController(message[1])
                engine.attach_controller(controller)
            elif op == "detach_controller":
                engine.detach_controller()
                controller = None
            elif op == "wal_status":
                # Resurrection handshake: how many chunks the journal
                # holds, so the router knows which retained chunks to
                # re-send.
                payload = {
                    "shard": shard_id,
                    "chunks": durability.chunks_logged if durability is not None else None,
                    "ingested": pushed,
                    "recovered_subscriptions": (
                        None if recovery is None else recovery.restored_subscriptions
                    ),
                    "recovered_groups": (
                        None if recovery is None else recovery.restored_groups
                    ),
                }
            elif op == "manifest":
                # Which subscriptions this shard hosts and the last t its
                # engine admitted — the facade rebuilds its name->shard
                # map, load accounting and order check from these after a
                # restart.  The engine's own t is kept both live and
                # through checkpoint restore plus journal replay.
                payload = {
                    "subscriptions": {
                        name: engine.subscription(name).query
                        for name in engine.subscriptions()
                    },
                    "last_t": engine.last_t,
                }
            elif op == "controller_report":
                if controller is None:
                    payload = None
                else:
                    payload = {
                        "shard": shard_id,
                        "events": [event.as_dict() for event in controller.events()],
                        "accuracy": controller.accuracy_report(),
                        "knowledge": controller.knowledge.describe(),
                    }
            else:  # op == "close" (the last member of SYNC_OPS)
                payload = engine.close()
            replies.put(("ok", payload))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the facade
            replies.put(
                ("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )
