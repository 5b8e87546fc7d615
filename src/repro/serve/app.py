"""The serving application: an asyncio facade over a live engine.

:class:`TopKServer` turns a :class:`~repro.engine.StreamEngine` (or a
:class:`~repro.cluster.ShardedStreamEngine`) into a long-running network
service — the ``repro serve`` CLI command is a thin wrapper around it.
The HTTP surface is declared once, as data, in :mod:`repro.serve.schema`
— :data:`~repro.serve.schema.ROUTES` is simultaneously the route table
this module dispatches from and the documentation the README embeds.
Every path lives under ``/v1/``.  Subscription bodies are
validated by :meth:`repro.engine.spec.QuerySpec.from_dict` — the same
typed validator behind every library-level ``subscribe`` call.

With :attr:`ServeConfig.durability_dir` set the server is crash-exact:
the engine journals every ingested slide and checkpoints subscription
state under that directory (:mod:`repro.durability`), and the serving
layer keeps a ``sessions.json`` sidecar of the wire specs.  A restart
pointed at the same directory rebuilds the engine, the sessions, and the
retained answer histories, resumes the arrival clock, and continues the
exact pre-crash answer stream.

Threading model: the event loop owns every data structure in this module;
the engine — which is synchronous, CPU-bound, and not thread-safe — lives
behind a **single-worker executor thread**, and every engine touch goes
through :meth:`TopKServer._engine_call`.  One executor job both pushes a
batch and drains the answers it produced, so the engine is never observed
mid-batch.  Ingestion dedupes producer retries through a bounded LRU
window (:mod:`repro.serve.ingest`), pushes every admitted batch at once,
and fans drained answers out to bounded
per-client channels (:mod:`repro.serve.backpressure`) — a slow consumer
costs itself dropped answers (or its connection), never engine
throughput.

Shutdown is graceful on SIGINT/SIGTERM: the listener closes, the pending
ingest tail is pushed (draining in-flight slides), final answers are
delivered, every client stream receives an ``end`` event, and the engine
is closed on its own thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..core.exceptions import InvalidQueryError, ReproError
from ..engine.spec import QuerySpec
from ..obs.exposition import render_prometheus
from ..obs.registry import get_registry
from ..streams.preference import PreferenceError
from . import schema
from .backpressure import (
    DEFAULT_CLIENT_QUEUE,
    DROP_OLDEST,
    SLOW_CLIENT_POLICIES,
    AdmissionControl,
    AdmissionError,
    ChannelClosed,
    ClientChannel,
)
from .ingest import DEFAULT_DEDUPE_WINDOW, DedupeWindow, IngestBatcher, parse_event
from .protocol import (
    SSE_HEADER,
    HttpRequest,
    ProtocolError,
    error_response,
    read_request,
    render_response,
    sse_comment,
    sse_event,
)
from .sessions import Session, SessionRegistry

__all__ = ["ServeConfig", "TopKServer", "ServerHandle", "run_in_thread"]


@dataclass
class ServeConfig:
    """Tunables of the serving layer (all have working defaults)."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from ``.port``).
    port: int = 8765
    #: Execution plane: ``"local"`` (one in-process engine) or
    #: ``"sharded"`` (a multi-process :class:`ShardedStreamEngine`).
    engine: str = "local"
    shards: int = 2
    #: Admission control: new subscriptions past this cap get 429.
    max_subscriptions: int = 1024
    retry_after: int = 5
    #: Per-client result queue bound and the slow-client policy.
    client_queue: int = DEFAULT_CLIENT_QUEUE
    slow_client: str = DROP_OLDEST
    #: Idempotency window: distinct event ids remembered for dedupe.
    dedupe_window: int = DEFAULT_DEDUPE_WINDOW
    default_algorithm: str = "SAP"
    #: Durability: when set, the engine journals every ingested slide and
    #: checkpoints subscription state under this directory, and a restart
    #: pointed at the same directory recovers the exact pre-crash stream.
    durability_dir: Optional[str] = None
    #: Ingested chunks between checkpoints (None = the durability plane's default).
    checkpoint_interval: Optional[int] = None

    def validate(self) -> "ServeConfig":
        if self.engine not in ("local", "sharded"):
            raise ValueError(f"engine must be 'local' or 'sharded', got {self.engine!r}")
        if self.slow_client not in SLOW_CLIENT_POLICIES:
            raise ValueError(
                f"slow_client must be one of {SLOW_CLIENT_POLICIES}, "
                f"got {self.slow_client!r}"
            )
        for field_name in ("shards", "max_subscriptions", "client_queue",
                           "dedupe_window"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be positive")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")
        return self


def _default_engine_factory(config: ServeConfig):
    if config.engine == "sharded":
        from ..cluster import ShardedStreamEngine

        return ShardedStreamEngine(
            config.shards,
            keep_results=True,
            durability_dir=config.durability_dir,
        )
    from ..engine import StreamEngine

    if config.durability_dir is not None:
        return StreamEngine.recover(
            config.durability_dir,
            checkpoint_interval=config.checkpoint_interval,
            keep_results=True,
            return_results=True,
        )
    return StreamEngine(keep_results=True, return_results=True)


class TopKServer:
    """Asyncio subscription service over one live engine.

    Construct, ``await start()``, then either ``await serve_forever()``
    (installs signal handlers) or drive :meth:`request_shutdown` /
    :meth:`shutdown` yourself.  ``engine_factory`` overrides how the
    engine is built (it is called on the engine thread).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine_factory: Optional[Callable[[ServeConfig], object]] = None,
    ) -> None:
        self.config = (config or ServeConfig()).validate()
        self._engine_factory = engine_factory or _default_engine_factory
        self._engine = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.registry = SessionRegistry()
        self.admission = AdmissionControl(
            self.config.max_subscriptions, self.config.retry_after
        )
        self.dedupe = DedupeWindow(self.config.dedupe_window)
        self.batcher = IngestBatcher()
        self._flush_lock = asyncio.Lock()
        self._client_tasks: Set[asyncio.Task] = set()
        self._shutdown_requested = asyncio.Event()
        self._shutdown_finished = False
        self._started_at = time.time()
        self.dropped_no_subscribers = 0
        #: Serving-layer sidecar of subscription wire specs; together with
        #: the engine journal it makes sessions crash-recoverable.
        self._sessions_path = (
            None
            if self.config.durability_dir is None
            else os.path.join(self.config.durability_dir, "sessions.json")
        )
        self._session_specs: Dict[str, Dict] = {}
        #: Filled by :meth:`_recover_sessions` on a durable boot.
        self.recovery_info: Optional[Dict[str, object]] = None
        # Serving-layer instruments ride the process metrics registry as a
        # pull-time collector over state the layers already maintain.
        self._metrics_registry = get_registry()
        self._metrics_registry.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        """Pull-time export of the serving layer's state counters.

        Counter values mirror external monotone state, so the collector
        assigns rather than increments.
        """
        batcher = self.batcher.stats()
        registry.counter(
            "repro_ingested_total", "Events admitted by the ingest batcher."
        ).value = float(batcher["ingested"])
        registry.gauge(
            "repro_ingest_pending", "Admitted events not yet pushed to the engine."
        ).set(batcher["pending"])
        dedupe = self.dedupe.stats()
        registry.counter(
            "repro_dedupe_admitted_total", "Distinct event ids admitted."
        ).value = float(dedupe["admitted"])
        registry.counter(
            "repro_dedupe_duplicates_total", "Producer retries suppressed."
        ).value = float(dedupe["duplicates"])
        registry.counter(
            "repro_dedupe_evictions_total", "Ids evicted from the dedupe window."
        ).value = float(dedupe["evictions"])
        totals = self.registry.totals()
        registry.gauge("repro_sessions", "Live subscription sessions.").set(
            totals["sessions"]
        )
        registry.gauge("repro_clients", "Connected streaming clients.").set(
            totals["clients"]
        )
        registry.counter(
            "repro_results_pushed_total", "Answers fanned out to client channels."
        ).value = float(totals["results_pushed"])
        registry.counter(
            "repro_results_dropped_total", "Answers dropped on slow clients."
        ).value = float(totals["results_dropped"])
        registry.counter(
            "repro_dropped_no_subscribers_total",
            "Events dropped with no subscription to answer.",
        ).value = float(self.dropped_no_subscribers)
        registry.counter(
            "repro_subscriptions_rejected_total",
            "Subscriptions refused by admission control (429).",
        ).value = float(self.admission.stats()["rejected"])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        if self._server is None:
            raise RuntimeError("the server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "TopKServer":
        self._loop = asyncio.get_running_loop()
        self._engine = await self._engine_call(self._engine_factory, self.config)
        if self.config.durability_dir is not None:
            await self._recover_sessions()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.time()
        return self

    def request_shutdown(self) -> None:
        """Signal-safe trigger: ask the serve loop to shut down."""
        self._shutdown_requested.set()

    async def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGINT/SIGTERM (or :meth:`request_shutdown`), then
        shut down gracefully."""
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-main thread or unsupported platform
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful stop: close the listener, drain in-flight slides,
        deliver the final answers, end every client stream, close the
        engine.  Idempotent."""
        if self._shutdown_finished:
            return
        self._shutdown_finished = True
        self._shutdown_requested.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        async with self._flush_lock:
            tail = self.batcher.take_all()
            produced = await self._engine_call(self._drain_and_close, tail)
            self.registry.dispatch(produced)
        self.registry.close_all("server-shutdown")
        if self._client_tasks:
            await asyncio.wait(tuple(self._client_tasks), timeout=5.0)
        self._executor.shutdown(wait=True)
        self._metrics_registry.remove_collector(self._collect_metrics)

    def _drain_and_close(self, tail) -> Dict[str, List]:
        """Final engine job: push the ingest tail, drain every answer,
        close the engine, and merge the close-time flush answers in."""
        produced: Dict[str, List] = {}
        if self._engine is None:
            return produced
        try:
            if tail and len(self.registry):
                self._engine.push_many(tail, chunk_size=max(1, len(tail)))
            produced = self._engine.drain_results()
            for name, results in self._engine.close().items():
                produced.setdefault(name, []).extend(results)
        except ReproError:
            # A shard that failed earlier must not block shutdown; its
            # error was already observable on the ingest path.
            try:
                self._engine.close()
            except ReproError:
                pass
        return produced

    # ------------------------------------------------------------------
    # Engine access (everything engine-touching runs on one thread)
    # ------------------------------------------------------------------
    async def _engine_call(self, fn, *args):
        assert self._loop is not None
        return await self._loop.run_in_executor(self._executor, fn, *args)

    def _subscribe_engine(self, name: str, spec: QuerySpec):
        # One typed entry point: both engine planes accept a QuerySpec
        # carrying its own execution plan (algorithm, options, preference).
        return self._engine.subscribe(name, spec)

    def _push_and_drain(self, batch) -> Dict[str, List]:
        """One executor job: ingest a batch and collect its answers."""
        if batch:
            self._engine.push_many(batch, chunk_size=max(1, len(batch)))
        return self._engine.drain_results()

    async def _metrics_snapshot(self) -> List[Dict[str, object]]:
        """One cluster-aggregated metrics snapshot (engine thread: the
        sharded facade's snapshot is a worker broadcast)."""
        return await self._engine_call(self._metrics_snapshot_sync)

    def _metrics_snapshot_sync(self) -> List[Dict[str, object]]:
        engine = self._engine
        if (
            engine is not None
            and hasattr(engine, "metrics_snapshot")
            and not getattr(engine, "closed", False)
        ):
            # The sharded facade merges this process's registry (serving
            # instruments included, via the collector) with every worker's.
            return engine.metrics_snapshot()
        return self._metrics_registry.snapshot()

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    async def create_subscription(self, body: Dict) -> Session:
        if not isinstance(body, dict):
            raise ProtocolError(400, "the subscription body must be a JSON object")
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError(400, "a subscription requires a non-empty 'name'")
        if name in self.registry:
            raise ProtocolError(409, f"subscription {name!r} already exists")
        try:
            # The one wire validator: the same QuerySpec rules every
            # library-level subscribe call enforces.
            spec = QuerySpec.from_dict(
                {key: value for key, value in body.items() if key != "name"},
                default_algorithm=self.config.default_algorithm,
            )
        except (InvalidQueryError, PreferenceError) as exc:
            raise ProtocolError(400, str(exc)) from None

        self.admission.admit()  # raises AdmissionError -> 429
        try:
            handle = await self._engine_call(self._subscribe_engine, name, spec)
        except BaseException as exc:
            self.admission.release()
            if isinstance(exc, (InvalidQueryError, PreferenceError)):
                # Options the engine cannot plan (an unhashable value).
                raise ProtocolError(400, str(exc)) from None
            raise
        session = Session(
            name,
            handle.query,
            spec.algorithm or self.config.default_algorithm,
            handle,
            preference=spec.vector,
        )
        self.registry.add(session)
        self._session_specs[name] = spec.to_dict()
        self._persist_sessions()
        return session

    async def remove_subscription(self, name: str) -> None:
        session = self.registry.remove(name)
        if session is None:
            raise ProtocolError(404, f"no subscription named {name!r}")
        session.close("unsubscribed")
        self.admission.release()
        if not len(self.registry):
            # The last subscriber left: buffered events can never reach an
            # answer (new subscriptions only window future arrivals), so
            # drop them under the same rule as subscriber-less ingestion.
            self.dropped_no_subscribers += len(self.batcher.take_all())
        self._session_specs.pop(name, None)
        self._persist_sessions()
        await self._engine_call(self._engine.unsubscribe, name)

    # ------------------------------------------------------------------
    # Durability: the sessions sidecar and crash recovery
    # ------------------------------------------------------------------
    def _persist_sessions(self) -> None:
        """Atomically rewrite the sessions sidecar (durable servers only).

        The engine journal recovers the subscriptions themselves; the
        sidecar recovers the serving layer's view of them (the wire
        specs), so a restarted server can rebuild its Session objects.
        """
        if self._sessions_path is None:
            return
        tmp = self._sessions_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._session_specs, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._sessions_path)

    def _live_subscription_handles(self) -> Dict[str, object]:
        """Engine-thread job: every recovered subscription's handle."""
        engine = self._engine
        return {name: engine.subscription(name) for name in engine.subscriptions()}

    async def _recover_sessions(self) -> None:
        """Rebuild the serving layer over an engine recovered from disk.

        For each subscription the engine brought back, a Session is
        reconstructed from the sidecar's wire spec (falling back to the
        engine handle's own query when the sidecar lags a crash), the
        replayed answers are dispatched into its bounded history — so a
        polling client sees the exact stream an uncrashed server retained
        — and the ingest clock resumes past the journaled tail.
        """
        stored: Dict[str, Dict] = {}
        if self._sessions_path is not None:
            try:
                with open(self._sessions_path, "r", encoding="utf-8") as fh:
                    stored = json.load(fh)
            except (OSError, ValueError):
                stored = {}
        handles = await self._engine_call(self._live_subscription_handles)
        self._session_specs = {}
        for name, handle in handles.items():
            spec: Optional[QuerySpec] = None
            payload = stored.get(name)
            if payload is not None:
                try:
                    spec = QuerySpec.from_dict(
                        payload, default_algorithm=self.config.default_algorithm
                    )
                except (InvalidQueryError, PreferenceError):
                    spec = None
            if spec is None:
                spec = QuerySpec.from_query(handle.query).using(
                    self.config.default_algorithm
                )
            self.admission.admit()
            self.registry.add(
                Session(
                    name,
                    handle.query,
                    spec.algorithm or self.config.default_algorithm,
                    handle,
                    preference=spec.vector,
                )
            )
            self._session_specs[name] = spec.to_dict()
        self._persist_sessions()
        replayed = await self._engine_call(self._engine.drain_results)
        routed = self.registry.dispatch(replayed or {})
        # Both engines recover the newest admitted t from their journals.
        next_t = int(max(0, self._engine.last_t + 1))
        self.batcher.resume_from(next_t)
        report = getattr(self._engine, "recovery_report", None)
        self.recovery_info = {
            "recovered_subscriptions": len(handles),
            # Query groups rebuilt from the checkpoint (local engines; a
            # sharded engine recovers per shard, see durability_status).
            "restored_groups": None if report is None else report.restored_groups,
            "replayed_results": routed,
            "resumed_at_t": next_t,
        }

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def ingest(self, events: List[object]) -> Dict[str, int]:
        """Dedupe the events and push the admitted batch through the
        engine, delivering the answers.  Every event is validated first,
        so a request with one bad event is refused whole."""
        accepted = duplicates = 0
        parsed = [parse_event(raw) for raw in events]  # ValueError -> 400
        for event_id, score, payload in parsed:
            if event_id is not None and not self.dedupe.admit(event_id):
                duplicates += 1
                continue
            self.batcher.append(score, payload)
            accepted += 1
        if not len(self.registry):
            # Nobody is subscribed: the events cannot contribute to any
            # answer, so drop them (counted) instead of buffering forever.
            self.dropped_no_subscribers += len(self.batcher.take_all())
        elif len(self.batcher):
            await self._flush()
        return {
            "accepted": accepted,
            "duplicates": duplicates,
            "pending": len(self.batcher),
        }

    async def _flush(self) -> None:
        async with self._flush_lock:
            batch = self.batcher.take_all()
            if not batch or not len(self.registry):
                return
            produced = await self._engine_call(self._push_and_drain, batch)
            self.registry.dispatch(produced)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(error_response(exc.status, exc.message, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                streaming = await self._dispatch(request, reader, writer)
                if streaming or not request.wants_keep_alive():
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest, reader, writer) -> bool:
        """Route one request; returns True when the handler took over the
        connection (SSE)."""
        try:
            return await self._route(request, reader, writer)
        except ProtocolError as exc:
            writer.write(error_response(exc.status, exc.message))
        except AdmissionError as exc:
            writer.write(
                error_response(
                    429, str(exc), headers={"Retry-After": str(exc.retry_after)}
                )
            )
        except ValueError as exc:
            writer.write(error_response(400, str(exc)))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            writer.write(error_response(500, f"{type(exc).__name__}: {exc}"))
        await writer.drain()
        return False

    async def _route(self, request: HttpRequest, reader, writer) -> bool:
        """Dispatch one request from the declarative route table.

        :data:`repro.serve.schema.ROUTES` is the single definition of the
        wire surface; this method only resolves a match and runs the
        bound handler.  Streaming handlers take over the connection (and
        return True here); plain handlers return a
        ``(status, payload, content_type)`` triple.
        """
        try:
            matched = schema.match(request.method, request.segments)
        except schema.RouteNotFound:
            raise ProtocolError(404, f"no route for {request.path}") from None
        except schema.MethodNotAllowed as exc:
            raise ProtocolError(
                405,
                f"{request.method} not allowed here (allowed: {exc})",
            ) from None
        handler = getattr(self, "_h_" + matched.route.handler)
        if matched.route.streaming:
            await handler(request, matched.params, reader, writer)
            return True
        status, payload, content_type = await handler(request, matched.params)
        writer.write(
            render_response(status, payload, content_type=content_type)
        )
        await writer.drain()
        return False

    # ------------------------------------------------------------------
    # Route handlers (bound from schema.ROUTES by handler key)
    # ------------------------------------------------------------------
    async def _h_health(self, request, params):
        return 200, {"status": "ok", "uptime_s": self._uptime()}, None

    async def _h_stats(self, request, params):
        return 200, self.describe(), None

    async def _h_metrics(self, request, params):
        text = render_prometheus(await self._metrics_snapshot())
        return 200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"

    async def _h_metrics_json(self, request, params):
        return 200, {"ts": time.time(), "metrics": await self._metrics_snapshot()}, None

    async def _h_ingest(self, request, params):
        body = request.json()
        if isinstance(body, dict) and "events" in body:
            events = body["events"]
        elif isinstance(body, dict):
            events = [body]
        else:
            events = body
        if not isinstance(events, list):
            raise ProtocolError(400, "'events' must be a JSON array")
        return 200, await self.ingest(events), None

    async def _h_create_subscription(self, request, params):
        session = await self.create_subscription(request.json())
        return 201, session.describe(), None

    async def _h_list_subscriptions(self, request, params):
        return (
            200,
            {"subscriptions": [s.describe() for s in self.registry.sessions()]},
            None,
        )

    async def _h_get_subscription(self, request, params):
        session = self._session(params["name"])
        return 200, await self._engine_call(session.stats), None

    async def _h_delete_subscription(self, request, params):
        await self.remove_subscription(params["name"])
        return 204, None, None

    async def _h_get_results(self, request, params):
        session = self._session(params["name"])
        drain = request.query.get("drain", "").lower() in ("1", "true", "yes")
        return 200, {"results": session.read_history(drain)}, None

    async def _h_stream_sse(self, request, params, reader, writer):
        session = self._session(params["name"])
        await self._serve_sse(session, reader, writer)

    def _session(self, name: str) -> Session:
        session = self.registry.get(name)
        if session is None:
            raise ProtocolError(404, f"no subscription named {name!r}")
        return session

    def _uptime(self) -> float:
        return round(time.time() - self._started_at, 3)

    def describe(self) -> Dict[str, object]:
        """The ``/stats`` payload: every layer's counters in one place."""
        return {
            "engine": self.config.engine,
            "uptime_s": self._uptime(),
            "durability": {
                "dir": self.config.durability_dir,
                "recovery": self.recovery_info,
            },
            "ingest": {
                **self.batcher.stats(),
                "dedupe": self.dedupe.stats(),
                "dropped_no_subscribers": self.dropped_no_subscribers,
            },
            "admission": self.admission.stats(),
            "sessions": self.registry.totals(),
        }

    # ------------------------------------------------------------------
    # Streaming endpoints
    # ------------------------------------------------------------------
    async def _serve_sse(self, session: Session, reader, writer) -> None:
        channel = session.attach(
            ClientChannel(self.config.client_queue, self.config.slow_client)
        )
        writer.write(SSE_HEADER)
        writer.write(sse_comment(f"subscribed {session.name}"))
        monitor = asyncio.ensure_future(self._watch_disconnect(reader, channel))
        try:
            await writer.drain()
            while True:
                try:
                    record = await channel.get()
                except ChannelClosed as exc:
                    writer.write(sse_event({"reason": str(exc)}, event="end"))
                    await writer.drain()
                    break
                writer.write(sse_event(record, event="result"))
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-write
        finally:
            monitor.cancel()
            session.detach(channel)
            channel.close("client-disconnect")

    @staticmethod
    async def _watch_disconnect(reader, channel: ClientChannel) -> None:
        """Close the channel when the SSE client hangs up (EOF on read)."""
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    break
        except (ConnectionError, OSError):
            pass
        channel.close("client-disconnect")


# ----------------------------------------------------------------------
# Embedding helper: run a server on a background thread
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on its own thread (tests, examples, benchmarks)."""

    def __init__(self, server: TopKServer, loop, thread: threading.Thread, port: int):
        self.server = server
        self._loop = loop
        self._thread = thread
        self.port = port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    @property
    def loop(self):
        """The server's event loop — for scheduling work onto the server
        thread with :func:`asyncio.run_coroutine_threadsafe`."""
        return self._loop

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful shutdown and join the server thread."""
        try:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_in_thread(
    config: Optional[ServeConfig] = None,
    engine_factory: Optional[Callable[[ServeConfig], object]] = None,
    start_timeout: float = 15.0,
) -> ServerHandle:
    """Start a :class:`TopKServer` on a daemon thread and return a handle.

    The caller's thread talks to it over plain HTTP; ``handle.stop()``
    performs the same graceful shutdown a SIGTERM would.
    """
    started = threading.Event()
    holder: Dict[str, object] = {}

    def runner() -> None:
        async def main() -> None:
            server = TopKServer(config, engine_factory)
            try:
                await server.start()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                holder["error"] = exc
                started.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            holder["port"] = server.port
            started.set()
            await server.serve_forever(install_signal_handlers=False)

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise RuntimeError("the server did not start in time")
    if "error" in holder:
        raise holder["error"]  # type: ignore[misc]
    return ServerHandle(
        holder["server"], holder["loop"], thread, holder["port"]  # type: ignore[arg-type]
    )
