"""The network serving layer: ``repro serve`` as an embeddable package.

Turns a live engine (:class:`repro.StreamEngine` or
:class:`repro.cluster.ShardedStreamEngine`) into a long-running
subscription service: a REST API for subscription lifecycle, idempotent
event ingestion (at-least-once producers get exactly-once engine
semantics through a bounded dedupe window), and per-client result push
over SSE with bounded queues and explicit backpressure.
Standard-library only — the whole service is asyncio + sockets.

Quickstart (embedded)::

    from repro.serve import ServeConfig, run_in_thread

    with run_in_thread(ServeConfig(port=0)) as handle:
        print("serving on", handle.base_url)
        ...  # talk to it over HTTP

or from the command line: ``repro serve --port 8765``.
"""

from .app import ServeConfig, ServerHandle, TopKServer, run_in_thread
from .backpressure import (
    DISCONNECT,
    DROP_OLDEST,
    SLOW_CLIENT_POLICIES,
    AdmissionControl,
    AdmissionError,
    ChannelClosed,
    ClientChannel,
)
from .ingest import DedupeWindow, IngestBatcher, parse_event
from .sessions import Session, SessionRegistry, result_record

__all__ = [
    "ServeConfig",
    "TopKServer",
    "ServerHandle",
    "run_in_thread",
    "AdmissionControl",
    "AdmissionError",
    "ClientChannel",
    "ChannelClosed",
    "DROP_OLDEST",
    "DISCONNECT",
    "SLOW_CLIENT_POLICIES",
    "DedupeWindow",
    "IngestBatcher",
    "parse_event",
    "Session",
    "SessionRegistry",
    "result_record",
]
