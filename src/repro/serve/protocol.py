"""Wire protocols of the serving layer: HTTP/1.1 and Server-Sent Events.

Everything here is standard-library only, built directly on
:mod:`asyncio` stream readers/writers.  The HTTP support is deliberately
minimal — request-line + headers + ``Content-Length`` bodies, JSON in and
out — because the serving layer's API surface is small and a dependency
on a web framework would break the repository's no-new-deps rule.
Results are pushed as **Server-Sent Events** (:func:`sse_event`):
one-directional push with named events, which any HTTP client that can
read a streamed response consumes (``curl -N`` included).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on the request head (request line + headers) and on JSON
#: bodies.  Oversized requests are rejected instead of buffered.
MAX_HEAD_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

HTTP_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _refuse_constant(name: str) -> object:
    raise ValueError(f"{name} is not a JSON number")


class ProtocolError(Exception):
    """A malformed or oversized request; maps to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    #: Path segments, split on "/" with empties dropped:
    #: ``/subscriptions/fire/stream`` -> ("subscriptions", "fire", "stream").
    segments: Tuple[str, ...] = field(default=())

    def json(self) -> object:
        """The body decoded as JSON (``{}`` when empty); ``NaN`` and
        ``Infinity``, which JSON does not define, are refused."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body, parse_constant=_refuse_constant)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from None

    def wants_keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` when the peer closed.

    Raises :class:`ProtocolError` on malformed input, which the caller
    turns into an error response before dropping the connection.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > MAX_HEAD_BYTES:
        raise ProtocolError(400, "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol {version}")

    headers: Dict[str, str] = {}
    head_bytes = len(line)
    while True:
        line = await reader.readline()
        head_bytes += len(line)
        if head_bytes > MAX_HEAD_BYTES:
            raise ProtocolError(400, "request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise ProtocolError(400, "invalid Content-Length") from None
        if size > MAX_BODY_BYTES:
            raise ProtocolError(413, f"body over {MAX_BODY_BYTES} bytes")
        if size:
            try:
                body = await reader.readexactly(size)
            except (EOFError, ConnectionError, OSError):
                return None
    elif headers.get("transfer-encoding"):
        raise ProtocolError(400, "chunked request bodies are not supported")

    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        segments=tuple(part for part in split.path.split("/") if part),
    )


def render_response(
    status: int,
    payload: object = None,
    *,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
    content_type: Optional[str] = None,
) -> bytes:
    """Render a full response; dict/list payloads are serialized as JSON.

    ``content_type`` overrides the inferred type (the ``/v1/metrics``
    endpoint serves bytes as Prometheus text, not an octet stream).
    """
    if payload is None:
        body = b""
        content_type = None
    elif isinstance(payload, bytes):
        body = payload
        content_type = content_type or "application/octet-stream"
    else:
        body = (json.dumps(payload) + "\n").encode()
        content_type = "application/json"
    reason = HTTP_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if content_type is not None:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def error_response(status: int, message: str, *, headers=None, keep_alive=True) -> bytes:
    return render_response(
        status, {"error": message}, headers=headers, keep_alive=keep_alive
    )


# ----------------------------------------------------------------------
# Server-Sent Events
# ----------------------------------------------------------------------
SSE_HEADER = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-store\r\n"
    b"Connection: close\r\n\r\n"
)


def sse_event(data: object, event: Optional[str] = None) -> bytes:
    """One SSE frame; dict/list data is serialized as JSON."""
    if not isinstance(data, str):
        data = json.dumps(data)
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    for chunk in data.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode()


def sse_comment(text: str) -> bytes:
    """An SSE comment line (keep-alive / informational, not an event)."""
    return f": {text}\n\n".encode()
