"""The one place the serving wire surface is defined.

Everything the HTTP layer exposes is declared here as data — the route
table below *is* the router (:meth:`repro.serve.app.TopKServer._route`
dispatches by walking it) and *is* the documentation (the README's
endpoint table is rendered from it by :func:`markdown_table`, with a test
asserting the two stay identical).  Adding an endpoint means adding one
:class:`Route` line; the dispatcher, the 404/405 behaviour, and the
docs all follow.

Versioning: the surface lives under ``/v1/...`` and only there; an
unversioned path such as ``/subscriptions`` is a 404.

The subscription *body* schema is owned by
:meth:`repro.engine.spec.QuerySpec.from_dict` — the same validator every
other subscribe entry point uses — so the wire contract and the library
contract cannot drift either; :data:`SUBSCRIPTION_BODY_FIELDS` re-exports
the accepted keys for documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: The canonical API version prefix (no leading slash).
API_VERSION = "v1"

#: Accepted keys of the ``POST /v1/subscriptions`` JSON body, validated
#: by :meth:`repro.engine.spec.QuerySpec.from_dict` (plus ``name``,
#: consumed by the serving layer itself).
SUBSCRIPTION_BODY_FIELDS = (
    "name",
    "n",
    "k",
    "s",
    "time_based",
    "algorithm",
    "options",
    "preference",
    "cluster_id",
    "pad_factor",
)


@dataclass(frozen=True)
class Route:
    """One endpoint: method, path pattern, handler key, doc line.

    ``pattern`` segments are literals or ``{param}`` placeholders;
    ``handler`` names a method key the application binds at startup;
    ``streaming`` marks handlers that take over the connection (SSE)
    instead of returning a response triple.
    """

    method: str
    pattern: Tuple[str, ...]
    handler: str
    doc: str
    streaming: bool = False

    @property
    def path(self) -> str:
        """The versioned path of this route."""
        return "/" + "/".join((API_VERSION,) + self.pattern)


#: The wire surface.  Order matters only for documentation.
ROUTES: Tuple[Route, ...] = (
    Route("GET", ("health",), "health", "liveness probe"),
    Route("GET", ("stats",), "stats", "server-wide ingest/session stats"),
    Route("GET", ("metrics",), "metrics", "Prometheus text format 0.0.4"),
    Route("GET", ("metrics.json",), "metrics_json",
          "JSON metrics snapshot (`repro top`)"),
    Route("POST", ("events",), "ingest",
          "ingest events (idempotent by id)"),
    Route("POST", ("subscriptions",), "create_subscription",
          "create a continuous query (429 + `Retry-After` past the cap)"),
    Route("GET", ("subscriptions",), "list_subscriptions",
          "list subscription records"),
    Route("GET", ("subscriptions", "{name}"), "get_subscription",
          "record + engine stats (p50/p95/p99)"),
    Route("DELETE", ("subscriptions", "{name}"), "delete_subscription",
          "unsubscribe"),
    Route("GET", ("subscriptions", "{name}", "results"), "get_results",
          "poll retained answers (`?drain=true`)"),
    Route("GET", ("subscriptions", "{name}", "stream"), "stream_sse",
          "push answers over SSE", streaming=True),
)


class RouteNotFound(Exception):
    """No route matches the path (HTTP 404)."""


class MethodNotAllowed(Exception):
    """The path exists but not with this method (HTTP 405); carries the
    methods that *are* allowed."""

    def __init__(self, allowed: Sequence[str]) -> None:
        super().__init__(", ".join(sorted(allowed)))
        self.allowed = tuple(sorted(allowed))


@dataclass(frozen=True)
class Match:
    """A resolved request: the route and its path params."""

    route: Route
    params: Dict[str, str]


def _match_one(route: Route, segments: Sequence[str]) -> Optional[Dict[str, str]]:
    if len(route.pattern) != len(segments):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(route.pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


def match(method: str, segments: Sequence[str]) -> Match:
    """Resolve a request against the table.

    Raises :class:`RouteNotFound` (404) when no pattern matches and
    :class:`MethodNotAllowed` (405) when the path exists under another
    method — the distinction the hand-written router used to special-case.
    """
    segments = tuple(segments)
    if not segments or segments[0] != API_VERSION:
        raise RouteNotFound()
    segments = segments[1:]
    allowed = set()
    for route in ROUTES:
        params = _match_one(route, segments)
        if params is None:
            continue
        if route.method == method:
            return Match(route=route, params=params)
        allowed.add(route.method)
    if allowed:
        raise MethodNotAllowed(allowed)
    raise RouteNotFound()


def markdown_table() -> str:
    """The endpoint table as GitHub markdown — the README embeds exactly
    this text (a test regenerates and compares, so they cannot drift)."""
    rows = [
        ("Method", "Path", "Purpose"),
        ("---", "---", "---"),
    ]
    for route in ROUTES:
        rows.append((route.method, f"`{route.path}`", route.doc))
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)
