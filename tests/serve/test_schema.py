"""The declared wire surface: route matching and drift guards.

Two drift guards matter more than the unit checks: every route's
``handler`` key must resolve to a ``_h_<key>`` method on the server (so
the table cannot name a handler that does not exist), and the README's
endpoint table must equal :func:`markdown_table` exactly (so the docs
cannot drift from the dispatcher — both are rendered from ROUTES).
"""

import os

import pytest

from repro.serve import schema
from repro.serve.app import TopKServer


class TestMatch:
    def test_v1_path_is_canonical(self):
        matched = schema.match("GET", ("v1", "health"))
        assert matched.route.handler == "health"
        assert matched.params == {}

    def test_path_params_are_extracted(self):
        matched = schema.match("GET", ("v1", "subscriptions", "alerts", "results"))
        assert matched.route.handler == "get_results"
        assert matched.params == {"name": "alerts"}

    def test_unknown_path_raises_404(self):
        with pytest.raises(schema.RouteNotFound):
            schema.match("GET", ("v1", "nope"))

    def test_wrong_method_raises_405_with_allowed(self):
        with pytest.raises(schema.MethodNotAllowed) as excinfo:
            schema.match("PUT", ("v1", "subscriptions"))
        assert set(excinfo.value.allowed) == {"GET", "POST"}

    def test_every_route_resolves_under_v1_only(self):
        for route in schema.ROUTES:
            segments = tuple(
                "x" if part.startswith("{") else part for part in route.pattern
            )
            assert schema.match(route.method, ("v1",) + segments).route is route
            with pytest.raises(schema.RouteNotFound):
                schema.match(route.method, segments)


class TestDriftGuards:
    def test_every_handler_key_has_a_server_method(self):
        for route in schema.ROUTES:
            assert hasattr(TopKServer, "_h_" + route.handler), (
                f"route {route.method} {route.path} names handler "
                f"{route.handler!r} but TopKServer has no _h_{route.handler}"
            )

    def test_streaming_flags_match_the_takeover_handlers(self):
        streaming = {r.handler for r in schema.ROUTES if r.streaming}
        assert streaming == {"stream_sse"}

    def test_readme_embeds_exactly_the_generated_table(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")
        with open(readme, "r", encoding="utf-8") as handle:
            content = handle.read()
        assert schema.markdown_table() in content, (
            "README.md endpoint table drifted from repro.serve.schema.ROUTES; "
            "re-embed schema.markdown_table()"
        )

    def test_subscription_body_fields_match_the_validator(self):
        # the fields documented here must be exactly what from_dict accepts
        from repro.core.exceptions import InvalidQueryError
        from repro.engine.spec import QuerySpec

        body = {"n": 10, "k": 2, "s": 5}
        for field in schema.SUBSCRIPTION_BODY_FIELDS:
            probe = dict(body)
            probe.setdefault(field, None)
            try:
                QuerySpec.from_dict(probe)
            except InvalidQueryError as exc:
                assert "unknown subscription parameter" not in str(exc), (
                    f"documented field {field!r} rejected by the validator"
                )
            except Exception:
                pass  # value errors are fine; unknown-key errors are not
        with pytest.raises(InvalidQueryError, match="unknown subscription"):
            QuerySpec.from_dict({**body, "undocumented": 1})
