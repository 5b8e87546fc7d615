"""Wire-format tests for :mod:`repro.serve.protocol`.

The parser and framers are plain functions over bytes, so everything here
runs without a socket: HTTP requests come from in-memory stream readers.
"""

import asyncio
import json

import pytest

from repro.serve.protocol import (
    HttpRequest,
    ProtocolError,
    error_response,
    read_request,
    render_response,
    sse_comment,
    sse_event,
)


def parse(raw: bytes) -> HttpRequest:
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHttpParsing:
    def test_request_line_query_and_headers(self):
        req = parse(
            b"GET /v1/subscriptions/q1/results?drain=true&x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\nX-Custom: Value\r\n\r\n"
        )
        assert req.method == "GET"
        assert req.path == "/v1/subscriptions/q1/results"
        assert req.segments == ("v1", "subscriptions", "q1", "results")
        assert req.query == {"drain": "true", "x": "1"}
        assert req.headers["x-custom"] == "Value"  # header names lowercase

    def test_body_read_by_content_length(self):
        body = json.dumps({"events": [1, 2, 3]}).encode()
        req = parse(
            b"POST /v1/events HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body)
        )
        assert req.json() == {"events": [1, 2, 3]}

    def test_eof_before_any_bytes_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_chunked_transfer_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse(
                b"POST /v1/events HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
            )
        assert err.value.status == 400

    def test_oversized_body_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse(b"POST /v1/events HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        assert err.value.status == 413

    def test_bad_json_body_maps_to_400(self):
        req = parse(b"POST /v1/events HTTP/1.1\r\nContent-Length: 4\r\n\r\n{oop")
        with pytest.raises(ProtocolError) as err:
            req.json()
        assert err.value.status == 400

    @pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_json_constants_map_to_400(self, constant):
        body = b'{"score": ' + constant + b"}"
        head = b"POST /v1/events HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        with pytest.raises(ProtocolError, match="not a JSON number") as err:
            parse(head + body).json()
        assert err.value.status == 400

    def test_keep_alive_default_and_close(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").wants_keep_alive()
        req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.wants_keep_alive()


class TestResponses:
    def test_json_response_has_length_and_type(self):
        raw = render_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Type: application/json" in head
        assert json.loads(body) == {"ok": True}
        assert b"Content-Length: %d" % len(body) in head

    def test_error_response_carries_status_and_message(self):
        raw = error_response(404, "no such subscription")
        assert raw.startswith(b"HTTP/1.1 404")
        assert b"no such subscription" in raw

    def test_extra_headers_rendered(self):
        raw = render_response(429, {"error": "full"}, headers={"Retry-After": "5"})
        assert b"Retry-After: 5\r\n" in raw


class TestServerSentEvents:
    def test_event_framing(self):
        frame = sse_event({"a": 1}, event="result")
        assert frame == b'event: result\ndata: {"a": 1}\n\n'

    def test_comment_framing(self):
        assert sse_comment("hello") == b": hello\n\n"
