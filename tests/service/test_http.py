"""The minimal HTTP/1.1 layer: parsing, limits, rendering."""

import asyncio
import json
import random

import pytest

from repro.service.http import (
    MAX_BODY,
    MAX_HEADERS,
    MAX_LINE,
    HttpError,
    HttpRequest,
    format_response,
    read_request,
)


def parse(data: bytes):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(main())


class TestReadRequest:
    def test_get_without_body(self):
        request = parse(b"GET /v1/health HTTP/1.1\r\n"
                        b"Host: localhost\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/health"
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_json_body(self):
        body = json.dumps({"v": 1, "type": "health"}).encode()
        request = parse(b"POST /v1/predict HTTP/1.1\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body)
        assert request.method == "POST"
        assert request.json() == {"v": 1, "type": "health"}

    def test_headers_lowercased_and_connection_close(self):
        request = parse(b"GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n")
        assert request.headers["connection"] == "Close"
        assert not request.keep_alive

    def test_target_query_stripped_by_path(self):
        request = parse(b"GET /v1/jobs?limit=5 HTTP/1.1\r\n\r\n")
        assert request.path == "/v1/jobs"
        assert request.target == "/v1/jobs?limit=5"

    def test_end_of_stream_returns_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HttpError, match="request line"):
            parse(b"NONSENSE\r\n\r\n")

    def test_unsupported_protocol(self):
        with pytest.raises(HttpError, match="unsupported protocol"):
            parse(b"GET / SPDY/99\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HttpError, match="Content-Length"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: soon\r\n\r\n")

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpError) as exc_info:
            parse(b"POST / HTTP/1.1\r\n"
                  + f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode())
        assert exc_info.value.status == 413

    def test_truncated_body_rejected(self):
        with pytest.raises(HttpError, match="truncated"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_header_without_colon_rejected(self):
        with pytest.raises(HttpError, match="no colon"):
            parse(b"GET / HTTP/1.1\r\nBroken-Header\r\n\r\n")


class TestJsonBody:
    def test_empty_body_raises(self):
        request = HttpRequest(method="POST", target="/x")
        with pytest.raises(HttpError, match="empty"):
            request.json()

    def test_invalid_json_raises(self):
        request = HttpRequest(method="POST", target="/x", body=b"{nope")
        with pytest.raises(HttpError, match="not valid JSON"):
            request.json()


def mutated_request(rng: random.Random) -> bytes:
    """A valid JSON POST with one part mutated: the request line, the
    header count or a header's length, the ``Content-Length`` value, the
    body's length or its content."""
    line = b"POST /v1/predict HTTP/1.1"
    headers = [b"Host: localhost", b"Content-Type: application/json"]
    body = b'{"machine": "opteron", "px": 2, "py": 2}'
    length = None
    choice = rng.randrange(6)
    if choice == 0:
        line = rng.choice([
            b"", b"POST", b"POST /v1/predict", line + b" extra",
            line.replace(b"HTTP/1.1", rng.choice([b"HTTP/2.0", b"SPDY/3"])),
            line.replace(b"/v1/", b"/\xff\xfe/"),
            line.replace(b"/v1/", b"/" + b"a" * rng.choice([MAX_LINE, 70000])
                         + b"/")])
    elif choice == 1:
        count = rng.choice([0, MAX_HEADERS - 3, MAX_HEADERS + rng.randrange(5)])
        headers += [b"X-Filler-%d: v" % index for index in range(count)]
    elif choice == 2:
        headers.append(rng.choice([
            b"No-Colon-Here", b"X-Latin: \xe9\xff",
            b"X-Long: " + b"x" * rng.choice([MAX_LINE - 20, MAX_LINE, 70000])]))
    elif choice == 3:
        size = len(body)
        length = rng.choice([
            b"", b"+%d" % size, b"1_0", b"-1", b" %d " % size, b"0x10",
            b"\xef\xbc\x91", b"000%d" % size, b"%d" % (size + 5),
            b"%d" % (size - 3), b"9" * 40, b"%d" % (MAX_BODY + 1),
            b"1" + b"0" * 5000])
    elif choice == 4:
        length = b"%d" % len(body)
        body = body[:rng.randrange(len(body))] if rng.random() < 0.5 \
            else body + b"trailing"
    else:
        depth = rng.choice([10, 1000, 100_000])
        body = rng.choice([b"[" * depth + b"]" * depth, b'{"px": [1, 2',
                           bytes(rng.randrange(256) for _ in range(32))])
    if length is None:
        length = b"%d" % len(body)
    head = b"".join(part + b"\r\n" for part in
                    [line, *headers, b"Content-Length: " + length])
    return head + b"\r\n" + body


class TestMutatedRequests:
    """A seeded run of mutated requests: each one parses, or is refused
    with a 4xx :class:`HttpError` — never another exception."""

    #: Requests tried.
    MUTATIONS = 300

    def test_mutated_requests_parse_or_are_refused(self):
        rng = random.Random(20061017)
        cases = [mutated_request(rng) for _ in range(self.MUTATIONS)]

        async def read_all():
            outcomes = []
            for data in cases:
                reader = asyncio.StreamReader()
                reader.feed_data(data)
                reader.feed_eof()
                try:
                    outcomes.append(await read_request(reader))
                except HttpError as exc:
                    outcomes.append(exc)
            return outcomes

        parsed = 0
        for outcome in asyncio.run(read_all()):
            if isinstance(outcome, HttpError):
                assert 400 <= outcome.status < 500, outcome
                continue
            if outcome is None:
                continue
            parsed += 1
            length = outcome.headers["content-length"]
            assert length.isascii() and length.isdigit(), length
            assert len(outcome.body) == int(length)
            if outcome.body:
                try:
                    outcome.json()
                except HttpError as exc:
                    assert exc.status == 400
        assert 0 < parsed < self.MUTATIONS


class TestFormatResponse:
    def test_shape_and_round_trip(self):
        payload = {"v": 1, "type": "health", "status": "ok"}
        data = format_response(200, payload)
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines
        assert json.loads(body) == payload

    def test_close_and_unknown_status(self):
        data = format_response(418, {}, close=True)
        assert data.startswith(b"HTTP/1.1 418 Unknown\r\n")
        assert b"Connection: close" in data
