"""A minimal HTTP/1.1 JSON layer over ``asyncio`` streams.

The repository's runtime dependencies are numpy-only, so the service
speaks a deliberately small slice of HTTP/1.1 by hand: request line +
headers + ``Content-Length`` body, JSON in both directions, keep-alive
connections.  No chunked transfer, no multipart, no TLS — callers
needing those should front the service with a real proxy.

:func:`read_request` parses one request from a stream (returning
``None`` at end-of-stream), :func:`format_response` renders one JSON
response.  Malformed input raises :class:`HttpError`, whose ``status``
the server maps onto the response.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServiceError

#: Longest accepted request line / single header line (bytes).
MAX_LINE = 8192
#: Most headers accepted on one request.
MAX_HEADERS = 64
#: Largest accepted request body (bytes) — study specs are tiny.
MAX_BODY = 4 * 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(ServiceError):
    """A request the HTTP layer rejects; ``status`` is the response code."""


@dataclass
class HttpRequest:
    """One parsed request: method, target path and raw body."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body parsed as JSON (:class:`HttpError` 400 on failure)."""
        if not self.body:
            raise HttpError("request body is empty; expected a JSON object",
                            status=400)
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(f"request body is not valid JSON: {exc}",
                            status=400) from exc
        except RecursionError as exc:
            raise HttpError("request body is nested too deeply",
                            status=400) from exc


async def _read_line(reader) -> bytes:
    try:
        line = await reader.readline()
    except (ValueError, OverflowError) as exc:
        # StreamReader raises when a line exceeds its buffer limit.
        raise HttpError("header line too long", status=400) from exc
    if len(line) > MAX_LINE:
        raise HttpError("header line too long", status=400)
    return line


async def read_request(reader) -> HttpRequest | None:
    """Parse one HTTP request from ``reader``; ``None`` at end-of-stream."""
    line = await _read_line(reader)
    if not line:
        return None
    try:
        method, target, version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError("malformed request line", status=400) from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(f"unsupported protocol {version!r}", status=400)

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError("too many headers", status=400)
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:
            raise HttpError("malformed header", status=400) from exc
        if not _:
            raise HttpError("malformed header (no colon)", status=400)
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        # RFC 9110: 1*DIGIT.  int() alone would also take "+2" and "1_0".
        if not (length_text.isascii() and length_text.isdigit()):
            raise HttpError("malformed Content-Length", status=400)
        digits = length_text.lstrip("0")
        if len(digits) > len(str(MAX_BODY)) or int(digits or 0) > MAX_BODY:
            raise HttpError(f"request body exceeds {MAX_BODY} bytes",
                            status=413)
        length = int(digits or 0)
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:  # IncompleteReadError, ConnectionError
                raise HttpError("request body truncated", status=400) from exc
    return HttpRequest(method=method.upper(), target=target,
                       headers=headers, body=body)


def format_response(status: int, payload: Any, *, close: bool = False) -> bytes:
    """Render one JSON response (headers + body) as bytes."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    phrase = STATUS_PHRASES.get(status, "Unknown")
    connection = "close" if close else "keep-alive"
    head = (f"HTTP/1.1 {status} {phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            f"\r\n")
    return head.encode("ascii") + body
