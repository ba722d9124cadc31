"""Asyncio HTTP+JSON control plane for the service daemon.

A deliberately tiny HTTP/1.1 server on asyncio's streams —
one connection per request, everything JSON (written by
:func:`repro.obs.sinks.encode`, so a non-finite float answers ``null``).
It runs on the *same* event loop as the stepping daemon, so handlers
read live state without locks.

Endpoints (the operational surface the daemon exposes):

====== ============== ==================================================
Method Path           Meaning
====== ============== ==================================================
GET    /health        liveness + loop counters + SLO status + health
GET    /metrics       obs registry snapshot (``?format=prometheus``
                      for the text exposition)
GET    /forecast      quantile forecast behind the committed plan
GET    /decisions     recent audit log (``?limit=N``, newest last)
GET    /traces        recent step traces (``?limit=N``, newest last)
GET    /series        recent workload/capacity points for dashboards
POST   /plan          force a replan now; returns the new decision
POST   /checkpoint    write a checkpoint; returns its path
====== ============== ==================================================

Malformed framing (a Content-Length that is not a non-negative integer,
a body shorter than it declares, a request or header line beyond the
stream's 64 KiB line limit) is 400, a request whose head and body have
not arrived within ``_READ_TIMEOUT`` seconds is 408, unknown paths are
404, wrong methods 405, handler-refused operations carry their own
status (e.g. 409 when planning is impossible during cold start).  A
connection beyond ``_MAX_CONNECTIONS`` open at once is answered 503 and
closed without reading it.  Responses always close the connection — the
control plane is for curl/monitoring probes, not high-QPS serving.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from ..obs.sinks import encode

__all__ = ["ControlPlane", "HttpError", "RawResponse"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies beyond this are refused (the control plane accepts
#: only empty or tiny JSON bodies).
_MAX_BODY = 1 << 20

#: Seconds a client has to deliver its request head and body; a request
#: still incomplete then is answered 408 and its connection closed, so a
#: stalled client cannot hold a connection open.
_READ_TIMEOUT = 5.0

#: Connections served at once; one more is answered 503 and closed at
#: once, so idle clients cannot pile up on the tick's event loop.
_MAX_CONNECTIONS = 64


class HttpError(Exception):
    """Handler-raised error carrying an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class RawResponse:
    """A handler result served verbatim instead of JSON-encoded.

    The escape hatch for non-JSON payloads — the Prometheus text
    exposition at ``/metrics?format=prometheus`` returns one of these.
    """

    def __init__(
        self,
        body: str | bytes,
        content_type: str = "text/plain; charset=utf-8",
        status: int = 200,
    ) -> None:
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.content_type = content_type
        self.status = status


class ControlPlane:
    """The daemon's HTTP server: routes requests to service callbacks.

    Parameters
    ----------
    routes:
        ``(method, path) -> handler``; a handler takes the parsed query
        dict and the decoded JSON body (None when empty) and returns
        the JSON-safe response payload, or raises :class:`HttpError`.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        routes: dict[tuple[str, str], Callable[[dict, Any], Any]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.routes = dict(routes)
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        self.requests_served = 0
        self._connections = 0  # accepted and not yet answered

    async def start(self) -> None:
        # asyncio.start_server's protocol factory, counting each connection
        # in the event-loop pass after its accept, a few passes before the
        # handler starts.  The daemon's handoff rule reads the count, and a
        # handoff that ends a stretch of stepping waits for it.
        loop = asyncio.get_running_loop()

        def accepted() -> asyncio.StreamReaderProtocol:
            self._connections += 1
            reader = asyncio.StreamReader(loop=loop)
            return asyncio.StreamReaderProtocol(reader, self._handle, loop=loop)

        self._server = await loop.create_server(
            accepted, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def connections(self) -> int:
        """Connections open now: accepted, and not yet answered."""
        return self._connections

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            if self._connections > _MAX_CONNECTIONS:
                status, payload = 503, {"error": f"over {_MAX_CONNECTIONS} open connections"}
            else:
                try:
                    status, payload = await self._respond(reader)
                except Exception as error:  # a broken handler must not kill the daemon
                    status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
            await self._reply(writer, status, payload)
        finally:
            self._connections -= 1

    async def _reply(self, writer: asyncio.StreamWriter, status: int, payload: Any) -> None:
        """Write one response and close the connection."""
        if isinstance(payload, RawResponse):
            status = payload.status
            content_type = payload.content_type
            body = payload.body
        else:
            content_type = "application/json"
            body = encode(payload)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass  # client went away; nothing to salvage
        finally:
            writer.close()
        self.requests_served += 1

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, Any]:
        # The deadline fails the pending read in place: no task wraps the
        # read, so a request costs no extra event-loop round trips (and the
        # daemon's ticks interleaved with them).
        expiry = asyncio.get_running_loop().call_later(
            _READ_TIMEOUT, reader.set_exception, asyncio.TimeoutError()
        )
        try:
            method, target, raw = await _read_request(reader)
        except HttpError as error:
            return error.status, {"error": error.message}
        except asyncio.TimeoutError:
            return 408, {"error": f"request incomplete after {_READ_TIMEOUT} s"}
        finally:
            expiry.cancel()

        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        body: Any = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                return 400, {"error": "request body is not valid JSON"}

        handler = self.routes.get((method, path))
        if handler is None:
            if any(p == path for _, p in self.routes):
                return 405, {"error": f"{method} not allowed on {path}"}
            return 404, {"error": f"no such endpoint: {path}"}
        try:
            return 200, handler(query, body)
        except HttpError as error:
            return error.status, {"error": error.message}


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line of the request head; a line beyond the reader's limit is a 400."""
    try:
        return await reader.readline()
    except ValueError:  # the line outgrew the StreamReader's 64 KiB limit
        raise HttpError(400, f"{what} longer than the 64 KiB line limit")


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
    """``(method, target, body)`` of one request; malformed framing is a 400."""
    request_line = (await _readline(reader, "request line")).decode("latin-1").strip()
    parts = request_line.split()
    if len(parts) < 2:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    headers: dict[str, str] = {}
    while True:
        line = await _readline(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise HttpError(400, f"malformed Content-Length: {declared!r}")
    length = int(declared)
    if length > _MAX_BODY:
        raise HttpError(400, f"body too large ({length} bytes)")
    try:
        raw = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise HttpError(400, f"body ends after {len(error.partial)} of {length} bytes")
    return parts[0].upper(), parts[1], raw
