"""HTTP glue: ``ThreadingHTTPServer`` around a PatternService.

Deliberately thin — the handler parses the request line, JSON-decodes
the body, hands everything to :meth:`repro.service.app.
PatternService.dispatch`, and writes the JSON response back.  All
routing, policy, and error mapping happens in the middleware chain;
the only errors handled here are transport-level (a bad
``Content-Length`` or a non-JSON body → 400 with the standard error
shape).  Those 400s close the connection: the unread or unparsed body
bytes must never be taken for the next request on a keep-alive
connection.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import GraphInputError
from repro.service import wire
from repro.service.app import PatternService

#: Cap on accepted request bodies (a repository POST is bounded; a
#: gigabyte body is a mistake or an attack).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """One thread per request; requests share the PatternService."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: PatternService) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Transport adapter from HTTP to ``PatternService.dispatch``."""

    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._serve()

    def do_POST(self) -> None:  # noqa: N802
        self._serve()

    def do_DELETE(self) -> None:  # noqa: N802
        self._serve()

    # -- plumbing ------------------------------------------------------
    def _serve(self) -> None:
        try:
            body = self._read_body()
        except GraphInputError as error:
            # also sets close_connection (BaseHTTPRequestHandler)
            self._write(400, wire.error_body(error, 400),
                        {"Connection": "close"})
            return
        split = urlsplit(self.path)
        if body is None:
            body = {}
        # query-string params become body defaults so GETs can pin
        # snapshots (?snapshot=snap-1) without carrying a body
        for key, value in parse_qsl(split.query):
            body.setdefault(key, value)
        response = self.server.service.dispatch(
            self.command, split.path, body=body,
            headers=dict(self.headers.items()))
        self._write(response.status, response.body, response.headers)

    def _read_body(self) -> Optional[dict]:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise GraphInputError(
                f"Content-Length {raw_length!r} is not an integer"
            ) from None
        if length < 0:
            raise GraphInputError(
                f"Content-Length {length} is negative")
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            raise GraphInputError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GraphInputError(
                f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise GraphInputError(
                "request body must be a JSON object")
        return payload

    def _write(self, status: int, body: dict,
               headers: Optional[dict] = None) -> None:
        payload = wire.dumps(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        """Quiet by default; per-request metrics live in repro.obs."""


def create_server(service: PatternService, host: str = "127.0.0.1",
                  port: int = 0) -> ServiceHTTPServer:
    """A bound, not-yet-serving server (``port=0`` picks a free
    port; read it back from ``server.server_address``)."""
    return ServiceHTTPServer((host, port), service)


def serve_in_thread(service: PatternService, host: str = "127.0.0.1",
                    port: int = 0
                    ) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start serving on a daemon thread; returns (server, thread).

    The test-and-tooling entry point: callers shut down with
    ``server.shutdown(); server.server_close()``.
    """
    server = create_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-service", daemon=True)
    thread.start()
    return server, thread


#: Bound on draining in-flight requests at shutdown; each request is
#: additionally bounded by its own admission deadline.
DRAIN_TIMEOUT_S = 10.0


def shutdown_gracefully(server: ServiceHTTPServer,
                        drain_timeout_s: float = DRAIN_TIMEOUT_S
                        ) -> bool:
    """Stop accepting, drain in-flight requests, flush and close.

    The shutdown half of the durability story: requests already
    dispatched run to completion (bounded by ``drain_timeout_s`` and
    their own deadlines), the request log is flushed + fsync'd by
    its last append, and the store backend's handles close cleanly.
    Returns the drain verdict (False when requests were abandoned to
    the timeout).
    """
    server.shutdown()
    drained = server.service.drain(drain_timeout_s)
    server.server_close()
    server.service.close()
    return drained


def serve(service: PatternService, host: str = "127.0.0.1",
          port: int = 8080) -> None:
    """Serve until interrupted (the ``repro-vqi serve`` loop).

    SIGTERM and KeyboardInterrupt both exit through
    :func:`shutdown_gracefully`: no new requests, in-flight ones
    drain, the request log and store are flushed before the process
    gives up the port.
    """
    server = create_server(service, host, port)

    def _on_sigterm(signum, frame) -> None:
        # break serve_forever's poll loop from the main thread's
        # signal context; the finally block does the orderly exit
        threading.Thread(target=server.shutdown,
                         name="repro-sigterm", daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    finally:
        # reached on SIGTERM, KeyboardInterrupt (the interactive stop
        # signal), or any serve_forever failure: drain, then release
        # the port and the log
        signal.signal(signal.SIGTERM, previous)
        shutdown_gracefully(server)


__all__ = [
    "DRAIN_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "ServiceHTTPServer",
    "ServiceRequestHandler",
    "create_server",
    "serve",
    "serve_in_thread",
    "shutdown_gracefully",
]
