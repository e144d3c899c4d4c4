"""The HTTP face of the evaluation server: :class:`EvalServer`.

A stdlib :class:`~http.server.ThreadingHTTPServer` (one thread per
connection, no new runtime dependencies) serving the action-dispatch
protocol over HTTP/1.1 keep-alive connections:

* ``POST /`` — the protocol endpoint: a ``{"action", "params"}`` JSON body
  in, an ``ok``/``error`` envelope out (:mod:`repro.server.protocol`);
* ``GET /status`` (and ``/health``) — convenience alias for the ``status``
  action, so a load balancer or a shell loop can probe readiness without
  composing a request body.

Request threads share one :class:`~repro.server.dispatch.ServerState` —
the open result store, the hardware characterisation cache, the compute
slots and the batching queue that computes each cold point once — which
is the entire point of keeping the process alive.

A connection stays open between requests (the client in
:mod:`repro.server.client` keeps one per thread), so a warm query costs a
request, not a TCP handshake and a thread start.  Each response leaves in
a single write — status line, headers and body together — because a
separate body write would wait on the client's delayed ACK (Nagle's
algorithm) for tens of milliseconds.  The server tracks its open
connections: :meth:`EvalServer.stop` and :meth:`EvalServer.drain` hang
up on idle ones at once, so no new request starts on them, and a
request in flight is answered with ``Connection: close`` and then its
connection closes.

``python -m repro serve`` wraps :func:`EvalServer.serve_forever`; tests and
benchmarks use :meth:`EvalServer.start` / :meth:`EvalServer.stop` (or the
context manager) to run the server on a background thread inside their own
process, on an ephemeral port.
"""
from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set

from ..core.results import _jsonify
from ..faults.inject import maybe_fault
from .dispatch import ServerState, dispatch
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    error_envelope,
    http_status,
    parse_request,
)


class _RequestHandler(BaseHTTPRequestHandler):
    """One protocol request per HTTP exchange; never raises to the socket."""

    #: Injected by :func:`_handler_for`; shared by every request thread.
    state: ServerState
    server: "_TrackingHTTPServer"

    protocol_version = "HTTP/1.1"
    #: Stamped into the ``Server`` response header.
    server_version = "repro-serve"

    def setup(self) -> None:
        super().setup()
        if not self.server.mark_idle(self.connection):
            _hang_up(self.connection)  # accepted just before closing

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.forget(self.connection)

    def parse_request(self) -> bool:
        # A request line arrived: the connection is busy until answered,
        # unless the server hung it up while it sat idle.
        if not self.server.mark_busy(self.connection):
            self.close_connection = True
            return False
        return super().parse_request()

    def handle_one_request(self) -> None:
        super().handle_one_request()
        if not self.server.mark_idle(self.connection):
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        fault = maybe_fault("server.handler")
        if fault is not None and fault.kind == "drop":
            # Close the connection without a response — the client
            # sees a transport error, exactly like a mid-request
            # network partition, and its retry loop takes over.
            self.close_connection = True
            return
        # Read the body before any answer: on a kept-alive connection an
        # unread body would be parsed as the next request.
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
            self.close_connection = True  # the body's end is unknown
        body = self.rfile.read(length) if length > 0 else b""
        if fault is not None:
            if fault.kind == "delay":
                time.sleep(float(fault.params.get("seconds", 0.1)))
            elif fault.kind == "error":
                self._respond(error_envelope(
                    ERROR_INTERNAL, "injected fault: handler error"))
                return
        if self.path.rstrip("/") not in ("", "/api"):
            self._respond(error_envelope(
                ERROR_BAD_REQUEST,
                f"unknown endpoint {self.path!r}; POST the protocol "
                f"document to '/'"))
            return
        try:
            action, params = parse_request(body)
        except Exception as error:
            envelope = getattr(error, "envelope",
                               lambda: error_envelope(ERROR_BAD_REQUEST,
                                                      str(error)))()
            self._respond(envelope)
            return
        self._respond(dispatch(self.state, action, params))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") in ("/status", "/health"):
            self._respond(dispatch(self.state, "status", {}))
            return
        self._respond(error_envelope(
            ERROR_BAD_REQUEST,
            f"unknown endpoint {self.path!r}; GET /status or POST the "
            f"protocol document to '/'"))

    def _respond(self, envelope: dict) -> None:
        payload = json.dumps(envelope, sort_keys=True,
                             default=_jsonify).encode("utf-8")
        if self.request_version == "HTTP/0.9":
            self.wfile.write(payload)  # no status line, no headers
            return
        self.send_response(http_status(envelope))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        retry_after = envelope.get("retry_after_s")
        if isinstance(retry_after, (int, float)) \
                and not isinstance(retry_after, bool):
            # Whole seconds, rounded up: the header grammar wants an
            # integer, and "come back a touch later" errs safe.
            self.send_header("Retry-After",
                             str(max(1, math.ceil(retry_after))))
        if self.server.closing:
            self.send_header("Connection", "close")
        # end_headers() would flush the head in a write of its own; send
        # head and body together instead (see the module docstring).
        self._headers_buffer.extend((b"\r\n", payload))
        self.flush_headers()

    def log_message(self, format: str, *args: object) -> None:
        """Quiet by default: the JSON-on-stdout contract stays clean."""


def _handler_for(state: ServerState) -> type:
    return type("BoundRequestHandler", (_RequestHandler,), {"state": state})


def _hang_up(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer hung up first


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that knows which connections sit idle.

    A connection is idle between requests: its handler thread is blocked
    reading the next request line.  It is busy from its request line to
    the end of its response.  :meth:`close_idle` marks the server closing
    and hangs up on the idle connections, which ends their threads; a
    request line that arrives on one of them after that is refused
    (:meth:`mark_busy`), and a busy connection finishes its request and
    then closes, because :meth:`mark_idle` refuses it.  So once closing,
    the number of busy connections only falls.
    """

    daemon_threads = True

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._connections_lock = threading.Lock()
        self._idle: Set[socket.socket] = set()
        self._busy: Set[socket.socket] = set()
        self.closing = False

    def mark_busy(self, connection: socket.socket) -> bool:
        """Mark idle ``connection`` busy; ``False`` if it was hung up."""
        with self._connections_lock:
            if connection not in self._idle:
                return False
            self._idle.discard(connection)
            self._busy.add(connection)
            return True

    def mark_idle(self, connection: socket.socket) -> bool:
        """Mark ``connection`` idle; ``False`` if it should close instead."""
        with self._connections_lock:
            self._busy.discard(connection)
            if self.closing:
                return False
            self._idle.add(connection)
            return True

    def forget(self, connection: socket.socket) -> None:
        """Drop a connection that is closing, so nothing hangs it up."""
        with self._connections_lock:
            self._idle.discard(connection)
            self._busy.discard(connection)

    def busy(self) -> int:
        """The number of connections with a request being answered."""
        with self._connections_lock:
            return len(self._busy)

    def handle_error(self, request: object, client_address: object) -> None:
        if isinstance(sys.exc_info()[1], ConnectionError):
            return  # the client hung up or reset; nothing to report
        super().handle_error(request, client_address)

    def close_idle(self) -> None:
        with self._connections_lock:
            self.closing = True
            idle, self._idle = self._idle, set()
        for connection in idle:
            _hang_up(connection)


class EvalServer:
    """A long-lived evaluation server bound to one host/port.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    which is how the in-process tests and the load bench run.  State
    parameters (``store``, ``backend``, ``workers``, ``deadline_s``)
    construct a fresh :class:`~repro.server.dispatch.ServerState`
    unless one is passed in.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 state: Optional[ServerState] = None,
                 **state_options: object) -> None:
        if state is not None and state_options:
            raise ValueError("pass either a ServerState or state options, "
                             "not both")
        self.state = state if state is not None \
            else ServerState(**state_options)  # type: ignore[arg-type]
        self._httpd = _TrackingHTTPServer((host, port),
                                          _handler_for(self.state))
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Addresses
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or interrupt)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "EvalServer":
        """Serve on a daemon background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server is already running")
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, hang up idle connections and release the socket
        (idempotent)."""
        self._httpd.shutdown()
        self._httpd.close_idle()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def drain(self, grace_s: float = 10.0) -> int:
        """Graceful shutdown: stop accepting, finish in-flight requests.

        The SIGTERM path of ``python -m repro serve``.  The listener is
        shut down first (new connections are refused) and the idle
        keep-alive connections are hung up, so no new request starts;
        then the requests in flight get up to ``grace_s`` seconds to
        finish — each answered with ``Connection: close`` — before the
        socket closes.  Returns the number of requests still in flight
        when the grace expired — ``0`` means a perfectly clean drain.
        Safe to call from a signal-handler-spawned thread: it never runs
        on the serve loop's own thread.
        """
        self._httpd.shutdown()
        self._httpd.close_idle()
        deadline = time.monotonic() + max(0.0, grace_s)
        remaining = self._httpd.busy()
        while remaining and time.monotonic() < deadline:
            time.sleep(0.05)
            remaining = self._httpd.busy()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return remaining

    def __enter__(self) -> "EvalServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EvalServer {self.url}>"
