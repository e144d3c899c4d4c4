"""The HTTP face of the evaluation server: :class:`EvalServer`.

A stdlib :class:`~http.server.ThreadingHTTPServer` (one thread per
connection, no new runtime dependencies) serving the action-dispatch
protocol:

* ``POST /`` — the protocol endpoint: a ``{"action", "params"}`` JSON body
  in, an ``ok``/``error`` envelope out (:mod:`repro.server.protocol`);
* ``GET /status`` (and ``/health``) — convenience alias for the ``status``
  action, so a load balancer or a shell loop can probe readiness without
  composing a request body.

Request threads share one :class:`~repro.server.dispatch.ServerState` —
the open result store, the hardware characterisation cache and the
batching queue — which is the entire point of keeping the process alive.

``python -m repro serve`` wraps :func:`EvalServer.serve_forever`; tests and
benchmarks use :meth:`EvalServer.start` / :meth:`EvalServer.stop` (or the
context manager) to run the server on a background thread inside their own
process, on an ephemeral port.
"""
from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

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

    protocol_version = "HTTP/1.1"
    #: Stamped into the ``Server`` response header.
    server_version = "repro-serve"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        fault = maybe_fault("server.handler")
        if fault is not None:
            if fault.kind == "drop":
                # Close the connection without a response — the client
                # sees a transport error, exactly like a mid-request
                # network partition, and its retry loop takes over.
                self.close_connection = True
                return
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
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
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
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        """Quiet by default: the JSON-on-stdout contract stays clean."""


def _handler_for(state: ServerState) -> type:
    return type("BoundRequestHandler", (_RequestHandler,), {"state": state})


class EvalServer:
    """A long-lived evaluation server bound to one host/port.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    which is how the in-process tests and the load bench run.  State
    parameters (``store``, ``backend``, ``workers``, ``batch_window_s``,
    ``deadline_s``) construct a fresh :class:`~repro.server.dispatch.ServerState`
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
        self._httpd = ThreadingHTTPServer((host, port),
                                          _handler_for(self.state))
        self._httpd.daemon_threads = True
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
        """Stop serving and release the socket (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def drain(self, grace_s: float = 10.0) -> int:
        """Graceful shutdown: stop accepting, finish in-flight requests.

        The SIGTERM path of ``python -m repro serve``.  The listener is
        shut down first (new connections are refused), then in-flight
        requests get up to ``grace_s`` seconds to finish before the
        socket closes.  Returns the number of requests still in flight
        when the grace expired — ``0`` means a perfectly clean drain.
        Safe to call from a signal-handler-spawned thread: it never runs
        on the serve loop's own thread.
        """
        self._httpd.shutdown()
        deadline = time.monotonic() + max(0.0, grace_s)
        while time.monotonic() < deadline:
            with self.state._lock:
                remaining = self.state._in_flight
            if remaining == 0:
                break
            time.sleep(0.05)
        with self.state._lock:
            remaining = self.state._in_flight
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
