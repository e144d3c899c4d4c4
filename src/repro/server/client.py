"""Thin protocol client: one function, stdlib only.

:func:`query` POSTs one ``{"action", "params"}`` document and returns the
decoded envelope — ok or error — exactly as the server sent it.  Error
envelopes are *returned*, not raised: the protocol deliberately transports
them with 4xx/5xx status codes, so the client reads the JSON body whatever
the status.  Only transport-level problems (connection refused, timeout, a
non-JSON body) raise, as :class:`ServerUnavailable`.

Connections persist: each thread keeps one HTTP/1.1 keep-alive
:class:`http.client.HTTPConnection` per server address, so a stream of
queries pays for one TCP connection (and one server thread) instead of
one per request.  A thread's connections close when the thread ends, and
those still open close at interpreter exit.  A server may close an idle
connection at any time (a drain or restart does); when a *reused*
connection fails before any response arrives, the request is re-sent once
on a fresh connection — not counted as a retry, and safe because every
protocol action is idempotent.

One error envelope gets special treatment: HTTP 503 (the server shedding
load) is *retryable* — the request was refused, not answered — so the
client backs off and tries again, flooring each backoff delay with the
server's ``Retry-After`` header.  Only when retries are exhausted is the
``overloaded`` envelope returned as the answer, so callers still see the
protocol document rather than an exception.

``python -m repro query`` and ``benchmarks/serve_bench.py`` are both built
on this function.
"""
from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
import weakref
from typing import Dict, NamedTuple, Optional, Tuple

from ..core.results import _jsonify
from ..core.retry import retry_with_backoff

#: How a kept-alive connection the server has since closed fails before
#: any response byte arrives; only these trigger the one re-dial.
_STALE_CONNECTION = (http.client.RemoteDisconnected, BrokenPipeError,
                     ConnectionResetError)

_Address = Tuple[str, str, int]


class _Request(NamedTuple):
    """One encoded protocol request and where it goes."""

    address: _Address
    path: str
    body: bytes


class ServerUnavailable(RuntimeError):
    """The server could not be reached or spoke something other than JSON."""


class ServerOverloaded(ServerUnavailable):
    """The server shed the request (HTTP 503); retry after backing off.

    Carries the raw envelope ``body`` (the answer of last resort when
    retries run out) and the parsed ``Retry-After`` hint in seconds.
    """

    def __init__(self, message: str, body: bytes,
                 retry_after_s: Optional[float]) -> None:
        super().__init__(message)
        self.body = body
        self.retry_after_s = retry_after_s


class _ThreadConnections:
    """One thread's keep-alive connections, by ``(scheme, host, port)``.

    The finaliser closes them when the thread ends (its thread-local
    storage, the only reference, is dropped) and, for threads still alive,
    at interpreter exit — so no socket is left to the garbage collector.
    """

    def __init__(self) -> None:
        self.by_address: Dict[_Address, http.client.HTTPConnection] = {}
        weakref.finalize(self, _close_all, self.by_address)


def _close_all(connections: Dict[_Address, http.client.HTTPConnection]
               ) -> None:
    for connection in connections.values():
        connection.close()
    connections.clear()


_local = threading.local()


def _connection_for(address: _Address, timeout: float
                    ) -> Tuple[http.client.HTTPConnection, bool]:
    """This thread's connection to ``address`` and whether it was reused."""
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = _ThreadConnections()
    connection = pool.by_address.get(address)
    if connection is None:
        scheme, host, port = address
        factory = http.client.HTTPSConnection if scheme == "https" \
            else http.client.HTTPConnection
        connection = pool.by_address[address] = factory(
            host, port, timeout=timeout)
        return connection, False
    connection.timeout = timeout
    if connection.sock is None:
        return connection, False  # closed: the next request dials afresh
    connection.sock.settimeout(timeout)
    return connection, True


def query(url: str, action: str,
          params: Optional[Dict[str, object]] = None,
          timeout: float = 30.0, retries: int = 2,
          retry_base_delay: float = 0.1,
          retry_deadline_s: Optional[float] = None) -> Dict[str, object]:
    """POST one protocol request to ``url`` and return the envelope.

    ``url`` is the server base (``http://host:port``); the protocol
    endpoint is its root.  Returns the decoded envelope whether the status
    is ``ok`` or ``error``; raises :class:`ServerUnavailable` only when no
    envelope came back at all.  The request travels over the calling
    thread's kept-alive connection to that server (see the module
    docstring), re-sent once on a fresh one if the kept connection turns
    out closed.  Transport failures — connection refused during a server
    restart, a dropped socket — are retried ``retries`` times with
    exponential backoff (:func:`repro.core.retry.retry_with_backoff`)
    before :class:`ServerUnavailable` propagates; ``retries=0`` restores
    the old fail-on-first-error behaviour.  An HTTP 503 (load shedding) is
    retried the same way, with each backoff delay floored by the server's
    ``Retry-After``; if retries run out the ``overloaded`` envelope is the
    answer.  Other protocol error envelopes are *answers*, never retried.
    ``retry_deadline_s`` bounds the whole retry loop in wall time: once
    the next backoff sleep would cross it, the last failure propagates
    (or, for a 503, its envelope is returned) immediately.
    """
    body = json.dumps({"action": action, "params": params or {}},
                      default=_jsonify).encode("utf-8")
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"unknown server URL {url!r}; expected "
                         f"http://host:port")
    request = _Request(
        (parts.scheme, parts.hostname,
         parts.port or (443 if parts.scheme == "https" else 80)),
        parts.path.rstrip("/") + "/", body)

    start = time.monotonic()
    pending: Dict[str, ServerOverloaded] = {}

    def sleep_with_floor(delay: float) -> None:
        overload = pending.pop("overload", None)
        if overload is not None:
            delay = max(delay, overload.retry_after_s or 0.0)
            # The floor can push a sleep far past the caller's deadline
            # in a way retry_with_backoff's own check (which sees only
            # the nominal delay) cannot know about; refuse it here and
            # let the 503 envelope be the answer.
            if retry_deadline_s is not None \
                    and time.monotonic() - start + delay >= retry_deadline_s:
                raise overload
        time.sleep(delay)

    def attempt() -> bytes:
        try:
            return _post_once(request, url, timeout)
        except ServerOverloaded as error:
            pending["overload"] = error
            raise

    try:
        payload = retry_with_backoff(
            attempt, retries=retries,
            base_delay=retry_base_delay, jitter=0.25,
            retry_on=ServerUnavailable, rng=random.Random(),
            sleep=sleep_with_floor, deadline_s=retry_deadline_s)
    except ServerOverloaded as error:
        # Out of retries (or time): the 503 envelope is the answer.
        payload = error.body
    try:
        envelope = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ServerUnavailable(
            f"the server at {url} returned a non-JSON body: {error}") \
            from None
    if not isinstance(envelope, dict):
        raise ServerUnavailable(
            f"the server at {url} returned a non-object document")
    return envelope


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` header as seconds, or ``None`` (delta form only)."""
    if value is None:
        return None
    try:
        return max(0.0, float(value.strip()))
    except ValueError:
        return None  # HTTP-date form: rarer than this client needs


def _exchange(connection: http.client.HTTPConnection,
              request: _Request) -> http.client.HTTPResponse:
    connection.request("POST", request.path, body=request.body,
                       headers={"Content-Type": "application/json"})
    return connection.getresponse()


def _post_once(request: _Request, url: str, timeout: float) -> bytes:
    """One transport attempt: the raw response body, or ServerUnavailable."""
    connection, reused = _connection_for(request.address, timeout)
    try:
        try:
            response = _exchange(connection, request)
        except _STALE_CONNECTION:
            if not reused:
                raise
            # The server closed the kept connection while it sat idle
            # (a drain, a restart): dial once more.
            connection.close()
            response = _exchange(connection, request)
        payload = response.read()
    except (http.client.HTTPException, OSError) as error:
        connection.close()
        raise ServerUnavailable(
            f"no evaluation server answered at {url}: {error}") from None
    if response.status == 503:
        raise ServerOverloaded(
            f"the server at {url} is shedding load (HTTP 503)",
            body=payload,
            retry_after_s=_retry_after_seconds(
                response.getheader("Retry-After")))
    # Other 4xx/5xx transport an error envelope; the body is the answer.
    return payload
