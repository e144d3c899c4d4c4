"""Approximation-as-a-service: the long-lived evaluation server.

Every one-shot ``python -m repro`` invocation pays the cold costs —
interpreter start-up, hardware characterisation, workload stimulus — and
then throws the warm process away.  This package keeps the process alive: a
JSON-over-HTTP service (stdlib only) holding the shared hardware-
characterisation cache and an open :class:`~repro.core.store.ResultStore`,
answering design-space queries from concurrent clients with request
batching.

Layers:

* :mod:`repro.server.protocol` — the wire contract: ``{"action", "params"}``
  requests, ``ok``/``error`` envelopes with stable error codes;
* :mod:`repro.server.dispatch` — the action handlers (``evaluate``,
  ``pareto``, ``experiments``, ``status``) over one shared
  :class:`ServerState`;
* :mod:`repro.server.batching` — the single-flight queue through which
  cold ``evaluate`` requests compute: each point once, however many
  clients ask for it, and same-workload points that wait for a compute
  slot as one banked sweep;
* :mod:`repro.server.app` — the :class:`EvalServer` HTTP front
  (``python -m repro serve``);
* :mod:`repro.server.client` — the thin query client over per-thread
  keep-alive connections (``python -m repro query`` and
  ``benchmarks/serve_bench.py``).
"""
from .app import EvalServer
from .batching import BatchQueue
from .client import ServerUnavailable, query
from .dispatch import ServerState, dispatch
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_INVALID_PARAMS,
    ERROR_UNKNOWN_ACTION,
    ProtocolError,
    error_envelope,
    ok_envelope,
    parse_request,
)

__all__ = [
    "BatchQueue",
    "ERROR_BAD_REQUEST",
    "ERROR_INTERNAL",
    "ERROR_INVALID_PARAMS",
    "ERROR_UNKNOWN_ACTION",
    "EvalServer",
    "ProtocolError",
    "ServerState",
    "ServerUnavailable",
    "dispatch",
    "error_envelope",
    "ok_envelope",
    "parse_request",
    "query",
]
