"""Action dispatch: the evaluation server's request handlers.

Every request is ``{"action": ..., "params": ...}``; :func:`dispatch` routes
it to a handler over one shared :class:`ServerState` and always returns an
envelope (:mod:`repro.server.protocol`) — handler exceptions become stable
error codes, never a dead connection.

Actions:

``evaluate``
    Run one design point (workload × operator × seed × backend) and return
    its result row.  Points recorded in the shared
    :class:`~repro.core.store.ResultStore` are served warm and immediately;
    cold points flow through the :class:`~repro.server.batching.BatchQueue`,
    which coalesces concurrent same-workload evaluations into one banked
    sweep.  Batched, warm or cold, the row is bit-identical to a direct
    single-threaded :class:`~repro.core.study.Study` run.
``pareto``
    Quality-versus-cost Pareto front of a described design space over a
    workload, using the incremental front machinery (and the store, so a
    repeated query is a warm replay).
``experiments``
    The experiment registry plus the known workloads, operators and
    backends.
``status``
    Uptime, per-action request counters, in-flight requests, store and
    characterisation cache statistics and batching counters (plus an
    all-zero ``table_cache`` section the repository benchmark reads).
"""
from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..core.backends import (
    cache_stats,
    describe_backends,
    registered_backends,
)
from ..core.datapath import DatapathEnergyModel
from ..core.designspace import (
    DesignSpace,
    adder_point,
    approximate_adder_axis,
    joint_adder_space,
    multiplier_point,
    operator_axis,
    sized_adder_axis,
    sized_multiplier_axis,
)
from ..core.registry import describe_operators, parse_operator, registered_mnemonics
from ..core.store import ResultStore, StoreLike, canonical_key
from ..core.study import Study
from ..operators.base import AdderOperator, MultiplierOperator
from ..workloads.registry import registered_workloads
from .batching import BatchQueue
from .protocol import (
    ERROR_INTERNAL,
    ERROR_INVALID_PARAMS,
    ERROR_OVERLOADED,
    ERROR_UNKNOWN_ACTION,
    ProtocolError,
    error_envelope,
    ok_envelope,
)


class _SharedEnergyModel(DatapathEnergyModel):
    """The server's process-wide energy model, with a serialised cold path.

    :meth:`report_for` is check-then-characterise; under concurrent request
    threads two cold requests for the same operator would both synthesise
    it.  The lock makes characterisation single-flight — warm lookups still
    pay it, but a dictionary hit under an uncontended lock is negligible
    next to a functional simulation.
    """

    def __init__(self, store: Optional[ResultStore] = None) -> None:
        super().__init__(store=store)
        self._report_lock = threading.Lock()

    def report_for(self, operator):
        with self._report_lock:
            return super().report_for(operator)


class ServerState:
    """Everything the long-lived server shares across request threads.

    One open :class:`~repro.core.store.ResultStore`, one energy model (and
    therefore one hardware-characterisation cache), one batching queue, and
    the request/error counters the ``status`` action reports.
    """

    def __init__(self, store: StoreLike = None, backend: str = "direct",
                 workers: int = 4, batch_window_s: float = 0.02,
                 deadline_s: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError("the server needs at least one worker slot")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        self.store = ResultStore.of(store)
        self.backend = str(backend)
        self.workers = int(workers)
        self.deadline_s = deadline_s
        self.energy_model = _SharedEnergyModel(store=self.store)
        self.batcher = BatchQueue(window_s=batch_window_s)
        self.started_monotonic = time.monotonic()
        self._slots = threading.BoundedSemaphore(self.workers)
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._in_flight = 0
        self._shed = 0

    @contextlib.contextmanager
    def worker_slot(self) -> Iterator[None]:
        """Hold one compute slot; shed load instead of queueing forever.

        Without a ``deadline_s`` this is the original blocking semaphore.
        With one, a request that cannot get a slot within the deadline is
        *shed*: an ``overloaded`` :class:`ProtocolError` (HTTP 503) whose
        ``retry_after_s`` tells the client when to come back — a bounded,
        honest refusal instead of an unbounded queue of doomed requests.
        """
        if self.deadline_s is None:
            with self._slots:
                yield
            return
        if not self._slots.acquire(timeout=self.deadline_s):
            with self._lock:
                self._shed += 1
            retry_after = round(max(self.deadline_s, 0.1), 3)
            raise ProtocolError(
                ERROR_OVERLOADED,
                f"no worker slot freed within {self.deadline_s:g}s; "
                f"retry after {retry_after:g}s",
                extra={"retry_after_s": retry_after})
        try:
            yield
        finally:
            self._slots.release()

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def _enter(self, action: str) -> None:
        with self._lock:
            self._requests[action] = self._requests.get(action, 0) + 1
            self._in_flight += 1

    def _exit(self, action: str, code: Optional[str]) -> None:
        with self._lock:
            self._in_flight -= 1
            if code is not None:
                self._errors[code] = self._errors.get(code, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "requests": dict(sorted(self._requests.items())),
                "errors": dict(sorted(self._errors.items())),
                "in_flight": self._in_flight,
                "shed": self._shed,
            }


# --------------------------------------------------------------------------- #
# Parameter helpers
# --------------------------------------------------------------------------- #
def _require_str(params: Dict[str, object], name: str) -> str:
    value = params.get(name)
    if not isinstance(value, str) or not value:
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'{name}' must be a non-empty string")
    return value


def _optional_str(params: Dict[str, object], name: str,
                  default: str) -> str:
    value = params.get(name, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'{name}' must be a non-empty string")
    return value


def _optional_int(params: Dict[str, object], name: str, default: int) -> int:
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'{name}' must be an integer")
    return value


def _optional_bool(params: Dict[str, object], name: str,
                   default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'{name}' must be a boolean")
    return value


def _optional_dict(params: Dict[str, object],
                   name: str) -> Dict[str, object]:
    value = params.get(name, {})
    if not isinstance(value, dict):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'{name}' must be a JSON object")
    return value


_AXES = ("operator", "adder", "multiplier")


def _jsonable(value: object) -> object:
    """Round-trip a handler result through JSON exactly as the wire will."""
    from ..core.results import _jsonify

    return json.loads(json.dumps(value, default=_jsonify))


# --------------------------------------------------------------------------- #
# evaluate
# --------------------------------------------------------------------------- #
def _evaluate_study(state: ServerState, params: Dict[str, object],
                    operators: Sequence[str]) -> Study:
    """The sweep a (possibly batched) evaluate request resolves to."""
    workload = _require_str(params, "workload")
    axis = _optional_str(params, "axis", "operator")
    if axis not in _AXES:
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'axis' must be one of {_AXES}")
    study = (Study()
             .workload(workload, **_optional_dict(params, "config"))
             .seed(_optional_int(params, "seed", 0))
             .backend(_optional_str(params, "backend", state.backend)))
    getattr(study, {"operator": "operators", "adder": "adders",
                    "multiplier": "multipliers"}[axis])(list(operators))
    if _optional_bool(params, "energy", True):
        study.energy(state.energy_model)
    if state.store is not None:
        study.store(state.store)
    return study


def _evaluate_group_key(params: Dict[str, object]) -> str:
    """Batch group: everything of an evaluate request but the operator."""
    identity = {name: canonical_key(params.get(name))
                for name in ("workload", "axis", "seed", "backend",
                             "config", "energy")}
    return json.dumps(identity, sort_keys=True)


def _normalized_evaluate_params(params: Dict[str, object]
                                ) -> Dict[str, object]:
    """Fold the ``adder``/``multiplier`` sugar into ``operator`` + ``axis``.

    ``{"adder": "RCA"}`` is shorthand for ``{"operator": "RCA", "axis":
    "adder"}`` (likewise ``multiplier``) — one keystroke-friendly spelling
    for clients, one canonical shape for the handler and the batch group
    key.
    """
    sugar = [name for name in ("adder", "multiplier") if name in params]
    if not sugar:
        return params
    if len(sugar) > 1 or "operator" in params or "axis" in params:
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            "give exactly one of 'operator' (with optional "
                            "'axis'), 'adder' or 'multiplier'")
    normalized = dict(params)
    normalized["operator"] = normalized.pop(sugar[0])
    normalized["axis"] = sugar[0]
    return normalized


def _evaluate(state: ServerState, params: Dict[str, object]
              ) -> Dict[str, object]:
    params = _normalized_evaluate_params(params)
    operator = _require_str(params, "operator")
    study = _evaluate_study(state, params, [operator])
    key = study.point_keys()[0]
    cached = state.store is not None and state.store.contains("sweep", key)
    started = time.perf_counter()
    if cached:
        # Warm point: served from the open store in milliseconds — never
        # made to wait out a batching window.
        row = study.run().rows[0]
    else:
        def run_batch(operators: List[object]) -> Sequence[object]:
            # Only the batch leader computes, and only while holding a
            # worker slot — followers wait slot-free, so the worker cap
            # bounds concurrent sweeps without capping coalescing width.
            with state.worker_slot():
                batched = _evaluate_study(state, params,
                                          [str(op) for op in operators])
                return batched.run().rows

        row = state.batcher.submit(_evaluate_group_key(params), operator,
                                   run_batch)
    return {
        "row": _jsonable(row),
        "cached": cached,
        "seconds": round(time.perf_counter() - started, 6),
    }


# --------------------------------------------------------------------------- #
# pareto
# --------------------------------------------------------------------------- #
#: Named design-space generators the ``pareto`` action accepts.
_SPACE_KINDS = ("joint_adder", "sized_adder", "approximate_adder",
                "sized_multiplier", "operators")


def _space_from_params(space: object) -> DesignSpace:
    """Build a :class:`DesignSpace` from its wire description.

    Either ``{"kind": "<generator>", ...}`` using the named axis generators
    of :mod:`repro.core.designspace`, or ``{"kind": "operators",
    "specs": [...]}`` listing explicit operator specification strings
    (adders and multipliers take their natural roles).
    """
    if not isinstance(space, dict):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            "'space' must be a JSON object describing a "
                            "design space")
    kind = space.get("kind")
    if kind not in _SPACE_KINDS:
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            f"'space.kind' must be one of {_SPACE_KINDS}")
    width = space.get("width", 16)
    if isinstance(width, bool) or not isinstance(width, int):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            "'space.width' must be an integer")
    reduced = space.get("reduced", True)
    if not isinstance(reduced, bool):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            "'space.reduced' must be a boolean")
    if kind == "operators":
        specs = space.get("specs")
        if not isinstance(specs, list) or not specs \
                or not all(isinstance(spec, str) for spec in specs):
            raise ProtocolError(ERROR_INVALID_PARAMS,
                                "'space.specs' must be a non-empty list of "
                                "operator specification strings")
        points = []
        for spec in specs:
            operator = parse_operator(spec)
            if isinstance(operator, AdderOperator):
                points.append(adder_point(operator))
            elif isinstance(operator, MultiplierOperator):
                points.append(multiplier_point(operator))
            else:
                points.extend(operator_axis([operator]))
        return DesignSpace(points)
    word_lengths = space.get("word_lengths")
    if word_lengths is not None and (
            not isinstance(word_lengths, list)
            or not all(isinstance(w, int) and not isinstance(w, bool)
                       for w in word_lengths)):
        raise ProtocolError(ERROR_INVALID_PARAMS,
                            "'space.word_lengths' must be a list of integers")
    if kind == "joint_adder":
        return joint_adder_space(width, reduced=reduced,
                                 sized_widths=word_lengths)
    if kind == "sized_adder":
        return sized_adder_axis(width, word_lengths=word_lengths)
    if kind == "sized_multiplier":
        return sized_multiplier_axis(width, word_lengths=word_lengths)
    return approximate_adder_axis(width, reduced=reduced)


def _pareto(state: ServerState, params: Dict[str, object]
            ) -> Dict[str, object]:
    workload = _require_str(params, "workload")
    quality = _require_str(params, "quality")
    cost = _optional_str(params, "cost", "total_energy_pj")
    space = _space_from_params(params.get("space"))
    study = (Study()
             .workload(workload, **_optional_dict(params, "config"))
             .design_space(space)
             .seed(_optional_int(params, "seed", 0))
             .backend(_optional_str(params, "backend", state.backend))
             .energy(state.energy_model)
             .pareto(quality=quality, cost=cost,
                     maximize_quality=_optional_bool(params,
                                                     "maximize_quality", True),
                     minimize_cost=_optional_bool(params,
                                                  "minimize_cost", True)))
    if state.store is not None:
        study.store(state.store)
    started = time.perf_counter()
    with state.worker_slot():
        result = study.run()
    front = result.fronts[f"{quality}_vs_{cost}"]
    return {
        "front": _jsonable(front.to_dict()),
        "rows": len(result.rows),
        "sweep_points": len(space),
        "store_hits": result.metadata.get("store_hits", 0),
        "seconds": round(time.perf_counter() - started, 6),
    }


# --------------------------------------------------------------------------- #
# experiments / status
# --------------------------------------------------------------------------- #
def _experiments(state: ServerState, params: Dict[str, object]
                 ) -> Dict[str, object]:
    from ..experiments import EXPERIMENTS, experiment_names

    names = experiment_names(
        include_ablations=_optional_bool(params, "ablations", True))
    return {
        "experiments": [
            {"name": name, "title": EXPERIMENTS[name].title,
             "ablation": EXPERIMENTS[name].ablation}
            for name in names
        ],
        "workloads": registered_workloads(),
        "operators": registered_mnemonics(),
        "operator_details": describe_operators(),
        "backends": registered_backends(),
        "backend_details": describe_backends(),
    }


def _status(state: ServerState, params: Dict[str, object]
            ) -> Dict[str, object]:
    from .. import __version__

    return {
        "version": __version__,
        "uptime_s": round(time.monotonic() - state.started_monotonic, 3),
        "backend": state.backend,
        "workers": state.workers,
        **state.snapshot(),
        "store": state.store.stats() if state.store is not None else None,
        "table_cache": cache_stats(),
        "hardware_cache": {"reports": len(state.energy_model._cache)},
        "batching": state.batcher.stats(),
    }


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #
Handler = Callable[[ServerState, Dict[str, object]], Dict[str, object]]

ACTIONS: Dict[str, Handler] = {
    "evaluate": _evaluate,
    "pareto": _pareto,
    "experiments": _experiments,
    "status": _status,
}


def dispatch(state: ServerState, action: str,
             params: Dict[str, object]) -> Dict[str, object]:
    """Route one parsed request to its handler; always returns an envelope.

    Parameter validation failures (including the ``ValueError`` /
    ``KeyError`` / ``TypeError`` family the registries and the Study raise
    on bad specifications) map to ``invalid_params``; anything else a
    handler raises maps to ``internal_error`` — the server never lets a
    request kill the process.
    """
    handler = ACTIONS.get(action)
    if handler is None:
        envelope = error_envelope(
            ERROR_UNKNOWN_ACTION,
            f"unknown action {action!r}; known: {', '.join(sorted(ACTIONS))}",
            action=action)
        state._enter(action)
        state._exit(action, ERROR_UNKNOWN_ACTION)
        return envelope
    state._enter(action)
    code: Optional[str] = None
    try:
        return ok_envelope(action, handler(state, params))
    except ProtocolError as error:
        code = error.code
        return error.envelope(action=action)
    except (ValueError, KeyError, TypeError) as error:
        code = ERROR_INVALID_PARAMS
        return error_envelope(ERROR_INVALID_PARAMS, str(error), action=action)
    except Exception as error:  # noqa: BLE001 - the server must stay up
        code = ERROR_INTERNAL
        return error_envelope(ERROR_INTERNAL,
                              f"{error.__class__.__name__}: {error}",
                              action=action)
    finally:
        state._exit(action, code)
