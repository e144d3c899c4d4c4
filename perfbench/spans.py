"""Layer-attributed timing spans, installed from outside the package.

Nothing in ``src/`` records spans.  :func:`install` wraps public functions
and methods of each ``repro`` layer — operators, execution backends, the
``ApproxContext``, the applications, workloads, hardware characterisation,
metrics, the result store, the Study engine, the experiment registry, the
search drivers and the server — with a span that counts calls and
accumulates inclusive time and *self* time (its duration minus the spans
it caused).  Spans nest per thread, so the server's request threads each
keep their own stack.  Aggregates stay in memory; :meth:`Recorder.snapshot`
returns them for the benchmark to write out at the end.

A span key is ``"<layer>:<detail>"``; summing the self times of one layer
gives that layer's row of the per-layer table, and the self times of all
spans add up to the traced work minus what no span covers (the untraced
remainder).
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

Key = Union[str, Callable[[tuple, object], str]]

#: Experiment registry names the per-layer table reports one by one.
EXPERIMENT_NAMES = (
    "fig3_fig4_adders", "table1_multipliers", "fig5_fft_adders",
    "table2_fft_multipliers", "fft_joint_frontier", "fig6_jpeg",
    "jpeg_joint_frontier", "table3_hevc_adders", "table4_hevc_multipliers",
    "table5_kmeans_adders", "table6_kmeans_multipliers",
    "fft_heterogeneous_search", "ablation_compensation",
    "ablation_rounding_mode",
)

#: Registered workload names the per-layer table reports one by one.
WORKLOAD_NAMES = ("fft", "jpeg", "hevc", "kmeans", "characterization")

#: Layers in table order (blocking chain first, then side layers).
LAYERS = ("server", "experiments", "study", "search", "store", "workloads",
          "apps", "context", "backends", "operators", "datapath", "hardware",
          "characterization", "metrics")


class Recorder:
    """Thread-aware span aggregator: ``key -> [calls, inclusive, self,
    elements]`` plus free-form observed counters (``values``)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, List[float]] = {}
        self.values: Dict[str, float] = {}

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, key: str, elapsed: float, own: float,
                elements: int) -> None:
        with self._lock:
            entry = self.spans.get(key)
            if entry is None:
                entry = self.spans[key] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += own
            entry[3] += elements

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount

    def wrap(self, function: Callable, key: Key,
             elements: Optional[Callable[[object], int]] = None,
             observe: Optional[Callable[[tuple, object], None]] = None
             ) -> Callable:
        """``function`` inside a span; ``key`` may be computed from the
        call's arguments and result (e.g. warm versus cold evaluate)."""
        stack_of = self._stack
        record = self._record
        clock = time.perf_counter

        @functools.wraps(function)
        def spanned(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                name = key if isinstance(key, str) else key(args, result)
                count = elements(result) if elements is not None \
                    and result is not None else 0
                record(name, elapsed, elapsed - frame[0], count)
                if observe is not None and result is not None:
                    observe(args, result)

        return spanned

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"spans": {key: list(entry)
                              for key, entry in self.spans.items()},
                    "values": dict(self.values)}


def _size(result: object) -> int:
    return int(getattr(result, "size", 1))


def _patch_method(recorder: Recorder, owner: type, name: str, key: Key,
                  **options) -> None:
    setattr(owner, name, recorder.wrap(owner.__dict__[name], key, **options))


def _patch_function(recorder: Recorder, module, name: str, key: Key) -> None:
    """Wrap a module-level function and every ``repro`` module's binding of
    it (``from .x import f`` copies the reference into the importer)."""
    original = getattr(module, name)
    spanned = recorder.wrap(original, key)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attribute, spanned)


def _subclasses(root: type) -> List[type]:
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            pending.append(sub)
    return found


def install() -> Recorder:
    """Wrap every instrumented ``repro`` entry point; returns the recorder."""
    # import_module, not ``import a.b as m``: packages re-export functions
    # under their submodules' names (``repro.server.dispatch``).
    apps, experiments, synthesis, error_metrics, image_metrics, \
        signal_metrics, dispatch, _, _ = (
            importlib.import_module(f"repro.{name}") for name in (
                "apps", "experiments", "hardware.synthesis", "metrics.error",
                "metrics.image", "metrics.signal", "server.dispatch",
                "server.app", "workloads"))
    from repro.core.backends import ExecutionBackend
    from repro.core.characterization import Apxperf
    from repro.core.context import ApproxContext
    from repro.core.datapath import DatapathEnergyModel
    from repro.core.store import ResultStore
    from repro.core.study import Study
    from repro.operators.base import Operator, MultiplierOperator
    from repro.server.batching import BatchQueue
    from repro.workloads.base import Workload

    recorder = Recorder()

    def operator_key(args: tuple, result: object) -> str:
        if isinstance(args[0], MultiplierOperator):
            return "operators:multiplier"
        return "operators:adder"

    _patch_method(recorder, Operator, "aligned", operator_key, elements=_size)
    for backend in _subclasses(ExecutionBackend):
        if "execute" in backend.__dict__:
            _patch_method(recorder, backend, "execute", "backends:execute")
    for op in ("add", "sub", "mul"):
        _patch_method(recorder, ApproxContext, op, "context:op",
                      elements=_size)

    for owner, name, key in (
            (apps.FixedPointFFT, "forward", "apps:fft_forward"),
            (apps.FixedPointDCT, "forward", "apps:dct_forward"),
            (apps.JpegEncoder, "encode_decode", "apps:jpeg_encode_decode"),
            (apps.MotionCompensationFilter, "interpolate",
             "apps:hevc_interpolate"),
            (apps.FixedPointKMeans, "fit", "apps:kmeans_fit")):
        _patch_method(recorder, owner, name, key)
    for workload in _subclasses(Workload):
        if "run" in workload.__dict__:
            _patch_method(recorder, workload, "run",
                          f"workloads:{workload.name}")

    _patch_function(recorder, synthesis, "characterize_hardware",
                    "hardware:characterize")
    _patch_method(recorder, DatapathEnergyModel, "report_for",
                  "datapath:report_for")
    for name in ("characterize", "characterize_many"):
        _patch_method(recorder, Apxperf, name,
                      "characterization:characterize")
    for module, key in ((error_metrics, "metrics:error"),
                        (image_metrics, "metrics:image"),
                        (signal_metrics, "metrics:signal")):
        for name, function in list(vars(module).items()):
            if inspect.isfunction(function) and not name.startswith("_") \
                    and function.__module__ == module.__name__:
                _patch_function(recorder, module, name, key)

    _patch_method(recorder, ResultStore, "save", "store:save")
    _patch_method(recorder, ResultStore, "load",
                  lambda args, result: "store:load_hit"
                  if result is not None else "store:load_miss")

    def count_points(args: tuple, result) -> None:
        rows = len(result.rows)
        stored = int(result.metadata.get("store_hits", 0))
        recorder.add("study.points_stored", stored)
        recorder.add("study.points_fresh", rows - stored)

    _patch_method(recorder, Study, "run", "study:run", observe=count_points)

    def count_search(args: tuple, outcome) -> None:
        recorder.add("search.evaluations", outcome.evaluations)
        recorder.add("search.fresh_evaluations", outcome.fresh_evaluations)
        recorder.add("search.cost_units", outcome.cost_units)

    _patch_method(recorder, Study, "search", "search:search",
                  observe=count_search)
    for name, spec in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[name] = dataclasses.replace(
            spec, build=recorder.wrap(spec.build, f"experiments:{name}"))

    _patch_function(recorder, dispatch, "dispatch", "server:dispatch")
    dispatch.ACTIONS["evaluate"] = recorder.wrap(
        dispatch.ACTIONS["evaluate"],
        lambda args, result: "server:evaluate_warm"
        if result is not None and result.get("cached")
        else "server:evaluate_cold")
    _patch_method(recorder, BatchQueue, "submit", "server:batch_wait")
    return recorder


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("operators.aligned_calls", "count"),
    ("operators.aligned_elements", "count"),
    ("operators.adders_s", "s"),
    ("operators.multipliers_s", "s"),
    ("backends.execute_calls", "count"),
    ("backends.execute_self_s", "s"),
    ("backends.table_hit_ratio", "frac"),
    ("backends.arena_builds", "count"),
    ("backends.arena_attaches", "count"),
    ("context.calls", "count"),
    ("context.elements", "count"),
    ("context.self_s", "s"),
    ("apps.fft_forward_s", "s"),
    ("apps.dct_forward_s", "s"),
    ("apps.jpeg_encode_decode_s", "s"),
    ("apps.hevc_interpolate_s", "s"),
    ("apps.kmeans_fit_s", "s"),
    *((f"workloads.{name}_s", "s") for name in WORKLOAD_NAMES),
    ("hardware.characterize_calls", "count"),
    ("hardware.characterize_s", "s"),
    ("datapath.report_for_calls", "count"),
    ("characterization.characterize_s", "s"),
    ("metrics.error_s", "s"),
    ("metrics.image_s", "s"),
    ("metrics.signal_s", "s"),
    ("store.save_calls", "count"),
    ("store.save_s", "s"),
    ("store.load_calls", "count"),
    ("store.load_s", "s"),
    ("store.hit_ratio", "frac"),
    ("study.points_fresh", "count"),
    ("study.points_stored", "count"),
    ("study.self_s", "s"),
    *((f"experiments.{name}_s", "s") for name in EXPERIMENT_NAMES),
    ("search.evaluations", "count"),
    ("search.fresh_evaluations", "count"),
    ("search.cost_units", "count"),
    ("search.self_s", "s"),
    ("server.dispatch_self_s", "s"),
    ("server.evaluate_warm_s", "s"),
    ("server.evaluate_cold_s", "s"),
    ("server.batch_wait_s", "s"),
    ("server.batches", "count"),
    ("server.coalesced", "count"),
    ("server.shed", "count"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_self_times(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Self seconds per layer (the rows of the per-layer table)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for key, entry in snapshot["spans"].items():
        layer = key.split(":", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + entry[2]
    return totals


def layer_metrics(snapshot: Dict[str, object], table_cache: Dict[str, object],
                  batching: Dict[str, object], shed: int
                  ) -> Dict[str, float]:
    """Per-layer metric values of one traced run (without the two
    ``trace.*`` rows, which need the untraced runs)."""
    spans = snapshot["spans"]
    values = snapshot["values"]

    def calls(*keys: str) -> int:
        return int(sum(spans[key][0] for key in keys if key in spans))

    def own(*keys: str) -> float:
        return float(sum(spans[key][2] for key in keys if key in spans))

    def elements(*keys: str) -> int:
        return int(sum(spans[key][3] for key in keys if key in spans))

    operators = ("operators:adder", "operators:multiplier")
    lookups = int(table_cache.get("hits", 0)) \
        + int(table_cache.get("misses", 0))
    arena = table_cache.get("arena") or {}
    loads = ("store:load_hit", "store:load_miss")
    metrics: Dict[str, float] = {
        "operators.aligned_calls": calls(*operators),
        "operators.aligned_elements": elements(*operators),
        "operators.adders_s": own("operators:adder"),
        "operators.multipliers_s": own("operators:multiplier"),
        "backends.execute_calls": calls("backends:execute"),
        "backends.execute_self_s": own("backends:execute"),
        "backends.table_hit_ratio":
            int(table_cache.get("hits", 0)) / lookups if lookups else 0.0,
        "backends.arena_builds": int(arena.get("builds", 0)),
        "backends.arena_attaches": int(arena.get("attaches", 0)),
        "context.calls": calls("context:op"),
        "context.elements": elements("context:op"),
        "context.self_s": own("context:op"),
        "apps.fft_forward_s": own("apps:fft_forward"),
        "apps.dct_forward_s": own("apps:dct_forward"),
        "apps.jpeg_encode_decode_s": own("apps:jpeg_encode_decode"),
        "apps.hevc_interpolate_s": own("apps:hevc_interpolate"),
        "apps.kmeans_fit_s": own("apps:kmeans_fit"),
        "hardware.characterize_calls": calls("hardware:characterize"),
        "hardware.characterize_s": own("hardware:characterize"),
        "datapath.report_for_calls": calls("datapath:report_for"),
        "characterization.characterize_s":
            own("characterization:characterize"),
        "metrics.error_s": own("metrics:error"),
        "metrics.image_s": own("metrics:image"),
        "metrics.signal_s": own("metrics:signal"),
        "store.save_calls": calls("store:save"),
        "store.save_s": own("store:save"),
        "store.load_calls": calls(*loads),
        "store.load_s": own(*loads),
        "store.hit_ratio": calls("store:load_hit") / calls(*loads)
        if calls(*loads) else 0.0,
        "study.points_fresh": int(values.get("study.points_fresh", 0)),
        "study.points_stored": int(values.get("study.points_stored", 0)),
        "study.self_s": own("study:run"),
        "search.evaluations": int(values.get("search.evaluations", 0)),
        "search.fresh_evaluations":
            int(values.get("search.fresh_evaluations", 0)),
        "search.cost_units": float(values.get("search.cost_units", 0.0)),
        "search.self_s": own("search:search"),
        "server.dispatch_self_s": own("server:dispatch"),
        "server.evaluate_warm_s": own("server:evaluate_warm"),
        "server.evaluate_cold_s": own("server:evaluate_cold"),
        "server.batch_wait_s": own("server:batch_wait"),
        "server.batches": int(batching.get("batches", 0)),
        "server.coalesced": int(batching.get("coalesced", 0)),
        "server.shed": int(shed),
    }
    for name in WORKLOAD_NAMES:
        metrics[f"workloads.{name}_s"] = own(f"workloads:{name}")
    for name in EXPERIMENT_NAMES:
        # Inclusive: the wall clock of each experiment, not its glue.
        entry = spans.get(f"experiments:{name}")
        metrics[f"experiments.{name}_s"] = float(entry[1]) if entry else 0.0
    return metrics
