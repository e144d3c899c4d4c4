"""Fluent ``Study`` pipeline: the single entry point for every experiment.

A study binds one :class:`~repro.workloads.base.Workload` to an operator
sweep, charges every sweep point with the datapath energy of Equation 1
through one *shared* hardware-characterisation cache, and emits a tidy
:class:`~repro.core.results.ExperimentResult` /
:class:`~repro.core.results.ResultBundle`::

    from repro import Study
    result = (Study()
              .workload("jpeg(size=96)")
              .adders(default_adder_sweep())
              .energy(DatapathEnergyModel())
              .seed(7)
              .run(workers=4))

Execution is deterministic: the stimulus seed fixes every workload input, the
functional simulations of the sweep points are independent (and therefore
parallelisable over a process pool), and energy accounting always happens in
the parent process against the shared cache — so ``run(workers=4)`` yields
results identical to ``run(workers=1)``.  A pool that cannot start falls
back to the serial path with a ``RuntimeWarning``.  Every sweep point
evaluates its operators through their closed forms on the ``"direct"``
backend unless :meth:`Study.backend` selects a registered plug-in.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..operators.adders import ExactAdder
from ..operators.base import AdderOperator, MultiplierOperator, Operator
from ..workloads.base import OperatorMap, Workload, WorkloadResult
from ..workloads.registry import parse_workload
from .backends import BackendLike, backend_spec
from .datapath import (
    DatapathEnergyBreakdown,
    DatapathEnergyModel,
    OperationCounts,
    minimal_multiplier_for,
)
from .designspace import DesignPoint, DesignSpace
from .registry import parse_operator
from .results import ExperimentResult, ParetoFront, ResultBundle
from .store import ResultStore, StoreLike


@dataclass
class SweepOutcome:
    """Everything one sweep point produced; handed to the row builder.

    ``swept`` is the operator under test.  ``adder`` / ``multiplier`` are the
    operators the energy model charged (for an adder sweep, ``multiplier`` is
    the energy-pairing partner, e.g. the minimal exact multiplier the adder's
    emitted data width allows).
    """

    index: int
    workload: str
    swept: Operator
    adder: Optional[AdderOperator]
    multiplier: Optional[MultiplierOperator]
    metrics: Dict[str, float]
    counts: OperationCounts
    details: Dict[str, object] = field(default_factory=dict)
    energy: Optional[DatapathEnergyBreakdown] = None
    energy_model: Optional[DatapathEnergyModel] = None
    #: Design point behind this outcome (design-space sweeps only).
    point: Optional[DesignPoint] = None


RowBuilder = Callable[[SweepOutcome], Dict[str, object]]
OperatorLike = Union[Operator, str, DesignPoint]


def _resolve_operator(operator: OperatorLike) -> Operator:
    if isinstance(operator, str):
        return parse_operator(operator)
    return operator


def _execute_point(task: Tuple[Workload, OperatorMap, Dict[str, object], int]
                   ) -> WorkloadResult:
    """Run one sweep point's functional simulation (process-pool safe)."""
    workload, operators, config, seed = task
    rng = np.random.default_rng(seed)
    return workload.run(operators, config, rng)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count for a sweep's process pool.

    A ``REPRO_WORKERS`` environment variable overrides the requested value
    verbatim (the operator knows the machine better than the caller); an
    unparsable override is ignored with a warning.  Requested values are
    otherwise capped at ``os.cpu_count()`` — oversubscribing a sweep of
    CPU-bound functional simulations only adds scheduling churn — and
    floored at one.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring unparsable REPRO_WORKERS={env!r} (not an integer)",
                RuntimeWarning, stacklevel=2)
    if workers is None:
        return 1
    return max(1, min(int(workers), os.cpu_count() or 1))


#: A shard specification: ``None`` (whole sweep), an ``"i/n"`` string, or an
#: ``(index, count)`` pair.
ShardLike = Union[str, Tuple[int, int], None]


def parse_shard(shard: ShardLike) -> Optional[Tuple[int, int]]:
    """Normalise an ``"i/n"`` string or ``(i, n)`` pair; ``None`` passes.

    ``i`` is the zero-based shard index, ``n`` the shard count; the pair is
    validated (``0 <= i < n``) so a typo fails loudly before any sweep runs.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        parts = shard.split("/")
        if len(parts) != 2:
            raise ValueError(f"shard spec {shard!r} is not of the form 'i/n'")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"shard spec {shard!r} is not of the form 'i/n'") from None
    else:
        index, count = int(shard[0]), int(shard[1])
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index {index} is out of range for {count} shards")
    return index, count


class Study:
    """Chainable builder for one workload-versus-operator-sweep experiment.

    The builder methods each return ``self``; :meth:`run` executes the sweep
    and returns an :class:`ExperimentResult` (:meth:`run_bundle` wraps it in
    a :class:`ResultBundle`).  See the module docstring for the canonical
    usage, and :mod:`repro.experiments` for the paper's studies expressed as
    thin declarative wrappers over this API.
    """

    def __init__(self) -> None:
        self._workload: Optional[Workload] = None
        self._config: Dict[str, object] = {}
        self._operators: List[OperatorLike] = []
        self._axis: str = "operator"
        self._pair: Optional[OperatorLike] = None
        self._pair_injected = False
        self._backend: BackendLike = "direct"
        self._energy_model: Optional[DatapathEnergyModel] = None
        self._seed: Optional[int] = None
        self._constant_coefficient = False
        self._experiment: Optional[str] = None
        self._description: str = ""
        self._columns: Optional[List[str]] = None
        self._metadata: Optional[Dict[str, object]] = None
        self._row_builder: Optional[RowBuilder] = None
        self._store: Optional[ResultStore] = None
        self._pareto_axes: Optional[Tuple[str, str, bool, bool]] = None
        self._shard: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # Builder surface
    # ------------------------------------------------------------------ #
    def workload(self, workload: Union[Workload, str],
                 **config: object) -> "Study":
        """Select the workload — an instance or a spec like ``"fft(1024)"``.

        Selecting a workload replaces any configuration overrides queued for
        a previously selected one.
        """
        self._workload = parse_workload(workload) \
            if isinstance(workload, str) else workload
        self._config = dict(config)
        return self

    def config(self, **overrides: object) -> "Study":
        """Override workload configuration keys (validated at run time)."""
        self._config.update(overrides)
        return self

    def adders(self, operators: Iterable[OperatorLike]) -> "Study":
        """Sweep the adder slot; multiplications are charged to the pair."""
        self._operators = list(operators)
        self._axis = "adder"
        return self

    def multipliers(self, operators: Iterable[OperatorLike]) -> "Study":
        """Sweep the multiplier slot; additions are charged to the pair."""
        self._operators = list(operators)
        self._axis = "multiplier"
        return self

    def operators(self, operators: Iterable[OperatorLike]) -> "Study":
        """Sweep bare operators (operator-level characterisation studies)."""
        self._operators = list(operators)
        self._axis = "operator"
        return self

    def design_space(self, space: Union[DesignSpace, Iterable[DesignPoint]]
                     ) -> "Study":
        """Sweep a unified operator × word-length design space.

        Every :class:`~repro.core.designspace.DesignPoint` carries its own
        adder + multiplier pairing (sizing-propagated for the careful-sizing
        axis) and optional per-point workload configuration overrides, so a
        single sweep can mix functionally approximate operators and
        word-length-sized exact datapaths — the paper's joint comparison.
        """
        self._operators = list(DesignSpace.of(space))
        self._axis = "design"
        return self

    def pareto(self, quality: str, cost: str, maximize_quality: bool = True,
               minimize_cost: bool = True) -> "Study":
        """Extract the quality-versus-cost Pareto front while running.

        The front is updated *incrementally* as sweep points complete —
        including out-of-order completions from a process pool — and is
        attached to the emitted result under
        ``result.fronts[f"{quality}_vs_{cost}"]``; it is bit-identical to a
        serial in-order extraction.
        """
        self._pareto_axes = (str(quality), str(cost), bool(maximize_quality),
                             bool(minimize_cost))
        return self

    def store(self, store: StoreLike) -> "Study":
        """Persist and reuse sweep records through a disk-backed store.

        Accepts a :class:`~repro.core.store.ResultStore` or a directory
        path.  Sweep points whose exact computation (workload, merged
        configuration, operators, backend, seed, repro version) was
        recorded in an earlier session are served from disk and skip their
        functional simulation; fresh points are written back.  The store is
        also offered to the energy model (if it has none yet), so hardware
        characterisations persist alongside.
        """
        self._store = ResultStore.of(store)
        return self

    def shard(self, shard: Union[ShardLike, int] = None,
              count: Optional[int] = None) -> "Study":
        """Restrict the sweep to one deterministic shard of its points.

        Accepts ``shard(i, n)``, a spec string ``shard("i/n")``, a tuple,
        or ``None`` (a no-op, so callers can forward an optional shard
        argument unconditionally).

        The resolved sweep (the ordered, de-duplicated point list) is
        partitioned round-robin: point ``j`` belongs to shard ``index`` iff
        ``j % count == index``, so for any ``count`` the shards are a
        disjoint cover of the point set and the partition is stable across
        runs, processes and machines.  Row builders still see each point's
        *global* sweep index, store keys are shard-independent (a shard
        warms the same records an unsharded run would), and the emitted
        result records ``metadata["shard"]`` plus the global
        ``metadata["sweep_indices"]`` of its rows — which is what
        :meth:`~repro.core.results.ExperimentResult.merge_shards` uses to
        fold shard results back into one bit-identical whole.
        """
        if count is not None:
            shard = (int(shard), int(count))  # type: ignore[arg-type]
        self._shard = parse_shard(shard)  # type: ignore[arg-type]
        return self

    def pair_with(self, operator: OperatorLike,
                  inject: bool = False) -> "Study":
        """Fix the energy-pairing partner of every sweep point.

        By default the partner only enters the energy accounting (the paper's
        convention: an adder sweep still simulates with the exact multiplier
        but is charged for the data-sized one).  ``inject=True`` also feeds
        the partner into the functional simulation.
        """
        self._pair = operator
        self._pair_injected = inject
        return self

    def backend(self, backend: BackendLike) -> "Study":
        """Select the execution backend of every sweep point.

        ``"direct"`` (the default, and the only built-in backend) evaluates
        each operator call through its closed-form model.  Spec strings of
        registered plug-ins (with parameters, e.g. ``"name(param=1)"``) and
        :class:`~repro.core.backends.ExecutionBackend` instances also work.
        """
        self._backend = backend
        return self

    def energy(self, model: Optional[DatapathEnergyModel] = None) -> "Study":
        """Charge sweep points with Equation 1 through one shared cache."""
        self._energy_model = model if model is not None else DatapathEnergyModel()
        return self

    def seed(self, seed: int) -> "Study":
        """Stimulus seed: same seed in, identical results out."""
        self._seed = int(seed)
        return self

    def constant_coefficient(self, enabled: bool = True) -> "Study":
        """Charge multiplications at the constant-coefficient rate."""
        self._constant_coefficient = bool(enabled)
        return self

    def experiment(self, name: str, description: str = "",
                   columns: Optional[Sequence[str]] = None,
                   metadata: Optional[Dict[str, object]] = None) -> "Study":
        """Name the emitted result and optionally pin its columns/metadata."""
        self._experiment = name
        self._description = description
        self._columns = list(columns) if columns is not None else None
        self._metadata = dict(metadata) if metadata is not None else None
        return self

    def rows(self, builder: RowBuilder) -> "Study":
        """Custom row shape: a callable mapping a SweepOutcome to a dict."""
        self._row_builder = builder
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, workers: int = 1) -> ExperimentResult:
        """Execute the sweep and emit the experiment result.

        ``workers > 1`` fans the functional simulations out over a process
        pool; energy charging, Pareto-front maintenance and row emission
        stay in the parent — rows are processed as workers complete (which
        is how the incremental front fills in) but always emitted in sweep
        order, so the result is bit-identical to a serial run.  With a
        configured :meth:`store`, recorded sweep points skip their
        simulation entirely and fresh ones are persisted.

        The requested ``workers`` is resolved through
        :func:`resolve_workers`: capped at the machine's CPU count and
        overridable via the ``REPRO_WORKERS`` environment variable.
        """
        workers = resolve_workers(workers)
        if self._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        if self._pair is not None and self._axis == "design":
            raise ValueError(
                "pair_with() does not apply to a design-space sweep: every "
                "DesignPoint already carries its own operator pairing — set "
                "the partner (and inject_pair) on the points instead")
        workload = self._workload
        config, seed = self._merged_config(workload)
        # Offer this study's store to a store-less energy model for the
        # duration of the run only: a model shared across studies must not
        # keep the first study's store directory (restored in the finally
        # below), while a model configured with its own store is never
        # touched.
        store_offered = (self._store is not None
                         and self._energy_model is not None
                         and self._energy_model.store is None)
        if store_offered:
            self._energy_model.store = self._store
        try:
            return self._run_resolved(workload, config, seed, workers)
        finally:
            if store_offered:
                self._energy_model.store = None

    def _merged_config(self, workload: Workload
                       ) -> Tuple[Dict[str, object], int]:
        """Fresh merged workload configuration plus the effective seed."""
        config = workload.merged_config(self._config)
        if self._seed is not None:
            config["seed"] = self._seed
        else:
            config.setdefault("seed", 0)
        return config, int(config["seed"])

    def _resolved_tasks(self, workload: Workload, config: Dict[str, object],
                        seed: int):
        """Resolve the sweep into ``(points, tasks)``.

        ``points`` covers the whole sweep; ``tasks`` pairs each *selected*
        (shard-filtered) global index with its executable task tuple.
        """
        points = [self._resolve_point(op) for op in self._operators]
        if self._shard is not None:
            shard_index, shard_count = self._shard
            selected = [index for index in range(len(points))
                        if index % shard_count == shard_index]
        else:
            selected = list(range(len(points)))
        tasks: List[Tuple[int, Tuple[Workload, OperatorMap,
                                     Dict[str, object], int]]] = []
        for index in selected:
            operator_map, _, _, design = points[index]
            point_config = config
            if design is not None and design.config:
                point_config = workload.merged_config(
                    {**self._config, **dict(design.config)})
                point_config["seed"] = seed
            tasks.append((index, (workload, operator_map, point_config, seed)))
        return points, selected, tasks

    def point_keys(self) -> List[Dict[str, object]]:
        """Structural store keys of the resolved sweep points, in sweep order.

        The keys are exactly what :meth:`run` would probe a configured
        :meth:`store` with, so a caller (the evaluation server, a scheduler)
        can test ``store.contains("sweep", key)`` to predict which points an
        upcoming run will serve warm — without executing anything.  A
        sharded study returns only its shard's keys.
        """
        if self._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        workload = self._workload
        config, seed = self._merged_config(workload)
        _, _, tasks = self._resolved_tasks(workload, config, seed)
        return [self._sweep_key(task) for _, task in tasks]

    def _run_resolved(self, workload: Workload, config: Dict[str, object],
                      seed: int, workers: int) -> ExperimentResult:
        """Execute the configured sweep (see :meth:`run`)."""
        points, selected, tasks = self._resolved_tasks(workload, config, seed)

        front: Optional[ParetoFront] = None
        if self._pareto_axes is not None:
            quality, cost, maximize_quality, minimize_cost = self._pareto_axes
            front = ParetoFront(quality, cost,
                                maximize_quality=maximize_quality,
                                minimize_cost=minimize_cost)

        build_row = self._row_builder or _default_row
        rows: Dict[int, Dict[str, object]] = {}
        store_hits = 0
        for index, outcome, fresh in self._outcomes(tasks, workers):
            operator_map, adder, multiplier, design = points[index]
            if not fresh:
                store_hits += 1
            energy = None
            if self._energy_model is not None and adder is not None:
                energy = self._energy_model.application_energy_pj(
                    outcome.counts, adder, multiplier,
                    constant_coefficient_multiplications=self._constant_coefficient)
            sweep_outcome = SweepOutcome(
                index=index,
                workload=workload.name,
                swept=operator_map.swept,
                adder=adder,
                multiplier=multiplier,
                metrics=dict(outcome.metrics),
                counts=outcome.counts,
                details=dict(outcome.details),
                energy=energy,
                energy_model=self._energy_model,
                point=design,
            )
            row = build_row(sweep_outcome)
            rows[index] = row
            if front is not None:
                front.update(row, index)

        metadata = self._metadata if self._metadata is not None \
            else {"workload": workload.name, "seed": seed,
                  "sweep_points": len(points),
                  "backend": backend_spec(self._backend)}
        if self._store is not None:
            # self._metadata is already a private copy (made in experiment()),
            # so annotating it never mutates caller state.
            metadata["store_hits"] = store_hits
        if self._shard is not None:
            # One key, stripped wholesale by ExperimentResult.merge_shards so
            # merged metadata matches an unsharded run's exactly.
            metadata["shard"] = {"index": self._shard[0],
                                 "count": self._shard[1],
                                 "sweep_points": len(points),
                                 "sweep_indices": list(selected)}
        experiment = ExperimentResult(
            experiment=self._experiment or f"{workload.name}_{self._axis}_sweep",
            description=self._description or (
                f"Study sweep of {len(points)} {self._axis} configurations "
                f"over the {workload.name!r} workload"),
            columns=list(self._columns) if self._columns is not None else [],
            metadata=metadata,
        )
        for index in selected:
            row = rows[index]  # every selected index is yielded exactly once
            if not experiment.columns:
                experiment.columns = list(row)
            experiment.add_row(**row)
        if front is not None:
            experiment.fronts[front.key] = front
        return experiment

    def run_bundle(self, workers: int = 1) -> ResultBundle:
        """Run and wrap the result in a :class:`ResultBundle`."""
        bundle = ResultBundle()
        bundle.add(self.run(workers=workers))
        return bundle

    def search(self, strategy, workers: int = 1):
        """Explore a design space adaptively instead of sweeping it.

        ``strategy`` is a :class:`~repro.search.strategy.SearchStrategy`
        (e.g. :class:`~repro.search.halving.SuccessiveHalving` or
        :class:`~repro.search.evolutionary.EvolutionarySearch`); it owns
        the space and proposes candidates, while this study supplies the
        workload, stimulus seed, backend, store and objective axes
        (:meth:`pareto` is required).  Every candidate evaluation flows
        through the study's configured :meth:`store` by structural key, so
        a search is resumable and — given one seed — bit-deterministic.
        Returns the strategy's
        :class:`~repro.search.strategy.SearchOutcome`.

        The study is consumed as the search's evaluator: its operator list
        is rewritten per candidate batch, so do not reuse it for a sweep
        afterwards.
        """
        from ..search.evaluator import SearchEvaluator

        evaluator = SearchEvaluator(self, workers=workers)
        return strategy.search(evaluator)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _resolve_point(self, operator: OperatorLike
                       ) -> Tuple[OperatorMap, Optional[AdderOperator],
                                  Optional[MultiplierOperator],
                                  Optional[DesignPoint]]:
        """Swept operator -> (functional map, energy adder, energy multiplier,
        design point)."""
        if isinstance(operator, DesignPoint):
            return self._resolve_design_point(operator)
        swept = _resolve_operator(operator)
        pair = _resolve_operator(self._pair) if self._pair is not None else None
        axis = self._axis
        if axis == "operator" and isinstance(swept, AdderOperator):
            axis = "adder"
        elif axis == "operator" and isinstance(swept, MultiplierOperator):
            axis = "multiplier"

        if axis == "adder":
            if not isinstance(swept, AdderOperator):
                raise TypeError(f"{swept.name} is not an adder; it cannot be "
                                f"swept on the adder axis")
            multiplier = pair if pair is not None else minimal_multiplier_for(swept)
            functional = OperatorMap(
                swept=swept, adder=swept,
                multiplier=multiplier if self._pair_injected else None,
                backend=self._backend)
            return functional, swept, multiplier, None
        if axis == "multiplier":
            if not isinstance(swept, MultiplierOperator):
                raise TypeError(f"{swept.name} is not a multiplier; it cannot "
                                f"be swept on the multiplier axis")
            adder = pair if pair is not None else ExactAdder(swept.input_width)
            functional = OperatorMap(
                swept=swept, multiplier=swept,
                adder=adder if self._pair_injected else None,
                backend=self._backend)
            return functional, adder, swept, None
        return OperatorMap(swept=swept, backend=self._backend), None, None, None

    def _resolve_design_point(self, point: DesignPoint
                              ) -> Tuple[OperatorMap, Optional[AdderOperator],
                                         Optional[MultiplierOperator],
                                         DesignPoint]:
        """Design point -> functional map plus the charged operator pair.

        The paper's convention carries over from the single-axis sweeps:
        the operator under test enters the functional simulation, its
        partner enters the energy accounting only (``inject_pair=True``
        feeds the partner into the simulation too).
        """
        if point.role == "adder":
            functional = OperatorMap(
                swept=point.adder, adder=point.adder,
                multiplier=point.multiplier if point.inject_pair else None,
                backend=self._backend)
            return functional, point.adder, point.multiplier, point
        if point.role == "multiplier":
            functional = OperatorMap(
                swept=point.multiplier, multiplier=point.multiplier,
                adder=point.adder if point.inject_pair else None,
                backend=self._backend)
            return functional, point.adder, point.multiplier, point
        return (OperatorMap(swept=point.swept, backend=self._backend),
                None, None, point)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #
    def _outcomes(self, tasks: List[Tuple[int, Tuple[Workload, OperatorMap,
                                                     Dict[str, object], int]]],
                  workers: int):
        """Yield ``(index, WorkloadResult, fresh)`` in completion order.

        ``tasks`` pairs each sweep point with its global sweep index (the
        two differ in a sharded run).  Store-recorded points short-circuit
        first (``fresh=False``); the remainder runs serially or streams out
        of a process pool as each future completes.  Fresh results are
        written back to the store.
        """
        pending: List[Tuple[int, Tuple[Workload, OperatorMap,
                                       Dict[str, object], int]]] = []
        keys: Dict[int, Dict[str, object]] = {}
        for index, task in tasks:
            key = self._sweep_key(task) if self._store is not None else None
            if key is not None:
                cached = _record_to_result(self._store.load("sweep", key))
                if cached is not None:
                    yield index, cached, False
                    continue
                keys[index] = key
            pending.append((index, task))

        for index, result in self._execute_stream(pending, workers):
            if self._store is not None and index in keys:
                payload = _result_to_record(result)
                if payload is not None:
                    self._store.save("sweep", keys[index], payload)
            yield index, result, True

    def _sweep_key(self, task: Tuple[Workload, OperatorMap,
                                     Dict[str, object], int]
                   ) -> Dict[str, object]:
        """Identity of one sweep point's exact computation."""
        from .. import __version__

        workload, operator_map, config, seed = task
        return {
            "repro": __version__,
            "workload": workload.name,
            "config": config,
            "seed": seed,
            "backend": backend_spec(self._backend),
            "swept": operator_map.swept.name,
            "adder": operator_map.adder.name
            if operator_map.adder is not None else None,
            "multiplier": operator_map.multiplier.name
            if operator_map.multiplier is not None else None,
        }

    @staticmethod
    def _execute_stream(pending: List[Tuple[int, Tuple[Workload, OperatorMap,
                                                       Dict[str, object], int]]],
                        workers: int):
        """Yield ``(index, WorkloadResult)`` as sweep points complete.

        ``workers > 1`` streams completions out of a process pool (in
        completion order, which is what feeds the incremental Pareto
        front); restricted environments (no process spawning / semaphores)
        fall back to the serial path, which is result-identical.
        """
        if workers <= 1 or len(pending) <= 1:
            for index, task in pending:
                yield index, _execute_point(task)
            return
        try:
            from concurrent.futures import (
                BrokenExecutor,
                ProcessPoolExecutor,
                as_completed,
            )
        except ImportError:
            warnings.warn(
                "concurrent.futures is unavailable; running the sweep "
                "serially instead of with a process pool", RuntimeWarning)
            for index, task in pending:
                yield index, _execute_point(task)
            return
        done: set = set()
        try:
            with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending))) as pool:
                futures = {pool.submit(_execute_point, task): index
                           for index, task in pending}
                for future in as_completed(futures):
                    index = futures[future]
                    result = future.result()
                    done.add(index)
                    yield index, result
            return
        except (OSError, BrokenExecutor) as error:
            warnings.warn(
                f"process pool unavailable ({error.__class__.__name__}: "
                f"{error}); falling back to serial execution — results "
                f"are identical, only slower", RuntimeWarning)
        for index, task in pending:
            if index not in done:
                yield index, _execute_point(task)


def _default_row(outcome: SweepOutcome) -> Dict[str, object]:
    """Tidy default row: identities, metrics, counts and energy split.

    Design-space outcomes additionally carry their point's frontier
    metadata (axis label and emitted word length), so a joint
    approximate-versus-sized sweep is Pareto-ready without a custom row
    builder.
    """
    row: Dict[str, object] = {"workload": outcome.workload,
                              "operator": outcome.swept.name}
    if outcome.point is not None:
        row.update(outcome.point.describe())
    if outcome.adder is not None:
        row["adder"] = outcome.adder.name
    if outcome.multiplier is not None:
        row["multiplier"] = outcome.multiplier.name
    row.update(outcome.metrics)
    row["additions"] = outcome.counts.additions
    row["multiplications"] = outcome.counts.multiplications
    if outcome.energy is not None:
        row["adder_energy_pj"] = outcome.energy.adder_energy_pj
        row["multiplier_energy_pj"] = outcome.energy.multiplier_energy_pj
        row["total_energy_pj"] = outcome.energy.total_energy_pj
    return row


# --------------------------------------------------------------------------- #
# Sweep-record (de)serialisation for the persistent store
# --------------------------------------------------------------------------- #
def _value_preserving_json(value: object) -> bool:
    """Whether a details value survives a JSON round trip unchanged.

    Strictly plain JSON values only: live objects, NumPy arrays and
    integer scalars, and tuples would all come back as something else
    (or not at all) on a warm load.  ``np.float64`` passes because it is
    a ``float`` subclass and round-trips to an equal value.
    """
    if value is None or isinstance(value, (bool, str, int, float)):
        return True
    if isinstance(value, list):
        return all(_value_preserving_json(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(key, str) and _value_preserving_json(item)
                   for key, item in value.items())
    return False


def _result_to_record(result: WorkloadResult) -> Optional[Dict[str, object]]:
    """JSON-safe payload of a workload result, or None when not storable.

    Results whose details hold anything that would not round-trip
    verbatim (live objects, NumPy arrays, tuples) are *not* persisted —
    storing a lossy rendition would change what warm runs observe, and
    fidelity beats hit rate.  Metrics are exempt from the strictness:
    they are contractually numeric and are coerced through ``float`` on
    load anyway.
    """
    import json

    from .results import _jsonify

    details = dict(result.details)
    if not _value_preserving_json(details):
        return None
    payload = {
        "metrics": dict(result.metrics),
        "counts": {"additions": result.counts.additions,
                   "multiplications": result.counts.multiplications},
        "details": details,
    }
    try:
        return json.loads(json.dumps(payload, default=_jsonify))
    except TypeError:
        return None


def _record_to_result(payload: Optional[Dict[str, object]]
                      ) -> Optional[WorkloadResult]:
    """Rehydrate a stored sweep record; malformed payloads are misses."""
    if payload is None:
        return None
    try:
        metrics = {str(name): float(value)
                   for name, value in dict(payload["metrics"]).items()}
        counts_data = dict(payload["counts"])
        counts = OperationCounts(
            additions=int(counts_data["additions"]),
            multiplications=int(counts_data["multiplications"]))
        details = dict(payload.get("details", {}))
    except (KeyError, TypeError, ValueError):
        return None
    return WorkloadResult(metrics=metrics, counts=counts, details=details)
