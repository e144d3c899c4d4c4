"""Fluent ``Study`` pipeline: the single entry point for every experiment.

A study binds one :class:`~repro.workloads.base.Workload` to a sweep of
:class:`~repro.core.designspace.DesignPoint` s, charges every sweep point with
the datapath energy of Equation 1 through one *shared*
hardware-characterisation cache, and emits a tidy
:class:`~repro.core.results.ExperimentResult` /
:class:`~repro.core.results.ResultBundle`::

    from repro import Study
    result = (Study()
              .workload("jpeg(size=96)")
              .adders(default_adder_sweep())
              .energy(DatapathEnergyModel())
              .seed(7)
              .run(workers=4))

Every sweep is a list of design points.  :meth:`Study.design_space` takes
them as built; :meth:`Study.adders`, :meth:`Study.multipliers` and
:meth:`Study.operators` build one point per operator (or spec string) with
the paper's pairing: an adder is charged with the minimal exact multiplier
its emitted width allows, a multiplier with the exact adder of its operand
width.

Execution is deterministic: the stimulus seed fixes every workload input, the
functional simulations of the sweep points are independent (and therefore
parallelisable over a process pool), and energy accounting always happens in
the parent process against the shared cache — so ``run(workers=4)`` yields
results identical to ``run(workers=1)``.  Pending points run as one
contiguous chunk per worker, each one
:meth:`~repro.workloads.base.Workload.run_many` call: in process when
serial, else on a run-wide :func:`process_pool`; a pool that cannot start
or breaks runs its chunks in process with a ``RuntimeWarning``.  Every
sweep point evaluates its operators through their closed forms on the
``"direct"`` backend unless :meth:`Study.backend` selects a plug-in.
"""
from __future__ import annotations

import os
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..operators.base import AdderOperator, MultiplierOperator, Operator
from ..workloads.base import OperatorMap, Workload, WorkloadResult
from ..workloads.registry import parse_workload
from .backends import BackendLike, backend_spec
from .datapath import DatapathEnergyBreakdown, DatapathEnergyModel, OperationCounts
from .designspace import DesignPoint, DesignSpace, adder_point, exact_pair_point
from .registry import parse_operator
from .results import ExperimentResult, ParetoFront, ResultBundle
from .store import ResultStore, StoreKey, StoreLike, canonical_key

if TYPE_CHECKING:
    from concurrent.futures import Executor


@dataclass
class SweepOutcome:
    """Everything one sweep point produced; handed to the row builder.

    ``point`` is the design point behind the outcome and ``swept`` its
    operator under test.  ``adder`` / ``multiplier`` are the operators the
    energy model charged (for an adder point, ``multiplier`` is the
    energy-pairing partner, e.g. the minimal exact multiplier the adder's
    emitted data width allows); both are ``None`` for a bare-operator point.
    """

    index: int
    workload: str
    point: DesignPoint
    swept: Operator
    adder: Optional[AdderOperator]
    multiplier: Optional[MultiplierOperator]
    metrics: Dict[str, float]
    counts: OperationCounts
    details: Dict[str, object] = field(default_factory=dict)
    energy: Optional[DatapathEnergyBreakdown] = None
    energy_model: Optional[DatapathEnergyModel] = None


@dataclass
class SweepRun:
    """One execution of a sweep (:meth:`Study.execute`), for
    :meth:`Study.emit`: the selected points' outcomes in sweep order and
    how many of them the store served."""

    outcomes: List[SweepOutcome]
    store_hits: int = 0


RowBuilder = Callable[[SweepOutcome], Dict[str, object]]
OperatorLike = Union[Operator, str]


def _operator_point(operator: OperatorLike, role: str) -> DesignPoint:
    """One ``adders``/``multipliers``/``operators`` entry as a design point.

    ``role`` ``"operator"`` takes the role from the operator's type.  An
    adder pairs with the minimal exact multiplier its emitted width allows,
    a multiplier with the exact adder of its operand width.
    """
    swept = parse_operator(operator) if isinstance(operator, str) else operator
    if role == "operator":
        role = "adder" if isinstance(swept, AdderOperator) else "multiplier"
    if role == "adder":
        if not isinstance(swept, AdderOperator):
            raise TypeError(f"{swept.name} is not an adder; it cannot be "
                            f"swept on the adder axis")
        return adder_point(swept)
    if not isinstance(swept, MultiplierOperator):
        raise TypeError(f"{swept.name} is not a multiplier; it cannot be "
                        f"swept on the multiplier axis")
    return exact_pair_point(swept)


#: Version of the functional simulation behind a sweep record: workload
#: kernels, operator models, stimulus and metrics.  Sweep store keys carry
#: it instead of the package version, so a release keeps filled stores
#: warm; bump it whenever a change alters any point's metrics, counts or
#: details.
MODEL_VERSION = 1

#: One sweep point's executable task: workload, operators, merged
#: configuration and stimulus seed.
SweepTask = Tuple[Workload, OperatorMap, Dict[str, object], int]

#: One point's :meth:`Study.probe` result: its store key and the recorded
#: payload, or ``None`` when the point is not recorded.
Probe = Tuple[StoreKey, Optional[Dict[str, object]]]


def _execute_points(tasks: Sequence[SweepTask]) -> List[WorkloadResult]:
    """Run sweep points' functional simulations in one ``run_many`` call.

    Every task of a study shares its workload.  Process-pool safe: each
    pool worker runs one chunk of a sweep through here.
    """
    workload = tasks[0][0]
    return workload.run_many([
        (operators, config, np.random.default_rng(seed))
        for _, operators, config, seed in tasks])


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: the request clamped to ``[1, os.cpu_count()]``.

    Oversubscribing a sweep of CPU-bound functional simulations only adds
    scheduling churn.
    """
    if workers is None:
        return 1
    return max(1, min(int(workers), os.cpu_count() or 1))


@contextmanager
def process_pool(workers: int, pool: Optional[Executor] = None):
    """Yield ``pool`` or a pool of ``workers`` processes, shut at the end.

    A run opens one and hands it to every sweep (``Study.run(pool=...)``).
    It yields ``None`` for one worker, or with a warning where no pool can
    start (no process spawning or semaphores): sweeps then run in process.
    """
    if pool is not None or workers <= 1:
        yield pool
        return
    from concurrent.futures import ProcessPoolExecutor

    try:
        owned = ProcessPoolExecutor(max_workers=workers)
    except OSError as error:
        _warn_serial(error)
        owned = None
    with owned or nullcontext():
        yield owned


def _warn_serial(error: BaseException) -> None:
    warnings.warn(
        f"process pool unavailable ({error.__class__.__name__}: {error}); "
        f"falling back to serial execution — results are identical, only "
        f"slower", RuntimeWarning)


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
    """Chainable builder for one workload-versus-design-point-sweep experiment.

    The builder methods each return ``self``; :meth:`run` executes the sweep
    and returns an :class:`ExperimentResult` (:meth:`run_bundle` wraps it in
    a :class:`ResultBundle`).  See the module docstring for the canonical
    usage, and :mod:`repro.experiments` for the paper's studies expressed as
    thin declarative wrappers over this API.
    """

    def __init__(self) -> None:
        self._workload: Optional[Workload] = None
        self._config: Dict[str, object] = {}
        self._points: List[DesignPoint] = []
        self._axis: str = "operator"
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
        """Sweep the adder slot; multiplications are charged to the pair.

        One design point per entry, duplicates kept; each adder is charged
        with the minimal exact multiplier its emitted width allows.
        """
        return self._sweep("adder", operators)

    def multipliers(self, operators: Iterable[OperatorLike]) -> "Study":
        """Sweep the multiplier slot; additions are charged to the pair.

        One design point per entry, duplicates kept; each multiplier is
        charged with the exact adder of its operand width.
        """
        return self._sweep("multiplier", operators)

    def operators(self, operators: Iterable[OperatorLike]) -> "Study":
        """Sweep adders and multipliers mixed, each on its own type's slot."""
        return self._sweep("operator", operators)

    def _sweep(self, axis: str, operators: Iterable[OperatorLike]) -> "Study":
        self._points = [_operator_point(operator, axis)
                        for operator in operators]
        self._axis = axis
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
        self._points = list(DesignSpace.of(space))
        self._axis = "design"
        return self

    def pareto(self, quality: str, cost: str, maximize_quality: bool = True,
               minimize_cost: bool = True) -> "Study":
        """Extract the quality-versus-cost Pareto front of the rows.

        The front is attached to the emitted result under
        ``result.fronts[f"{quality}_vs_{cost}"]``.
        """
        self._pareto_axes = (str(quality), str(cost), bool(maximize_quality),
                             bool(minimize_cost))
        return self

    def store(self, store: StoreLike) -> "Study":
        """Persist and reuse sweep records through a disk-backed store.

        Accepts a :class:`~repro.core.store.ResultStore` or a directory
        path.  Sweep points whose exact computation (workload, configuration
        merged with the point's own overrides, the operators the simulation
        runs with, seed, :data:`MODEL_VERSION`) was recorded in an earlier
        session are served from disk and skip their functional simulation;
        fresh points are written back.  Neither the backend nor a charged-only
        partner is part of the key: backends must be bit-identical, and the
        energy is charged after the simulation, so points differing only in
        either share a record.  The store is also offered to the energy
        model (if it has none yet), so hardware characterisations persist
        alongside.
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
    def run(self, workers: int = 1,
            probed: Optional[Sequence[Probe]] = None,
            pool: Optional[Executor] = None) -> ExperimentResult:
        """Execute the sweep and emit the experiment result.

        ``workers > 1`` runs the pending points as that many contiguous
        chunks, one ``run_many`` call each, on ``pool`` (a run's shared
        :func:`process_pool`) or on a pool opened for this call only.
        Energy charging and row emission stay in the parent, in sweep
        order, so the result is bit-identical to a serial run.  With a
        configured :meth:`store`, recorded sweep points skip their
        simulation entirely and fresh ones are persisted.

        ``probed`` is this study's :meth:`probe`, taken against the
        configured store: the run uses its keys and payloads instead of
        canonicalising and reading each record again.

        The requested ``workers`` is clamped to ``[1, os.cpu_count()]``
        (:func:`resolve_workers`).  A run emits its :meth:`execute`.
        """
        return self.emit(self.execute(workers, probed, pool))

    def execute(self, workers: int = 1,
                probed: Optional[Sequence[Probe]] = None,
                pool: Optional[Executor] = None) -> SweepRun:
        """Execute the sweep (arguments of :meth:`run`) for :meth:`emit`.

        Every study describing the same sweep — workload, configuration,
        points, energy model, store and shard — can emit one execution
        with its own rows, front and metadata; ``run_all`` emits the
        experiments that view one sweep that way.
        """
        workers = resolve_workers(workers)
        if self._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        workload, points = self._workload, self._points
        config, seed = self._merged_config(workload)
        selected, tasks = self._resolved_tasks(workload, config, seed)
        if probed is not None and (self._store is None
                                   or len(probed) != len(tasks)):
            raise ValueError("'probed' must be this study's probe() against "
                             "its configured store")
        if self._store is not None and probed is None:
            probed = self._probe(tasks, config)
        outcomes: Dict[int, SweepOutcome] = {}
        store_hits = 0
        with self._store_offered():
            for index, outcome, fresh in self._outcomes(tasks, workers,
                                                        probed, pool):
                point = points[index]
                store_hits += not fresh
                # A bare-operator point has no datapath pairing to charge.
                charged = point.role != "operator"
                adder = point.adder if charged else None
                multiplier = point.multiplier if charged else None
                energy = None
                if self._energy_model is not None and adder is not None:
                    energy = self._energy_model.application_energy_pj(
                        outcome.counts, adder, multiplier,
                        constant_coefficient_multiplications=self._constant_coefficient)
                outcomes[index] = SweepOutcome(
                    index=index, workload=workload.name, point=point,
                    swept=point.swept, adder=adder, multiplier=multiplier,
                    metrics=dict(outcome.metrics), counts=outcome.counts,
                    details=dict(outcome.details), energy=energy,
                    energy_model=self._energy_model)
        # Every selected index is yielded exactly once.
        return SweepRun([outcomes[index] for index in selected], store_hits)

    @contextmanager
    def _store_offered(self):
        """Lend this study's store to a store-less energy model for the
        block only: a model shared across studies must not keep it."""
        model = self._energy_model
        lend = self._store is not None and model is not None \
            and model.store is None
        if lend:
            model.store = self._store
        try:
            yield
        finally:
            if lend:
                model.store = None

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
        """Resolve the sweep into ``(selected, tasks)``.

        ``selected`` lists the shard-filtered global indices into the sweep's
        points; ``tasks`` pairs each with its executable task tuple.
        """
        points = self._points
        if self._shard is not None:
            shard_index, shard_count = self._shard
            selected = [index for index in range(len(points))
                        if index % shard_count == shard_index]
        else:
            selected = list(range(len(points)))
        tasks: List[Tuple[int, SweepTask]] = []
        for index in selected:
            point = points[index]
            point_config = config
            if point.config:
                point_config = workload.merged_config(
                    {**self._config, **dict(point.config)})
                point_config["seed"] = seed
            tasks.append((index, (workload, self._operator_map(point),
                                  point_config, seed)))
        return selected, tasks

    def point_keys(self) -> List[Dict[str, object]]:
        """Structural store keys of the resolved sweep points, in sweep order.

        The keys are exactly what :meth:`run` would probe a configured
        :meth:`store` with, so a caller (a scheduler) can test
        ``store.contains("sweep", key)`` to predict which points an
        upcoming run will serve warm — without executing anything.  A
        sharded study returns only its shard's keys.  :meth:`probe` also
        reads the records, for a run to reuse.
        """
        if self._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        workload = self._workload
        config, seed = self._merged_config(workload)
        _, tasks = self._resolved_tasks(workload, config, seed)
        return [self._sweep_key(task) for _, task in tasks]

    def probe(self) -> List[Probe]:
        """Read every resolved point's record from the configured store.

        Returns ``(key, payload)`` per point in sweep order (a sharded
        study: its shard's points), ``payload`` being ``None`` for a point
        not recorded.  Each key is canonicalised and each record read
        once; hand the list to :meth:`run` (``probed=``) and the run
        serves the recorded points from it, saving fresh ones under the
        same keys.  The evaluation server probes a point to choose
        between the warm path and its batching queue.
        """
        if self._store is None:
            raise ValueError("no store configured; call .store(...) first")
        if self._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        config, seed = self._merged_config(self._workload)
        _, tasks = self._resolved_tasks(self._workload, config, seed)
        return self._probe(tasks, config)

    def _probe(self, tasks: List[Tuple[int, SweepTask]],
               config: Dict[str, object]) -> List[Probe]:
        """:meth:`probe` of resolved ``tasks``: ``config`` is the run's
        shared merged configuration, canonicalised once for every point
        that does not override it."""
        shared = canonical_key(config)
        keys = [self._store_key(task, config, shared) for _, task in tasks]
        return [(key, self._store.load_key(key)) for key in keys]

    def emit(self, sweep: SweepRun) -> ExperimentResult:
        """This study's rows, :meth:`pareto` front and metadata from one
        :meth:`execute` of its sweep."""
        if self._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        workload, points = self._workload, self._points
        metadata = dict(self._metadata) if self._metadata is not None else {
            "workload": workload.name,
            "seed": self._merged_config(workload)[1],
            "sweep_points": len(points),
            "backend": backend_spec(self._backend)}
        if self._store is not None:
            metadata["store_hits"] = sweep.store_hits
        if self._shard is not None:
            # One key, stripped wholesale by ExperimentResult.merge_shards so
            # merged metadata matches an unsharded run's exactly.
            metadata["shard"] = {"index": self._shard[0],
                                 "count": self._shard[1],
                                 "sweep_points": len(points),
                                 "sweep_indices": [outcome.index for outcome
                                                   in sweep.outcomes]}
        experiment = ExperimentResult(
            experiment=self._experiment or f"{workload.name}_{self._axis}_sweep",
            description=self._description or (
                f"Study sweep of {len(points)} {self._axis} configurations "
                f"over the {workload.name!r} workload"),
            columns=list(self._columns) if self._columns is not None else [],
            metadata=metadata,
        )
        build_row = self._row_builder or _default_row
        with self._store_offered():
            for outcome in sweep.outcomes:
                row = build_row(outcome)
                if not experiment.columns:
                    experiment.columns = list(row)
                experiment.add_row(**row)
        if self._pareto_axes is not None:
            front = ParetoFront(*self._pareto_axes)
            for outcome, row in zip(sweep.outcomes, experiment.rows):
                front.update(row, outcome.index)
            experiment.fronts[front.key] = front
        return experiment

    def run_bundle(self, workers: int = 1) -> ResultBundle:
        """Run and wrap the result in a :class:`ResultBundle`."""
        bundle = ResultBundle()
        bundle.add(self.run(workers=workers))
        return bundle

    def search(self, strategy, workers: int = 1,
               pool: Optional[Executor] = None):
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

        ``workers > 1`` runs every candidate batch in chunks on ``pool``
        or, without one, on one process pool opened for the whole search.

        The study is consumed as the search's evaluator: its operator list
        is rewritten per candidate batch and its Pareto axes move to the
        evaluator, so do not reuse it afterwards.
        """
        from ..search.evaluator import SearchEvaluator

        with process_pool(resolve_workers(workers), pool) as pool:
            return strategy.search(SearchEvaluator(self, workers, pool))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _operator_map(self, point: DesignPoint) -> OperatorMap:
        """The operators a design point's functional simulation runs with.

        The paper's convention: the operator under test enters the
        functional simulation, its partner enters the energy accounting
        only (``inject_pair=True`` feeds the partner into the simulation
        too).  A bare-operator point simulates the operator alone.
        """
        if point.role == "operator":
            return OperatorMap(swept=point.swept, backend=self._backend)
        inject = point.inject_pair
        return OperatorMap(
            swept=point.swept,
            adder=point.adder if inject or point.role == "adder" else None,
            multiplier=point.multiplier
            if inject or point.role == "multiplier" else None,
            backend=self._backend)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #
    def _outcomes(self, tasks: List[Tuple[int, SweepTask]], workers: int,
                  probed: Optional[Sequence[Probe]],
                  pool: Optional[Executor]):
        """Yield ``(index, WorkloadResult, fresh)`` in completion order.

        ``tasks`` pairs each sweep point with its global sweep index (the
        two differ in a sharded run).  ``probed`` — ``None`` without a
        store — holds each task's store key and recorded payload (see
        :meth:`probe`).  Store-recorded points short-circuit first
        (``fresh=False``); the remainder runs in chunks
        (:meth:`_execute_stream`).  Fresh results are written back to the
        store under their probed key.
        """
        pending: List[Tuple[int, SweepTask]] = []
        keys: Dict[int, StoreKey] = {}
        for position, (index, task) in enumerate(tasks):
            if probed is not None:
                key, payload = probed[position]
                cached = _record_to_result(payload)
                if cached is not None:
                    yield index, cached, False
                    continue
                keys[index] = key
            pending.append((index, task))

        for index, result in self._execute_stream(pending, workers, pool):
            if index in keys:
                payload = _result_to_record(result)
                if payload is not None:
                    self._store.save_key(keys[index], payload)
            yield index, result, True

    def _store_key(self, task: SweepTask, shared_config: Dict[str, object],
                   shared_canonical: object) -> StoreKey:
        """:meth:`_sweep_key` of ``task``, canonicalised once.

        Only the config needs canonicalising — every other field is a
        string, an int or ``None``.  A point's config reuses the shared
        config's canonical form for every value it shares by identity and
        canonicalises only the values it overrides.  The result equals
        ``StoreKey.of("sweep", self._sweep_key(task))``.
        """
        key = self._sweep_key(task)
        config = key["config"]
        key["config"] = shared_canonical if config is shared_config else {
            str(name): shared_canonical[str(name)]
            if name in shared_config and config[name] is shared_config[name]
            else canonical_key(config[name])
            for name in sorted(config, key=str)}
        return StoreKey.from_canonical("sweep", dict(sorted(key.items())))

    def _sweep_key(self, task: SweepTask) -> Dict[str, object]:
        """Identity of one sweep point's exact computation."""
        workload, operator_map, config, seed = task
        return {
            "model": MODEL_VERSION,
            "workload": workload.name,
            "config": config,
            "seed": seed,
            "swept": operator_map.swept.name,
            "adder": operator_map.adder.name
            if operator_map.adder is not None else None,
            "multiplier": operator_map.multiplier.name
            if operator_map.multiplier is not None else None,
        }

    @staticmethod
    def _execute_stream(pending: List[Tuple[int, SweepTask]], workers: int,
                        pool: Optional[Executor] = None):
        """Yield ``(index, WorkloadResult)`` as chunks of sweep points complete.

        ``pending`` is cut into ``min(workers, len(pending))`` contiguous,
        near-equal chunks, each one :func:`_execute_points` call.  One
        chunk runs in process; several run on ``pool`` (or a pool opened
        for this call) and stream out in completion order, so a chunk's
        fresh records are saved as it finishes.  A pool that cannot start
        or breaks runs its unfinished chunks in process.
        """
        count, size = min(workers, len(pending)), len(pending)
        unfinished = {part: pending[part * size // count:(part + 1) * size // count]
                      for part in range(count)}
        with process_pool(count, pool) as pool:
            if pool is not None and count > 1:
                from concurrent.futures import BrokenExecutor, as_completed

                try:
                    futures = {pool.submit(_execute_points,
                                           [task for _, task in chunk]): part
                               for part, chunk in unfinished.items()}
                    for future in as_completed(futures):
                        results = future.result()
                        chunk = unfinished.pop(futures[future])
                        yield from zip([index for index, _ in chunk], results)
                except (OSError, BrokenExecutor) as error:
                    _warn_serial(error)
        for chunk in unfinished.values():
            yield from zip([index for index, _ in chunk],
                           _execute_points([task for _, task in chunk]))


def _default_row(outcome: SweepOutcome) -> Dict[str, object]:
    """Tidy default row: identities, metrics, counts and energy split.

    Every row carries its point's frontier metadata (design label, axis
    label and emitted word length), so a joint approximate-versus-sized
    sweep is Pareto-ready without a custom row builder.
    """
    row: Dict[str, object] = {"workload": outcome.workload,
                              "operator": outcome.swept.name}
    row.update(outcome.point.describe())
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
