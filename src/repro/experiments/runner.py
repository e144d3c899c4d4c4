"""Run every reproduced experiment — whole, sharded, or selected.

``run_all`` regenerates each table and figure of the paper's evaluation
section (plus the extension ablations and the joint design-space frontiers)
and returns a :class:`RunAllResult`; with an output directory it also writes
one JSON file per experiment plus a machine-readable ``manifest.json``.

The suite is organised as a *registry* (:data:`EXPERIMENTS`): one
:class:`ExperimentSpec` per reproduced table/figure, built from a shared
:class:`RunConfig` (sweep density, workers, backend, energy model, store,
shard).  A sweep experiment function returns its configured but unrun
:class:`~repro.core.study.Study`; the registry entry only maps the run's
densities to that function's arguments, and one helper applies the rest of
the run configuration to every study before running it.  An entry names the
sweep it views: the joint frontiers view the Figure 5 and Figure 6 sweeps,
so a run executes each distinct sweep once and emits every selected view of
it from that one execution.  That registry is what the ``python -m repro``
CLI lists, selects from and shards over:

* ``experiments=`` selects a subset by name (``run_all`` order preserved);
* ``shard=(i, n)`` (or ``"i/n"``) partitions every experiment's design
  points deterministically across ``n`` machines — shard ``i`` runs the
  points whose global sweep index is ``i (mod n)`` — and the emitted
  partial results carry the indices needed to fold them back together;
* :func:`merge_run` is that fold: it reassembles shard outputs into one
  bundle with recomputed Pareto fronts, bit-identical to an unsharded run.

Per-point checkpointing comes from ``store=``: every completed sweep point
is persisted as it finishes, so a killed run — sharded or not — resumes by
skipping the structural keys already on disk, and the resumed rows are
bit-identical to an uninterrupted run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.backends import BackendLike, backend_spec
from ..core.datapath import DatapathEnergyModel
from ..core.results import ExperimentResult, ResultBundle
from ..core.store import ResultStore, StoreLike
from ..core.study import ShardLike, Study, SweepRun, parse_shard, process_pool, resolve_workers
from .ablations import multiplier_compensation_ablation, rounding_mode_ablation
from .adders_study import adder_error_cost_study
from .fft_study import fft_adder_sweep, fft_joint_frontier, fft_multiplier_comparison
from .hevc_study import hevc_adder_table, hevc_multiplier_table
from .jpeg_study import jpeg_adder_sweep, jpeg_joint_frontier
from .kmeans_study import kmeans_adder_table, kmeans_multiplier_table
from .multipliers_study import multiplier_comparison
from .search_study import fft_heterogeneous_search

if TYPE_CHECKING:
    from concurrent.futures import Executor


@dataclass
class RunConfig:
    """Shared knobs of one ``run_all`` invocation, handed to every builder.

    The derived properties encode the reduced-versus-full sweep densities
    that used to live inline in ``run_all`` — one place, used by every
    experiment builder.
    """

    reduced: bool = True
    workers: int = 1
    backend: BackendLike = "direct"
    store: Optional[ResultStore] = None
    shard: Optional[Tuple[int, int]] = None
    energy_model: DatapathEnergyModel = field(default_factory=DatapathEnergyModel)
    #: The run's one process pool, shared by every sweep (``None``: serial).
    pool: Optional[Executor] = None

    @property
    def error_samples(self) -> int:
        return 30_000 if self.reduced else 200_000

    @property
    def image_size(self) -> int:
        return 96 if self.reduced else 256

    @property
    def frames(self) -> int:
        return 4 if self.reduced else 16

    @property
    def kmeans_runs(self) -> int:
        return 2 if self.reduced else 5

    @property
    def kmeans_points(self) -> int:
        return 1500 if self.reduced else 5000


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: how to build one reproduced table or figure."""

    #: Registry/selection name — equals the emitted ``result.experiment``.
    name: str
    #: One-line summary shown by ``python -m repro list``.
    title: str
    #: Builds the result from the shared run configuration and the run's
    #: executed sweeps by name.
    build: Callable[[RunConfig, Dict[str, SweepRun]], ExperimentResult]
    #: The sweep this experiment views (``None``: not a sweep).  A run
    #: executes each sweep once and emits every view of it from there, so
    #: a shard partitions the views of one sweep alike.
    sweep: Optional[str] = None
    #: Extension ablations are skipped by ``include_ablations=False``.
    ablation: bool = False
    #: Adaptive experiments cannot be partitioned by sweep index — their
    #: candidate schedule depends on earlier results.  Sharded runs execute
    #: them whole on shard 0 only; the merge passes the single result
    #: through, so the folded bundle still matches an unsharded run.
    shardable: bool = True


def _sweep(name: str, title: str, study: Callable[[RunConfig], Study],
           sweep: Optional[str] = None, ablation: bool = False
           ) -> ExperimentSpec:
    """A sweep experiment viewing ``sweep`` (by default its own).

    ``study`` maps the run's sweep densities to the experiment function's
    domain arguments; the backend, energy model, store, shard, workers and
    pool are applied here, once, for every sweep in the registry.  The
    first view of a sweep executes it into ``swept``.
    """
    sweep = sweep or name

    def build(cfg: RunConfig, swept: Dict[str, SweepRun]) -> ExperimentResult:
        view = (study(cfg)
                .backend(cfg.backend)
                .energy(cfg.energy_model)
                .store(cfg.store)
                .shard(cfg.shard))
        if sweep not in swept:
            swept[sweep] = view.execute(workers=cfg.workers, pool=cfg.pool)
        return view.emit(swept[sweep])
    return ExperimentSpec(name, title, build, sweep=sweep, ablation=ablation)


def _search(cfg: RunConfig, swept: Dict[str, SweepRun]) -> ExperimentResult:
    # The search drives Study.search, not Study.run, so it takes the run
    # configuration as arguments of its own.
    return fft_heterogeneous_search(reduced=cfg.reduced, workers=cfg.workers,
                                    backend=cfg.backend, store=cfg.store,
                                    pool=cfg.pool)


EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.name: spec for spec in (
    _sweep("fig3_fig4_adders",
           "16-bit adders: error metrics versus hardware cost (Figures 3-4)",
           lambda cfg: adder_error_cost_study(
               error_samples=cfg.error_samples, reduced=cfg.reduced)),
    _sweep("table1_multipliers",
           "16-bit fixed-width multipliers characterised (Table I)",
           lambda cfg: multiplier_comparison(error_samples=cfg.error_samples)),
    _sweep("fig5_fft_adders",
           "FFT-32 energy versus PSNR with the adders swept (Figure 5)",
           lambda cfg: fft_adder_sweep(reduced=cfg.reduced, frames=cfg.frames)),
    _sweep("table2_fft_multipliers",
           "FFT-32 with fixed-width multipliers swapped (Table II)",
           lambda cfg: fft_multiplier_comparison(frames=cfg.frames)),
    _sweep("fft_joint_frontier",
           "FFT joint approximate-versus-sized Pareto frontier (headline)",
           lambda cfg: fft_joint_frontier(reduced=cfg.reduced,
                                          frames=cfg.frames),
           sweep="fig5_fft_adders"),
    _sweep("fig6_jpeg",
           "JPEG DCT energy versus MSSIM with the adders swept (Figure 6)",
           lambda cfg: jpeg_adder_sweep(image_size=cfg.image_size,
                                        reduced=cfg.reduced)),
    _sweep("jpeg_joint_frontier",
           "JPEG joint approximate-versus-sized Pareto frontier (headline)",
           lambda cfg: jpeg_joint_frontier(image_size=cfg.image_size,
                                           reduced=cfg.reduced),
           sweep="fig6_jpeg"),
    _sweep("table3_hevc_adders",
           "HEVC motion compensation with the adders swapped (Table III)",
           lambda cfg: hevc_adder_table(image_size=cfg.image_size)),
    _sweep("table4_hevc_multipliers",
           "HEVC motion compensation with the multipliers swapped (Table IV)",
           lambda cfg: hevc_multiplier_table(image_size=cfg.image_size)),
    _sweep("table5_kmeans_adders",
           "K-means distance datapath with the adders swapped (Table V)",
           lambda cfg: kmeans_adder_table(
               runs=cfg.kmeans_runs, points_per_run=cfg.kmeans_points)),
    _sweep("table6_kmeans_multipliers",
           "K-means distance datapath with the multipliers swapped (Table VI)",
           lambda cfg: kmeans_multiplier_table(
               runs=cfg.kmeans_runs, points_per_run=cfg.kmeans_points)),
    ExperimentSpec(
        "fft_heterogeneous_search",
        "Per-stage heterogeneous FFT datapaths found adaptively (search)",
        _search, shardable=False),
    _sweep("ablation_compensation",
           "AAM/ABM compensation-circuit contribution (extension ablation)",
           lambda cfg: multiplier_compensation_ablation(
               error_samples=cfg.error_samples),
           ablation=True),
    _sweep("ablation_rounding_mode",
           "LSB-elimination rounding-mode comparison (extension ablation)",
           lambda cfg: rounding_mode_ablation(error_samples=cfg.error_samples),
           ablation=True),
)}


def experiment_names(include_ablations: bool = True) -> List[str]:
    """Registry names in ``run_all`` order."""
    return [name for name, spec in EXPERIMENTS.items()
            if include_ablations or not spec.ablation]


def describe_experiments(include_ablations: bool = True
                         ) -> List[Dict[str, object]]:
    """``name``, ``title`` and ``ablation`` of each entry, in ``run_all``
    order: the listing of ``repro list`` and the server's ``experiments``."""
    return [{"name": name, "title": EXPERIMENTS[name].title,
             "ablation": EXPERIMENTS[name].ablation}
            for name in experiment_names(include_ablations)]


def select_experiments(experiments: Optional[Sequence[str]] = None,
                       include_ablations: bool = True) -> List[ExperimentSpec]:
    """Resolve a selection (``None`` = the whole suite) against the registry.

    Unknown names raise a ``ValueError`` listing the registry, so a typo in
    a CI matrix fails before any sweep runs.  Explicit selections may name
    ablations regardless of ``include_ablations``.
    """
    if experiments is None:
        return [EXPERIMENTS[name]
                for name in experiment_names(include_ablations)]
    unknown = [name for name in experiments if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; "
                         f"available: {sorted(EXPERIMENTS)}")
    # Preserve suite order regardless of the selection's order so a merged
    # sharded run lists experiments exactly as an unsharded one does.
    chosen = set(experiments)
    return [spec for name, spec in EXPERIMENTS.items() if name in chosen]


@dataclass
class RunAllResult(ResultBundle):
    """A ``run_all`` outcome: the result bundle plus its run identity.

    ``shard`` is ``None`` for a whole run or the ``(index, count)`` this
    run computed; :meth:`manifest` summarises the run machine-readably and
    :meth:`save_all` (inherited) plus :meth:`save_manifest` lay a run
    directory out as ``<experiment>.json`` files next to a
    ``manifest.json`` — the artifact layout :func:`merge_run` and the CI
    fan-in job consume.
    """

    shard: Optional[Tuple[int, int]] = None
    backend: str = "direct"
    reduced: bool = True

    def manifest(self) -> Dict[str, object]:
        from .. import __version__

        return {
            "repro": __version__,
            "reduced": self.reduced,
            "backend": self.backend,
            "shard": list(self.shard) if self.shard is not None else None,
            "experiments": {
                name: {
                    "rows": len(result.rows),
                    "fronts": sorted(result.fronts),
                    "sharded": result.shard is not None,
                }
                for name, result in sorted(self.results.items())
            },
        }

    def save_manifest(self, directory: Union[str, Path]) -> Path:
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        path = base / "manifest.json"
        path.write_text(json.dumps(self.manifest(), indent=2) + "\n")
        return path


def run_all(output_dir: Optional[Union[str, Path]] = None, reduced: bool = True,
            include_ablations: bool = True, workers: int = 1,
            backend: BackendLike = "direct",
            store: StoreLike = None,
            shard: ShardLike = None,
            experiments: Optional[Sequence[str]] = None) -> RunAllResult:
    """Regenerate the paper's tables and figures (whole suite or one shard).

    ``reduced=True`` (default) runs the laptop-scale configuration: thinner
    operator sweeps, smaller images and point clouds.  ``reduced=False`` runs
    the full sweeps, which takes substantially longer but follows the paper's
    configuration as closely as the substituted substrate allows.

    ``workers`` (capped at the CPU count) sizes one process pool that every
    sweep of the run shares, each sending it one contiguous chunk of points
    per worker; results are identical to the serial run.  ``backend``
    selects the execution backend of every application-level sweep
    (``"direct"`` by default, or a registered plug-in); records are
    bit-identical across backends.  ``store`` (a
    :class:`~repro.core.store.ResultStore` or directory path) checkpoints
    every completed sweep point, so a killed run resumes where it stopped.

    ``shard`` (``"i/n"`` or ``(i, n)``) runs only the ``i``-th deterministic
    slice of every experiment's design points; :func:`merge_run` folds the
    ``n`` partial outputs back into a whole that is bit-identical to an
    unsharded run.  Experiments whose candidate schedule is adaptive
    (``shardable`` false in the registry, e.g. the heterogeneous search)
    have no index partition: shard 0 runs them whole and the other shards
    skip them, which the merge folds back losslessly.  ``experiments``
    selects a subset of the suite by registry name (see
    :func:`experiment_names`).
    """
    shard_pair = parse_shard(shard)
    store = ResultStore.of(store)
    workers = resolve_workers(workers)
    bundle = RunAllResult(shard=shard_pair, backend=backend_spec(backend),
                          reduced=reduced)
    specs = select_experiments(experiments, include_ablations)
    # A sweep's outcomes are dropped after its last selected view.
    last_view = {spec.sweep: spec.name for spec in specs}
    swept: Dict[str, SweepRun] = {}
    with process_pool(workers) as pool:
        config = RunConfig(reduced=reduced, workers=workers, backend=backend,
                           store=store, shard=shard_pair,
                           energy_model=DatapathEnergyModel(store=store),
                           pool=pool)
        for spec in specs:
            if shard_pair is not None and not spec.shardable:
                # Adaptive experiments have no index partition; shard 0
                # runs them whole (unsharded config), the others skip them.
                if shard_pair[0] == 0:
                    bundle.add(spec.build(replace(config, shard=None), swept))
                continue
            bundle.add(spec.build(config, swept))
            if last_view[spec.sweep] == spec.name:
                swept.pop(spec.sweep, None)
    if output_dir is not None:
        bundle.save_all(output_dir)
        bundle.save_manifest(output_dir)
    return bundle


def compare_to_golden(merged: ResultBundle, golden_dir: Union[str, Path]
                      ) -> List[Dict[str, object]]:
    """Row/front divergences of a merged bundle against a golden run.

    The bit-identity gate shared by ``repro merge --golden`` and
    ``repro fleet harvest --golden``: every experiment present on either
    side is compared row by row and front by front; an empty list means
    the merged result is bit-identical to the golden (unsharded) run
    directory.
    """
    golden = ResultBundle.load_dir(golden_dir)
    mismatches: List[Dict[str, object]] = []
    for name in sorted(set(golden.results) | set(merged.results)):
        if name not in golden.results or name not in merged.results:
            mismatches.append({"experiment": name,
                               "kind": "missing",
                               "present_in": "merged" if name in merged.results
                               else "golden"})
            continue
        golden_result = golden.get(name)
        merged_result = merged.get(name)
        if merged_result.rows != golden_result.rows:
            differing = [index for index, (a, b)
                         in enumerate(zip(merged_result.rows,
                                          golden_result.rows)) if a != b]
            mismatches.append({
                "experiment": name, "kind": "rows",
                "merged_rows": len(merged_result.rows),
                "golden_rows": len(golden_result.rows),
                "first_differing_indices": differing[:8],
            })
        merged_fronts = {key: front.to_dict()
                         for key, front in merged_result.fronts.items()}
        golden_fronts = {key: front.to_dict()
                         for key, front in golden_result.fronts.items()}
        if merged_fronts != golden_fronts:
            mismatches.append({"experiment": name, "kind": "fronts",
                               "merged": sorted(merged_fronts),
                               "golden": sorted(golden_fronts)})
    return mismatches


def merge_run(inputs: Sequence[Union[str, Path, ResultBundle]],
              output_dir: Optional[Union[str, Path]] = None,
              store: StoreLike = None) -> RunAllResult:
    """Fold shard run outputs back into one whole-suite result.

    ``inputs`` are shard output directories (as written by
    ``run_all(output_dir=...)`` / ``python -m repro run --out``) or
    already-loaded bundles.  Every experiment's shard rows are reassembled
    at their global sweep indices and its Pareto fronts are recomputed over
    the merged rows — the result is bit-identical to an unsharded run, and
    the disjoint-cover property is validated (a missing or duplicated shard
    fails loudly).  Inputs from different runs fail too: shard manifests
    that disagree on ``reduced`` or ``backend``, or experiment results whose
    metadata differ (see :meth:`ExperimentResult.merge_shards`).

    ``store`` additionally folds any ``.repro_store`` directories found
    inside the input directories into one persistent store, so a later
    resumed run sees the union of every shard's checkpoints.
    """
    bundles: List[ResultBundle] = []
    directories: List[Path] = []
    for item in inputs:
        if isinstance(item, ResultBundle):
            bundles.append(item)
            continue
        path = Path(item)
        directories.append(path)
        bundles.append(ResultBundle.load_dir(path))
    if not any(bundle.results for bundle in bundles):
        raise ValueError("nothing to merge: no experiment results found in "
                         f"{[str(d) for d in directories] or 'the inputs'}")
    # The run identity every shard manifest must agree on.
    identities = set()
    for directory in directories:
        try:
            manifest = json.loads((directory / "manifest.json").read_text())
        except (OSError, ValueError):
            continue
        if isinstance(manifest, dict):
            identities.add((bool(manifest.get("reduced", True)),
                            str(manifest.get("backend", "direct"))))
    if len(identities) > 1:
        raise ValueError(
            "cannot merge runs of different configurations: the manifests "
            f"disagree on (reduced, backend): {sorted(identities)}")
    merged_store = ResultStore.of(store)
    if merged_store is not None:
        for directory in directories:
            for candidate in sorted(directory.glob("**/.repro_store")):
                merged_store.absorb(ResultStore(candidate))
    merged = ResultBundle.merge(bundles)
    result = RunAllResult(results=merged.results, shard=None)
    if identities:
        result.reduced, result.backend = identities.pop()
    if output_dir is not None:
        result.save_all(output_dir)
        result.save_manifest(output_dir)
    return result
