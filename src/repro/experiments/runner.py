"""Run every reproduced experiment — whole, sharded, or selected.

``run_all`` regenerates each table and figure of the paper's evaluation
section (plus the extension ablations and the joint design-space frontiers)
and returns a :class:`RunAllResult`; with an output directory it also writes
one JSON file per experiment plus a machine-readable ``manifest.json``.

The suite is organised as a *registry* (:data:`EXPERIMENTS`): one
:class:`ExperimentSpec` per reproduced table/figure, each a closure over a
shared :class:`RunConfig` (sweep density, workers, backend, store, shard).
That registry is what the ``python -m repro`` CLI lists, selects from and
shards over:

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.backends import BackendLike, backend_spec
from ..core.datapath import DatapathEnergyModel
from ..core.results import ExperimentResult, ResultBundle
from ..core.store import ResultStore, StoreLike
from ..core.study import ShardLike, parse_shard, resolve_workers
from .ablations import multiplier_compensation_ablation, rounding_mode_ablation
from .adders_study import adder_error_cost_study
from .fft_study import fft_adder_sweep, fft_joint_frontier, fft_multiplier_comparison
from .hevc_study import hevc_adder_table, hevc_multiplier_table
from .jpeg_study import jpeg_adder_sweep, jpeg_joint_frontier
from .kmeans_study import kmeans_adder_table, kmeans_multiplier_table
from .multipliers_study import multiplier_comparison
from .search_study import fft_heterogeneous_search


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
    #: Builds the result from the shared run configuration.
    build: Callable[[RunConfig], ExperimentResult]
    #: Extension ablations are skipped by ``include_ablations=False``.
    ablation: bool = False
    #: Adaptive experiments cannot be partitioned by sweep index — their
    #: candidate schedule depends on earlier results.  Sharded runs execute
    #: them whole on shard 0 only; the merge passes the single result
    #: through, so the folded bundle still matches an unsharded run.
    shardable: bool = True


EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(name: str, title: str, ablation: bool = False,
              shardable: bool = True):
    def decorator(build: Callable[[RunConfig], ExperimentResult]):
        EXPERIMENTS[name] = ExperimentSpec(name=name, title=title,
                                           build=build, ablation=ablation,
                                           shardable=shardable)
        return build
    return decorator


@_register("fig3_fig4_adders",
           "16-bit adders: error metrics versus hardware cost (Figures 3-4)")
def _build_adders(cfg: RunConfig) -> ExperimentResult:
    return adder_error_cost_study(error_samples=cfg.error_samples,
                                  reduced=cfg.reduced, workers=cfg.workers,
                                  store=cfg.store, shard=cfg.shard)


@_register("table1_multipliers",
           "16-bit fixed-width multipliers characterised (Table I)")
def _build_multipliers(cfg: RunConfig) -> ExperimentResult:
    return multiplier_comparison(error_samples=cfg.error_samples,
                                 workers=cfg.workers, store=cfg.store,
                                 shard=cfg.shard)


@_register("fig5_fft_adders",
           "FFT-32 energy versus PSNR with the adders swept (Figure 5)")
def _build_fft_adders(cfg: RunConfig) -> ExperimentResult:
    return fft_adder_sweep(reduced=cfg.reduced, energy_model=cfg.energy_model,
                           frames=cfg.frames, workers=cfg.workers,
                           backend=cfg.backend, store=cfg.store,
                           shard=cfg.shard)


@_register("table2_fft_multipliers",
           "FFT-32 with fixed-width multipliers swapped (Table II)")
def _build_fft_multipliers(cfg: RunConfig) -> ExperimentResult:
    return fft_multiplier_comparison(energy_model=cfg.energy_model,
                                     frames=cfg.frames, workers=cfg.workers,
                                     backend=cfg.backend, store=cfg.store,
                                     shard=cfg.shard)


@_register("fft_joint_frontier",
           "FFT joint approximate-versus-sized Pareto frontier (headline)")
def _build_fft_frontier(cfg: RunConfig) -> ExperimentResult:
    return fft_joint_frontier(reduced=cfg.reduced,
                              energy_model=cfg.energy_model,
                              frames=cfg.frames, workers=cfg.workers,
                              backend=cfg.backend, store=cfg.store,
                              shard=cfg.shard)


@_register("fig6_jpeg",
           "JPEG DCT energy versus MSSIM with the adders swept (Figure 6)")
def _build_jpeg(cfg: RunConfig) -> ExperimentResult:
    return jpeg_adder_sweep(image_size=cfg.image_size, reduced=cfg.reduced,
                            energy_model=cfg.energy_model,
                            workers=cfg.workers, backend=cfg.backend,
                            store=cfg.store, shard=cfg.shard)


@_register("jpeg_joint_frontier",
           "JPEG joint approximate-versus-sized Pareto frontier (headline)")
def _build_jpeg_frontier(cfg: RunConfig) -> ExperimentResult:
    return jpeg_joint_frontier(image_size=cfg.image_size, reduced=cfg.reduced,
                               energy_model=cfg.energy_model,
                               workers=cfg.workers, backend=cfg.backend,
                               store=cfg.store, shard=cfg.shard)


@_register("table3_hevc_adders",
           "HEVC motion compensation with the adders swapped (Table III)")
def _build_hevc_adders(cfg: RunConfig) -> ExperimentResult:
    return hevc_adder_table(image_size=cfg.image_size,
                            energy_model=cfg.energy_model,
                            workers=cfg.workers, backend=cfg.backend,
                            store=cfg.store, shard=cfg.shard)


@_register("table4_hevc_multipliers",
           "HEVC motion compensation with the multipliers swapped (Table IV)")
def _build_hevc_multipliers(cfg: RunConfig) -> ExperimentResult:
    return hevc_multiplier_table(image_size=cfg.image_size,
                                 energy_model=cfg.energy_model,
                                 workers=cfg.workers, backend=cfg.backend,
                                 store=cfg.store, shard=cfg.shard)


@_register("table5_kmeans_adders",
           "K-means distance datapath with the adders swapped (Table V)")
def _build_kmeans_adders(cfg: RunConfig) -> ExperimentResult:
    return kmeans_adder_table(runs=cfg.kmeans_runs,
                              points_per_run=cfg.kmeans_points,
                              energy_model=cfg.energy_model,
                              workers=cfg.workers, backend=cfg.backend,
                              store=cfg.store, shard=cfg.shard)


@_register("table6_kmeans_multipliers",
           "K-means distance datapath with the multipliers swapped (Table VI)")
def _build_kmeans_multipliers(cfg: RunConfig) -> ExperimentResult:
    return kmeans_multiplier_table(runs=cfg.kmeans_runs,
                                   points_per_run=cfg.kmeans_points,
                                   energy_model=cfg.energy_model,
                                   workers=cfg.workers, backend=cfg.backend,
                                   store=cfg.store, shard=cfg.shard)


@_register("fft_heterogeneous_search",
           "Per-stage heterogeneous FFT datapaths found adaptively (search)",
           shardable=False)
def _build_heterogeneous_search(cfg: RunConfig) -> ExperimentResult:
    return fft_heterogeneous_search(reduced=cfg.reduced, workers=cfg.workers,
                                    backend=cfg.backend, store=cfg.store)


@_register("ablation_compensation",
           "AAM/ABM compensation-circuit contribution (extension ablation)",
           ablation=True)
def _build_ablation_compensation(cfg: RunConfig) -> ExperimentResult:
    return multiplier_compensation_ablation(error_samples=cfg.error_samples,
                                            workers=cfg.workers,
                                            store=cfg.store, shard=cfg.shard)


@_register("ablation_rounding_mode",
           "LSB-elimination rounding-mode comparison (extension ablation)",
           ablation=True)
def _build_ablation_rounding(cfg: RunConfig) -> ExperimentResult:
    return rounding_mode_ablation(error_samples=cfg.error_samples,
                                  workers=cfg.workers, store=cfg.store,
                                  shard=cfg.shard)


def experiment_names(include_ablations: bool = True) -> List[str]:
    """Registry names in ``run_all`` order."""
    return [name for name, spec in EXPERIMENTS.items()
            if include_ablations or not spec.ablation]


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

    ``workers`` fans each sweep's functional simulations out over a process
    pool (capped at the CPU count, ``REPRO_WORKERS`` overrides); results are
    identical to the serial run.  ``backend`` selects the execution backend
    of every application-level sweep (``"direct"`` by default, or a
    registered plug-in); records are bit-identical across backends.  ``store`` (a
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
    config = RunConfig(reduced=reduced, workers=resolve_workers(workers),
                       backend=backend, store=store, shard=shard_pair,
                       energy_model=DatapathEnergyModel(store=store))
    bundle = RunAllResult(shard=shard_pair, backend=backend_spec(backend),
                          reduced=reduced)
    for spec in select_experiments(experiments, include_ablations):
        if shard_pair is not None and not spec.shardable:
            # Adaptive experiments have no index partition; shard 0 runs
            # them whole (unsharded config) and the other shards skip them.
            if shard_pair[0] != 0:
                continue
            bundle.add(spec.build(replace(config, shard=None)))
            continue
        bundle.add(spec.build(config))
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
    fails loudly).

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
    merged_store = ResultStore.of(store)
    if merged_store is not None:
        for directory in directories:
            for candidate in sorted(directory.glob("**/.repro_store")):
                merged_store.absorb(ResultStore(candidate))
    merged = ResultBundle.merge(bundles)
    result = RunAllResult(results=merged.results, shard=None)
    # Propagate the run identity from the first shard manifest, if any.
    for directory in directories:
        manifest_path = directory / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(manifest, dict):
            result.backend = str(manifest.get("backend", result.backend))
            result.reduced = bool(manifest.get("reduced", result.reduced))
            break
    if output_dir is not None:
        result.save_all(output_dir)
        result.save_manifest(output_dir)
    return result
