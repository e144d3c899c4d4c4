"""Heterogeneous per-stage search: the adaptive-exploration experiment.

The exhaustive experiments enumerate homogeneous datapaths — one adder for
the whole application.  This experiment explores the space the paper's
methodology points at but exhaustive sweeps cannot reach: one adder *per
FFT stage*, ``12^6`` (~3 million) candidate datapaths, driven by the
NSGA-II evolutionary search (:mod:`repro.search`) over the same Study
engine every other experiment uses.  Rows are bit-deterministic for a
seed, flow through the shared result store by structural key, and the
searched quality-versus-energy front is attached like any exhaustive
front — so the dashboard, the merge machinery and the golden gates treat
it uniformly.

The experiment is *not shardable*: an adaptive schedule depends on its own
earlier results, so there is no index partition to carve.  The registry
marks it so, and sharded runs execute it whole on shard 0 only.
"""
from __future__ import annotations

from typing import Optional

from ..core.backends import BackendLike, backend_spec
from ..core.results import ExperimentResult
from ..core.store import StoreLike
from ..search import get_target

#: Search seed of the registry run — part of the experiment's identity:
#: same seed, same schedule, same rows, same front, on any machine.
REGISTRY_SEED = 7

COLUMNS = ["genome", "axis", "psnr_db", "additions", "multiplications",
           "adder_energy_pj", "multiplier_energy_pj", "total_energy_pj"]


def fft_heterogeneous_search(reduced: bool = True,
                             seed: int = REGISTRY_SEED,
                             population: Optional[int] = None,
                             generations: Optional[int] = None,
                             workers: int = 1,
                             backend: BackendLike = "direct",
                             store: StoreLike = None,
                             pool=None) -> ExperimentResult:
    """Search the per-stage FFT space and report the discovered frontier.

    Every candidate the driver proposes is one heterogeneous datapath —
    an adder assignment per FFT stage, energy charged stage by stage with
    the paper's sizing-propagated multiplier pairing.  The result carries
    every evaluated candidate as a row (the dashboard's cloud), the
    searched Pareto front, and a ``metadata["search"]`` block with the
    honest accounting: candidates evaluated versus the size of the space
    they were drawn from.
    """
    target = get_target("fft_per_stage")
    study = target.study(reduced=reduced, backend=backend, store=store,
                         seed=REGISTRY_SEED)
    strategy = target.strategy("nsga2", seed=seed,
                               population=population,
                               generations=generations)
    outcome = study.search(strategy, workers=workers, pool=pool)

    result = ExperimentResult(
        experiment="fft_heterogeneous_search",
        description=("Per-stage heterogeneous adder assignment on the "
                     "64-point FFT, explored adaptively (NSGA-II) — the "
                     "design space the paper's per-operator methodology "
                     "opens up but exhaustive enumeration cannot reach"),
        columns=list(COLUMNS),
        metadata={
            "target": target.name,
            "seed": int(seed),
            "backend": backend_spec(backend),
            "search": {
                "strategy": outcome.strategy,
                "space_size": outcome.space_size,
                "evaluations": outcome.evaluations,
                "fresh_evaluations": outcome.fresh_evaluations,
                "store_hits": outcome.store_hits,
                "cost_units": outcome.cost_units,
                "front_points": len(outcome.front.records),
                "rounds": len(outcome.rounds),
            },
        })
    for row in outcome.rows:
        result.add_row(**row)
    result.fronts[outcome.front.key] = outcome.front
    return result
