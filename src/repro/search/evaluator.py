"""SearchEvaluator: the bridge between search drivers and the Study engine.

Every candidate a driver proposes is executed through the *same* machinery
the exhaustive sweeps use — a configured :class:`~repro.core.study.Study`
over :class:`~repro.core.designspace.DesignPoint` candidates — so search
rows are bit-identical to the rows an exhaustive enumeration of the same
points would produce, and every evaluation flows through the study's
:class:`~repro.core.store.ResultStore` by structural key.  That gives the
drivers three properties for free:

* **resumability** — a killed search re-run with the same seed replays its
  completed evaluations from the store at zero simulation cost;
* **bit-determinism** — rows depend only on (workload, config, operators,
  backend, seed, version), never on wall clock or iteration order;
* **honest accounting** — ``evaluations`` counts candidate simulations
  submitted, ``store_hits`` how many the store served warm, and
  ``cost_units`` the full-density-equivalent work (a reduced-stimulus rung
  evaluation is charged at its density fraction).

Heterogeneous candidates (per-stage / per-pass operator genomes) carry
their genome in the per-point configuration; their energy is charged stage
by stage — each stage's adder paired with the minimal exact multiplier its
emitted width allows, the paper's sizing-propagation convention — from the
per-stage counts the workload reports.
"""
from __future__ import annotations

from dataclasses import replace
from numbers import Number
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.designspace import DesignPoint
from ..core.results import ParetoFront
from ..core.study import Study, SweepOutcome, _default_row


def search_row(outcome: SweepOutcome) -> Dict[str, object]:
    """Default search row: the study row plus heterogeneous energy.

    Homogeneous points keep the study's own energy charging.  Heterogeneous
    points (no single charged adder, but per-stage details from the
    workload) get their energy summed stage by stage and a ``genome``
    column naming the per-stage operators.  Each stage operator's
    (addition, paired multiplication) energy comes from the energy model's
    per-spec memo
    (:meth:`~repro.core.datapath.DatapathEnergyModel.paired_energy_pj`),
    so a row parses no operator spec the model has already charged.
    """
    row = _default_row(outcome)
    details = outcome.details
    stage_adders = details.get("stage_adders")
    stage_counts = details.get("stage_counts")
    if stage_adders and stage_counts and outcome.energy is None \
            and outcome.energy_model is not None:
        model = outcome.energy_model
        adder_energy = 0.0
        multiplier_energy = 0.0
        for name, counts in zip(stage_adders, stage_counts):
            addition_pj, multiplication_pj = model.paired_energy_pj(str(name))
            adder_energy += int(counts[0]) * addition_pj
            multiplier_energy += int(counts[1]) * multiplication_pj
        row["adder_energy_pj"] = adder_energy
        row["multiplier_energy_pj"] = multiplier_energy
        row["total_energy_pj"] = adder_energy + multiplier_energy
    if stage_adders:
        row["genome"] = "|".join(str(name) for name in stage_adders)
    return row


class SearchEvaluator:
    """Executes candidate design points for a search strategy.

    Built by :meth:`Study.search <repro.core.study.Study.search>` from a
    fully configured study (workload, backend, seed, store, energy model and
    Pareto axes); the strategy only ever sees points, rows and objective
    vectors.
    """

    def __init__(self, study: Study, workers: int = 1, pool=None) -> None:
        if study._workload is None:
            raise ValueError("no workload selected; call .workload(...) first")
        if study._pareto_axes is None:
            raise ValueError(
                "search needs the objective axes; call "
                ".pareto(quality=..., cost=...) before .search(...)")
        if study._shard is not None:
            raise ValueError("search cannot run on a sharded study")
        self._study = study
        self._workers = max(1, int(workers))
        self._pool = pool
        if study._row_builder is None:
            study.rows(search_row)
        # The axes move here, so the per-batch runs extract no front.
        (self.quality, self.cost, self.maximize_quality,
         self.minimize_cost) = study._pareto_axes
        study._pareto_axes = None
        self._full_config, _ = study._merged_config(study._workload)
        self.evaluations = 0
        self.fresh_evaluations = 0
        self.store_hits = 0
        self.cost_units = 0.0

    # ------------------------------------------------------------------ #
    # Candidate execution
    # ------------------------------------------------------------------ #
    def density_weight(self, density: Optional[Mapping[str, object]]) -> float:
        """Full-density-equivalent cost of one evaluation at ``density``.

        The fraction multiplies the ratios of every overridden numeric
        stimulus knob (e.g. ``frames: 1`` against a full density of 16
        weighs 1/16) — the accounting the ≤35%-of-exhaustive CI gate runs
        on.
        """
        if not density:
            return 1.0
        weight = 1.0
        for key, value in density.items():
            base = self._full_config.get(key)
            if isinstance(base, Number) and isinstance(value, Number) \
                    and float(base) > 0:
                weight *= float(value) / float(base)
        return weight

    def _with_density(self, point: DesignPoint,
                      density: Optional[Mapping[str, object]]) -> DesignPoint:
        if not density:
            return point
        merged = dict(point.config)
        merged.update(density)
        return replace(point, config=tuple(sorted(merged.items())))

    def evaluate(self, points: Sequence[DesignPoint],
                 density: Optional[Mapping[str, object]] = None
                 ) -> List[Dict[str, object]]:
        """Run candidates (deduplicated) and return rows in input order.

        ``density`` overlays per-point workload configuration for
        reduced-stimulus rungs; the overlay is part of each point's store
        key, so reduced and full evaluations of the same candidate are
        distinct records.
        """
        staged = [self._with_density(point, density) for point in points]
        unique: List[DesignPoint] = []
        position: Dict[Tuple[object, ...], int] = {}
        for point in staged:
            if point.key not in position:
                position[point.key] = len(unique)
                unique.append(point)
        if not unique:
            return []
        result = (self._study
                  .design_space(unique)
                  .run(workers=self._workers, pool=self._pool))
        hits = int(result.metadata.get("store_hits", 0))
        self.evaluations += len(unique)
        self.store_hits += hits
        self.fresh_evaluations += len(unique) - hits
        self.cost_units += self.density_weight(density) * len(unique)
        rows = result.rows
        return [dict(rows[position[point.key]]) for point in staged]

    # ------------------------------------------------------------------ #
    # Objectives and fronts
    # ------------------------------------------------------------------ #
    def objectives(self, row: Mapping[str, object]) -> Tuple[float, float]:
        """(quality, cost) of a row as a minimised objective vector."""
        quality = float(row[self.quality])  # type: ignore[arg-type]
        cost = float(row[self.cost])  # type: ignore[arg-type]
        return (-quality if self.maximize_quality else quality,
                cost if self.minimize_cost else -cost)

    def front(self, rows: Sequence[Mapping[str, object]]) -> ParetoFront:
        """Pareto front of rows on the study's quality/cost axes."""
        return ParetoFront.from_rows([dict(row) for row in rows],
                                     self.quality, self.cost,
                                     maximize_quality=self.maximize_quality,
                                     minimize_cost=self.minimize_cost)
