"""Successive halving over an enumerable design space.

The driver evaluates a (seeded) sample of the space on a *reduced stimulus*
— fewer frames of the same workload, overlaid through the per-point
configuration so the cheap rung gets its own store records — ranks the
candidates with the NSGA-II total order (non-domination rank, then crowding)
and re-evaluates only the survivors at full density.  Survivors are the
union of

* every candidate in the first ``rank_slack + 1`` non-domination fronts of
  the reduced rung (recall protection: a true-front point whose reduced
  estimate is slightly off survives unless it drops below rank
  ``rank_slack``), and
* the top ``keep`` fraction of the rung's total order (pressure when the
  reduced fronts are small).

On the CI-gated space this reproduces the exhaustive front exactly at a
fraction of the evaluation cost: the reduced rung charges ``1/density``
cost units per point, and only survivors pay full price.
"""
from __future__ import annotations

import math
from random import Random
from typing import Dict, Mapping, Optional, Sequence, Union

from ..core.designspace import DesignPoint, DesignSpace
from .evaluator import SearchEvaluator
from .rank import rank_population
from .strategy import SearchOutcome


class SuccessiveHalving:
    """Reduced-stimulus rung, multi-objective rank, full-density survivors.

    Parameters
    ----------
    space:
        The enumerable :class:`DesignSpace` (or point sequence) to search.
    seed:
        Drives the (optional) sampling draw — the only randomness here.
    sample:
        Evaluate only this many sampled points on the reduced rung
        (``None`` evaluates the whole space there).
    keep:
        Fraction of rung candidates the total order always promotes.
    rank_slack:
        Promote every candidate within this many non-domination fronts of
        the reduced rung's front (0 = rank-0 only).
    reduced:
        Per-point configuration overlay of the cheap rung, e.g.
        ``{"frames": 1}`` (the default).
    budget:
        Hard cap on candidate evaluations (reduced + full); the rung
        sample is trimmed to ``budget - 1`` (reserving room for at least
        one full-density survivor) and then the survivor list is trimmed
        to whatever budget remains.  Minimum 2.
    """

    name = "halving"

    def __init__(self, space: Union[DesignSpace, Sequence[DesignPoint]],
                 seed: int = 0,
                 sample: Optional[int] = None,
                 keep: float = 0.15,
                 rank_slack: int = 1,
                 reduced: Optional[Mapping[str, object]] = None,
                 budget: Optional[int] = None) -> None:
        self.space = DesignSpace.of(space)
        if not len(self.space):
            raise ValueError("cannot search an empty design space")
        self.seed = int(seed)
        self.sample = None if sample is None else max(1, int(sample))
        if not 0.0 < keep <= 1.0:
            raise ValueError(f"keep fraction must be in (0, 1], got {keep}")
        self.keep = float(keep)
        self.rank_slack = max(0, int(rank_slack))
        self.reduced: Dict[str, object] = dict(reduced) \
            if reduced is not None else {"frames": 1}
        self.budget = None if budget is None else max(2, int(budget))

    def search(self, evaluator: SearchEvaluator) -> SearchOutcome:
        rng = Random(self.seed)
        points = list(self.space)
        if self.sample is not None and self.sample < len(points):
            chosen = sorted(rng.sample(range(len(points)), self.sample))
            points = [points[index] for index in chosen]
        if self.budget is not None and len(points) > self.budget - 1:
            # Reserve at least one evaluation for a full-density survivor.
            chosen = sorted(rng.sample(range(len(points)), self.budget - 1))
            points = [points[index] for index in chosen]

        rung_rows = evaluator.evaluate(points, density=self.reduced)
        ranking = rank_population(
            [evaluator.objectives(row) for row in rung_rows])
        order = ranking.order
        protected = {index
                     for rank, members in enumerate(ranking.fronts)
                     if rank <= self.rank_slack
                     for index in members}
        keep_count = max(1, math.ceil(self.keep * len(points)))
        promoted = set(order[:keep_count]) | protected
        if self.budget is not None:
            room = self.budget - len(points)  # >= 1 by the rung trim
            if len(promoted) > room:  # trim worst-ranked first
                promoted = set(
                    [index for index in order if index in promoted][:room])
        survivors = [points[index] for index in sorted(promoted)]

        final_rows = evaluator.evaluate(survivors)
        front = evaluator.front(final_rows)
        rounds = [
            {"rung": "reduced", "density": dict(self.reduced),
             "candidates": [point.label for point in points]},
            {"rung": "full", "density": {},
             "candidates": [point.label for point in survivors]},
        ]
        return SearchOutcome(
            strategy=self.name,
            front=front,
            rows=final_rows,
            evaluations=evaluator.evaluations,
            fresh_evaluations=evaluator.fresh_evaluations,
            store_hits=evaluator.store_hits,
            cost_units=evaluator.cost_units,
            space_size=len(self.space),
            rounds=rounds,
        )
