"""Multi-objective ranking primitives: non-dominated sort + crowding.

These are the NSGA-II building blocks both search drivers share — the
successive-halving rung ranks its reduced-stimulus candidates with them, and
the evolutionary loop uses them for environmental selection and tournaments.
Everything here is pure and deterministic: objective vectors in, index
structures out, with explicit index tie-breaks so equal candidates sort
identically on every platform.

Objectives are *minimised*; callers negate maximised axes (the evaluator's
``objectives`` helper does this for the quality axis).

The non-dominated sort builds the whole dominance matrix in one NumPy
broadcast (``all(<=) & any(<)`` over an ``n × n × d`` array) and peels the
fronts off it, instead of comparing candidates pair by pair.  Comparisons
with NaN are false, so a NaN objective never dominates and is never
dominated.  Crowding follows the same finite-span rule on every axis: an
axis whose extent is zero or not finite (an infinite or NaN objective, e.g.
the negated PSNR of an exact output) adds nothing to interior distances,
so no distance is ever NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

ObjectiveVector = Tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Strict Pareto dominance under minimisation: ``a`` beats ``b``."""
    at_least_as_good = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def non_dominated_sort(objectives: Sequence[ObjectiveVector]
                       ) -> List[List[int]]:
    """Partition indices into non-domination fronts (rank 0 first).

    Front 0 is the set of candidates no other candidate dominates; front
    ``r + 1`` is what becomes non-dominated once fronts ``0..r`` are
    removed.  Each front lists its member indices in ascending order, so
    the output is a pure function of the objective vectors.
    """
    count = len(objectives)
    if count == 0:
        return []
    values = np.asarray(objectives, dtype=float).reshape(count, -1)
    left, right = values[:, None, :], values[None, :, :]
    # beats[i, j]: candidate i dominates candidate j.
    beats = (left <= right).all(axis=2) & (left < right).any(axis=2)
    dominators = beats.sum(axis=0)
    fronts: List[List[int]] = []
    current = np.flatnonzero(dominators == 0)
    while current.size:
        fronts.append(current.tolist())
        # A front only dominates later fronts, so its own members leave
        # the count at -1 and are never picked again.
        dominators -= beats[current].sum(axis=0)
        dominators[current] = -1
        current = np.flatnonzero(dominators == 0)
    return fronts


def crowding_distance(objectives: Sequence[ObjectiveVector],
                      front: Sequence[int]) -> Dict[int, float]:
    """NSGA-II crowding distance of one front's members.

    Boundary members of every objective get infinite distance; interior
    members accumulate the normalised gap between their neighbours.  An
    axis whose span is zero or not finite contributes nothing, so an
    infinite objective cannot turn the interior distances into NaN.  Ties
    on an objective sort by index, so the distances are deterministic even
    when candidates coincide.
    """
    members = list(front)
    distance = {index: 0.0 for index in members}
    if len(members) <= 2:
        return {index: float("inf") for index in members}
    dimensions = len(objectives[members[0]])
    for axis in range(dimensions):
        ordered = sorted(members, key=lambda i: (objectives[i][axis], i))
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        if not all(math.isfinite(objectives[i][axis]) for i in members):
            continue
        span = objectives[ordered[-1]][axis] - objectives[ordered[0]][axis]
        if span <= 0.0:
            continue
        for position in range(1, len(ordered) - 1):
            index = ordered[position]
            if distance[index] == float("inf"):
                continue
            gap = (objectives[ordered[position + 1]][axis]
                   - objectives[ordered[position - 1]][axis])
            distance[index] += gap / span
    return distance


@dataclass(frozen=True)
class Ranking:
    """One NSGA-II ranking of a population.

    ``fronts`` are the non-domination fronts, ``rank[i]`` is candidate
    ``i``'s front and ``crowding[i]`` its crowding distance within it.
    """

    fronts: List[List[int]]
    rank: List[int]
    crowding: List[float]

    def sort_key(self, index: int) -> Tuple[int, float, int]:
        """(front rank, -crowding, index): the NSGA-II total order."""
        return (self.rank[index], -self.crowding[index], index)

    @cached_property
    def order(self) -> List[int]:
        """Every index, best first by :meth:`sort_key`."""
        return sorted(range(len(self.rank)), key=self.sort_key)


def rank_population(objectives: Sequence[ObjectiveVector]) -> Ranking:
    """Fronts, ranks and crowding distances from one non-dominated sort."""
    fronts = non_dominated_sort(objectives)
    rank = [0] * len(objectives)
    crowding = [0.0] * len(objectives)
    for front_rank, members in enumerate(fronts):
        for index, distance in crowding_distance(objectives, members).items():
            rank[index] = front_rank
            crowding[index] = distance
    return Ranking(fronts, rank, crowding)


def ranked_order(objectives: Sequence[ObjectiveVector]) -> List[int]:
    """All indices ordered best-first by (front rank, -crowding, index).

    The canonical NSGA-II total order: earlier fronts first, sparser regions
    first within a front, ascending index as the final deterministic
    tie-break.
    """
    return rank_population(objectives).order
