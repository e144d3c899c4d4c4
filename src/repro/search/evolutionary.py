"""NSGA-II-style evolutionary search over a gene space.

For spaces too large to enumerate — the heterogeneous per-stage FFT space
is ~3 million candidates with the default pool — the driver breeds genomes
(pool-index tuples) with uniform crossover and single-stage mutation,
selects by non-domination rank and crowding distance, and keeps a genome →
row memo so no candidate is ever simulated twice inside one search.  All
randomness comes from one ``random.Random(seed)`` stream and every
tie-break is by stable insertion/index order, so a seed fixes the entire
candidate schedule; the store then makes a re-run of the same seed replay
at zero simulation cost.
"""
from __future__ import annotations

from random import Random
from typing import Dict, List, Optional, Sequence, Union

from ..core.designspace import DesignPoint, DesignSpace
from .evaluator import SearchEvaluator
from .genes import GeneSpace, Genome, as_gene_space
from .rank import rank_population, ranked_order
from .strategy import SearchOutcome


class EvolutionarySearch:
    """Multi-objective evolutionary loop (non-dominated sort + crowding).

    Parameters
    ----------
    space:
        A :class:`~repro.search.genes.GeneSpace`, or any finite design
        space (wrapped into a one-gene encoding).
    seed:
        Seeds the single random stream driving initialisation, tournament
        selection, crossover and mutation.
    population / generations:
        Loop shape.  Each generation breeds ``population`` offspring;
        duplicates of already-simulated genomes are served from the memo.
    crossover_rate:
        Probability an offspring is bred from two parents (otherwise it is
        a mutated copy of one).
    budget:
        Hard cap on candidate simulations; the loop stops proposing fresh
        genomes once reached.
    """

    name = "nsga2"

    def __init__(self, space: Union[GeneSpace, DesignSpace,
                                    Sequence[DesignPoint]],
                 seed: int = 0,
                 population: int = 16,
                 generations: int = 6,
                 crossover_rate: float = 0.9,
                 budget: Optional[int] = None) -> None:
        self.genes = as_gene_space(space)
        self.seed = int(seed)
        self.population = max(2, int(population))
        self.generations = max(0, int(generations))
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError(
                f"crossover rate must be in [0, 1], got {crossover_rate}")
        self.crossover_rate = float(crossover_rate)
        self.budget = None if budget is None else max(1, int(budget))

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def search(self, evaluator: SearchEvaluator) -> SearchOutcome:
        rng = Random(self.seed)
        genes = self.genes
        memo: Dict[Genome, Dict[str, object]] = {}
        evaluated: List[Genome] = []  # insertion order = evaluation order
        rounds: List[Dict[str, object]] = []

        def room() -> int:
            if self.budget is None:
                return self.population
            return max(0, self.budget - len(evaluated))

        def simulate(genomes: List[Genome]) -> None:
            fresh: List[Genome] = []
            queued = set()
            for genome in genomes:
                if genome not in memo and genome not in queued:
                    queued.add(genome)
                    fresh.append(genome)
            fresh = fresh[:room()]
            if not fresh:
                return
            rows = evaluator.evaluate(
                [genes.to_point(genome) for genome in fresh])
            for genome, row in zip(fresh, rows):
                memo[genome] = row
                evaluated.append(genome)

        def propose_initial() -> List[Genome]:
            proposals: List[Genome] = []
            seen = set()
            attempts = 0
            while len(proposals) < self.population \
                    and attempts < 20 * self.population:
                genome = genes.random_genome(rng)
                attempts += 1
                if genome not in seen:
                    seen.add(genome)
                    proposals.append(genome)
            return proposals

        population = propose_initial()
        simulate(population)
        population = [genome for genome in population if genome in memo]
        rounds.append({"round": "init",
                       "candidates": [list(g) for g in population]})

        for generation in range(self.generations):
            if room() == 0:
                break
            ranking = rank_population([evaluator.objectives(memo[genome])
                                       for genome in population])

            def better(a: int, b: int) -> int:
                """Binary-tournament winner by (rank, crowding, index)."""
                return a if ranking.sort_key(a) <= ranking.sort_key(b) else b

            offspring: List[Genome] = []
            while len(offspring) < self.population:
                first = better(rng.randrange(len(population)),
                               rng.randrange(len(population)))
                if rng.random() < self.crossover_rate:
                    second = better(rng.randrange(len(population)),
                                    rng.randrange(len(population)))
                    child = genes.crossover(population[first],
                                            population[second], rng)
                else:
                    child = population[first]
                offspring.append(genes.mutate(child, rng))
            simulate(offspring)
            rounds.append({"round": f"generation_{generation}",
                           "candidates": [list(g) for g in offspring]})

            # Environmental selection over parents + evaluated offspring,
            # de-duplicated with stable (parents-first) order.
            combined: List[Genome] = []
            seen = set()
            for genome in population + offspring:
                if genome in memo and genome not in seen:
                    seen.add(genome)
                    combined.append(genome)
            order = ranked_order([evaluator.objectives(memo[genome])
                                  for genome in combined])
            population = [combined[index]
                          for index in order[:self.population]]

        final_rows = [dict(memo[genome]) for genome in evaluated]
        front = evaluator.front(final_rows)
        return SearchOutcome(
            strategy=self.name,
            front=front,
            rows=final_rows,
            evaluations=evaluator.evaluations,
            fresh_evaluations=evaluator.fresh_evaluations,
            store_hits=evaluator.store_hits,
            cost_units=evaluator.cost_units,
            space_size=genes.enumeration_size,
            rounds=rounds,
        )
