"""Adaptive design-space search: rank, drivers, determinism, replay.

The contract under test is the one the CI gate runs on: a seed fixes the
whole candidate schedule, search rows are bit-identical to exhaustive rows
of the same points, a killed search replays from the store at zero
simulation cost, and successive halving on the gated space recovers the
exhaustive Pareto front exactly.
"""
import hashlib
import json
import math
from random import Random

import pytest

from repro.core.datapath import DatapathEnergyModel
from repro.core.designspace import joint_adder_space
from repro.core.study import Study
from repro.search import (
    EvolutionarySearch,
    SearchEvaluator,
    SearchOutcome,
    SearchStrategy,
    SuccessiveHalving,
    crowding_distance,
    dominates,
    get_target,
    non_dominated_sort,
    per_pass_dct_space,
    per_stage_fft_space,
    rank_population,
    ranked_order,
)
from repro.search.evaluator import search_row

from oracles import pairwise_non_dominated_sort

QUALITY, COST = "psnr_db", "total_energy_pj"


def small_space():
    """22 joint sized + approximate adder configurations — enumerable."""
    return joint_adder_space(16, reduced=True)


def small_study(store=None, frames=4):
    study = (Study()
             .workload("fft", size=16, data_width=16, frames=frames)
             .energy(DatapathEnergyModel(hardware_samples=200))
             .seed(3)
             .pareto(quality=QUALITY, cost=COST))
    if store is not None:
        study.store(store)
    return study


# --------------------------------------------------------------------------- #
# Multi-objective ranking primitives
# --------------------------------------------------------------------------- #
def test_dominates_is_strict_minimisation():
    assert dominates((1.0, 1.0), (2.0, 2.0))
    assert dominates((1.0, 2.0), (1.0, 3.0))
    assert not dominates((1.0, 1.0), (1.0, 1.0))  # equal: no strict gain
    assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off: incomparable


def test_non_dominated_sort_on_hand_built_fronts():
    # Three hand-layered fronts: {0,1} then {2,3} then {4}.
    objectives = [(1.0, 4.0), (4.0, 1.0),
                  (2.0, 5.0), (5.0, 2.0),
                  (6.0, 6.0)]
    assert non_dominated_sort(objectives) == [[0, 1], [2, 3], [4]]


def test_non_dominated_sort_keeps_coordinate_ties_together():
    objectives = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
    assert non_dominated_sort(objectives) == [[0, 1], [2]]


def test_crowding_distance_boundaries_are_infinite():
    objectives = [(0.0, 4.0), (1.0, 2.0), (2.0, 1.5), (4.0, 0.0)]
    front = [0, 1, 2, 3]
    crowding = crowding_distance(objectives, front)
    assert math.isinf(crowding[0]) and math.isinf(crowding[3])
    assert 0 < crowding[1] < math.inf and 0 < crowding[2] < math.inf
    # Two-member fronts are all-boundary.
    assert all(math.isinf(d) for d in
               crowding_distance(objectives, [0, 1]).values())


def test_ranked_order_sorts_by_rank_then_crowding():
    objectives = [(1.0, 4.0), (4.0, 1.0), (2.0, 2.0),  # rank-0 front
                  (5.0, 5.0)]                          # dominated
    order = ranked_order(objectives)
    assert order[-1] == 3
    assert set(order[:3]) == {0, 1, 2}
    # Boundary points (infinite crowding) precede the interior point.
    assert order.index(2) > order.index(0)
    assert order.index(2) > order.index(1)


def _random_objective_set(rng):
    """0-64 vectors of 2 or 3 objectives, drawn from a small value pool so
    coordinate ties and duplicate vectors are common, with ±inf and NaN."""
    pool = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, 8))]
    pool += [float("inf"), float("-inf"), float("nan"), 0.0, 1.0]
    dimensions = rng.choice((2, 3))
    special = rng.random() < 0.5  # half the sets stay finite
    values = pool if special else pool[:-3]
    vectors = [tuple(rng.choice(values) for _ in range(dimensions))
               for _ in range(rng.randint(0, 64))]
    for _ in range(rng.randint(0, len(vectors) // 4)):
        vectors.append(rng.choice(vectors))  # exact duplicates
    return vectors


def test_non_dominated_sort_matches_the_pairwise_oracle():
    rng = Random(2002)
    sizes = set()
    for _ in range(600):
        objectives = _random_objective_set(rng)
        sizes.add(len(objectives))
        assert non_dominated_sort(objectives) == \
            pairwise_non_dominated_sort(objectives), objectives
    assert 0 in sizes and max(sizes) >= 64


def test_infinite_objective_leaves_crowding_finite_or_boundary():
    # The negated PSNR of an exact output is -inf: that axis's span is
    # infinite and must add nothing, as a zero span adds nothing.
    objectives = [(float("-inf"), 5.0), (-3.0, 2.0), (-2.0, 1.0),
                  (-1.0, 0.5)]
    crowding = crowding_distance(objectives, [0, 1, 2, 3])
    assert not any(math.isnan(d) for d in crowding.values())
    assert math.isinf(crowding[0]) and math.isinf(crowding[3])
    assert crowding[1] == pytest.approx(4.0 / 4.5)
    assert crowding[2] == pytest.approx(1.5 / 4.5)
    assert ranked_order(objectives) == [0, 3, 1, 2]


def test_nan_objectives_never_give_nan_crowding():
    rng = Random(6)
    for _ in range(200):
        objectives = _random_objective_set(rng)
        ranking = rank_population(objectives)
        assert not any(math.isnan(d) for d in ranking.crowding)
        assert sorted(ranking.order) == list(range(len(objectives)))


def test_rank_population_is_one_consistent_ranking():
    objectives = [(1.0, 4.0), (4.0, 1.0), (2.0, 2.0), (5.0, 5.0),
                  (3.0, 3.0), (6.0, 0.5)]
    ranking = rank_population(objectives)
    assert ranking.fronts == non_dominated_sort(objectives)
    assert ranking.order == ranked_order(objectives)
    for front_rank, members in enumerate(ranking.fronts):
        expected = crowding_distance(objectives, members)
        for index in members:
            assert ranking.rank[index] == front_rank
            assert ranking.crowding[index] == expected[index]
    assert ranking.order == sorted(range(len(objectives)),
                                   key=ranking.sort_key)


# --------------------------------------------------------------------------- #
# Gene spaces
# --------------------------------------------------------------------------- #
def test_per_stage_fft_space_exceeds_a_million_points():
    space = per_stage_fft_space(size=64)
    assert space.stages == 6
    assert space.enumeration_size == len(space.pool) ** 6
    assert space.enumeration_size > 10 ** 6


def test_mutation_changes_exactly_one_stage():
    space = per_pass_dct_space()
    rng = Random(11)
    genome = space.random_genome(rng)
    for _ in range(20):
        mutant = space.mutate(genome, rng)
        assert sum(a != b for a, b in zip(genome, mutant)) == 1


def test_crossover_takes_every_gene_from_a_parent():
    space = per_stage_fft_space(size=64)
    rng = Random(7)
    mother, father = space.random_genome(rng), space.random_genome(rng)
    child = space.crossover(mother, father, rng)
    assert all(gene in (m, f)
               for gene, m, f in zip(child, mother, father))


def test_genome_point_carries_the_stage_assignment():
    space = per_stage_fft_space(size=64)
    genome = tuple(range(space.stages))
    point = space.to_point(genome)
    config = dict(point.config)
    assert config["stage_adders"] == space.genome_names(genome)
    assert config["stage_adders"] == tuple(space.pool[g] for g in genome)
    assert point.axis == "heterogeneous"


def test_unknown_operator_in_pool_fails_at_construction():
    with pytest.raises(KeyError):
        per_stage_fft_space(size=64, pool=["ADD(16)", "NOPE(16)"])


# --------------------------------------------------------------------------- #
# Heterogeneous kernels agree with homogeneous ones
# --------------------------------------------------------------------------- #
def _one_point_row(workload, points, **config):
    result = (Study().workload(workload, **config).seed(3)
              .design_space(points).rows(search_row).run())
    return result.rows[0]


def test_all_exact_stage_genome_matches_homogeneous_fft():
    from repro.core.designspace import adder_axis
    from repro.operators.adders import ExactAdder
    from repro.search.genes import StagedGeneSpace

    config = dict(size=16, data_width=16, frames=2)
    uniform = _one_point_row("fft", adder_axis([ExactAdder(16)]), **config)
    genes = StagedGeneSpace(["ADD(16)"], stages=4)
    staged = _one_point_row("fft", [genes.to_point((0, 0, 0, 0))], **config)
    assert staged[QUALITY] == uniform[QUALITY]
    assert staged["additions"] == uniform["additions"]
    assert staged["multiplications"] == uniform["multiplications"]
    assert staged["genome"] == "ADD(16)|ADD(16)|ADD(16)|ADD(16)"


def test_all_exact_pass_genome_matches_homogeneous_jpeg():
    from repro.core.designspace import adder_axis
    from repro.operators.adders import ExactAdder
    from repro.search.genes import StagedGeneSpace

    config = dict(size=32, frames=1)
    uniform = _one_point_row("jpeg", adder_axis([ExactAdder(16)]), **config)
    genes = StagedGeneSpace(["ADD(16)"], stages=2, config_key="pass_adders")
    staged = _one_point_row("jpeg", [genes.to_point((0, 0))], **config)
    assert staged["mssim"] == uniform["mssim"]
    assert staged["additions"] == uniform["additions"]
    assert staged["multiplications"] == uniform["multiplications"]


def test_stage_energy_is_charged_once_per_spec(monkeypatch):
    import repro.core.datapath as datapath
    from repro.core.datapath import minimal_multiplier_for
    from repro.operators.adders import TruncatedAdder

    parsed = []
    real = datapath.parse_operator
    monkeypatch.setattr(datapath, "parse_operator",
                        lambda spec: parsed.append(spec) or real(spec))
    model = DatapathEnergyModel(hardware_samples=200)
    pairing = model.paired_energy_pj("ADDt(16,10)")
    assert model.paired_energy_pj("ADDt(16,10)") is pairing
    assert parsed == ["ADDt(16,10)"]
    adder = TruncatedAdder(16, 10)
    assert pairing == (model.energy_per_addition_pj(adder),
                       model.energy_per_multiplication_pj(
                           minimal_multiplier_for(adder)))


# --------------------------------------------------------------------------- #
# Successive halving
# --------------------------------------------------------------------------- #
def test_halving_same_seed_is_bit_identical(tmp_path):
    outcomes = [
        small_study(tmp_path / f"store{i}")
        .search(SuccessiveHalving(small_space(), seed=5, keep=0.2))
        for i in (0, 1)
    ]
    a, b = (outcome.to_dict() for outcome in outcomes)
    assert json.dumps(a["front"], sort_keys=True) == \
        json.dumps(b["front"], sort_keys=True)
    assert a["rounds"] == b["rounds"]


def test_halving_different_seed_samples_a_different_schedule(tmp_path):
    def schedule(seed):
        outcome = small_study(tmp_path / f"s{seed}").search(
            SuccessiveHalving(small_space(), seed=seed, sample=10))
        return outcome.rounds[0]["candidates"]

    assert schedule(1) != schedule(2)


def test_halving_promotes_the_whole_protected_front(tmp_path):
    space = small_space()
    evaluator = SearchEvaluator(small_study(tmp_path / "store"))
    driver = SuccessiveHalving(space, seed=5, keep=0.15, rank_slack=0)
    outcome = driver.search(evaluator)
    rung, full = outcome.rounds
    assert rung["rung"] == "reduced" and full["rung"] == "full"
    assert len(rung["candidates"]) == len(space)
    # Survivors are a subset of the rung, at least the keep fraction.
    assert set(full["candidates"]) <= set(rung["candidates"])
    assert len(full["candidates"]) >= math.ceil(0.15 * len(space))
    # Every full-density row fed the front; the reduced rung is charged
    # at its density fraction (frames 1 of 4), so total cost is below
    # one-full-pass-per-candidate.
    assert outcome.front.evaluated == len(full["candidates"])
    assert outcome.cost_units < outcome.evaluations
    assert outcome.evaluations == len(space) + len(full["candidates"])


def test_halving_budget_caps_the_evaluations(tmp_path):
    outcome = small_study(tmp_path / "store").search(
        SuccessiveHalving(small_space(), seed=5, budget=15))
    assert outcome.evaluations <= 15


def test_halving_recalls_the_exhaustive_front_exactly(tmp_path):
    """The CI gate's property, on a test-sized space: searched front ==
    exhaustively enumerated front, row for row."""
    store = tmp_path / "store"
    space = small_space()
    searched = small_study(store).search(
        SuccessiveHalving(space, seed=5, keep=0.2, rank_slack=1))
    exhaustive = (small_study(store).design_space(space)
                  .rows(search_row).run())
    reference = exhaustive.front(QUALITY, COST)
    assert len(searched.front.records) == len(reference.records)
    assert searched.front.rows == reference.rows


def test_empty_space_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        SuccessiveHalving([])


# --------------------------------------------------------------------------- #
# NSGA-II evolutionary driver
# --------------------------------------------------------------------------- #
def nsga2(seed=7, **kwargs):
    kwargs.setdefault("population", 6)
    kwargs.setdefault("generations", 2)
    return EvolutionarySearch(per_pass_dct_space(), seed=seed, **kwargs)


def dct_study(store=None):
    study = (Study().workload("jpeg", size=32, frames=1).seed(3)
             .energy(DatapathEnergyModel(hardware_samples=200))
             .pareto(quality="mssim", cost=COST))
    if store is not None:
        study.store(store)
    return study


def test_nsga2_same_seed_is_bit_identical(tmp_path):
    a, b = (dct_study(tmp_path / f"store{i}").search(nsga2()).to_dict()
            for i in (0, 1))
    assert a["rounds"] == b["rounds"]
    assert json.dumps(a["front"], sort_keys=True) == \
        json.dumps(b["front"], sort_keys=True)


def _schedule_digest(rounds):
    text = json.dumps(rounds, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_candidate_schedules_are_pinned():
    """Both drivers' candidate schedules, recorded before the ranking was
    vectorised: ranking changes must not move a single candidate."""
    halving = small_study().search(
        SuccessiveHalving(small_space(), seed=5, keep=0.2))
    evolution = dct_study().search(nsga2())
    assert _schedule_digest(halving.rounds) == "1fb18d5bbdd63146"
    assert _schedule_digest(evolution.rounds) == "84580f0af535bc50"


def test_nsga2_different_seed_proposes_a_different_schedule(tmp_path):
    a = dct_study(tmp_path / "a").search(nsga2(seed=1))
    b = dct_study(tmp_path / "b").search(nsga2(seed=2))
    assert a.rounds != b.rounds


def test_nsga2_never_resimulates_a_genome(tmp_path):
    outcome = dct_study(tmp_path / "store").search(nsga2())
    proposals = [tuple(g) for entry in outcome.rounds
                 for g in entry["candidates"]]
    # Proposals repeat across generations; evaluations never do.
    assert outcome.evaluations == len(set(row["genome"]
                                          for row in outcome.rows))
    assert outcome.evaluations <= len(proposals)
    assert len(outcome.rows) == outcome.evaluations


def test_nsga2_budget_is_a_hard_cap(tmp_path):
    outcome = dct_study(tmp_path / "store").search(
        nsga2(generations=4, budget=9))
    assert outcome.evaluations <= 9


def test_nsga2_front_is_nonempty_over_the_heterogeneous_space(tmp_path):
    outcome = dct_study(tmp_path / "store").search(nsga2())
    assert outcome.space_size == 144
    assert len(outcome.front.records) >= 1
    for record in outcome.front.records:
        assert "|" in record.row["genome"]


# --------------------------------------------------------------------------- #
# Store replay: resume a killed search at zero simulation cost
# --------------------------------------------------------------------------- #
def test_search_replays_warm_from_the_store(tmp_path):
    store = tmp_path / "store"
    first = small_study(store).search(
        SuccessiveHalving(small_space(), seed=5, keep=0.2))
    assert first.store_hits == 0
    second = small_study(store).search(
        SuccessiveHalving(small_space(), seed=5, keep=0.2))
    assert second.store_hits == second.evaluations
    assert second.fresh_evaluations == 0
    assert json.dumps(first.front.to_dict(), sort_keys=True) == \
        json.dumps(second.front.to_dict(), sort_keys=True)


def test_interrupted_search_resumes_without_recomputing(tmp_path):
    """Kill-mid-search model: the rung completed, the survivors did not.
    The re-run serves the rung warm and only simulates what is missing."""
    store = tmp_path / "store"
    driver = SuccessiveHalving(small_space(), seed=5, keep=0.2)
    # "Killed" run: only the reduced rung got evaluated.
    rung_evaluator = SearchEvaluator(small_study(store))
    rung_evaluator.evaluate(list(small_space()), density=driver.reduced)
    resumed = small_study(store).search(driver)
    assert resumed.store_hits >= len(small_space())
    fresh = small_study(tmp_path / "fresh").search(driver)
    assert json.dumps(resumed.front.to_dict(), sort_keys=True) == \
        json.dumps(fresh.front.to_dict(), sort_keys=True)


# --------------------------------------------------------------------------- #
# Study.search wiring and the strategy protocol
# --------------------------------------------------------------------------- #
def test_search_requires_pareto_axes():
    study = Study().workload("fft", size=16, data_width=16, frames=1)
    with pytest.raises(ValueError, match="pareto"):
        study.search(SuccessiveHalving(small_space(), seed=1))


def test_search_rejects_sharded_studies():
    study = small_study().shard((0, 2))
    with pytest.raises(ValueError, match="shard"):
        study.search(SuccessiveHalving(small_space(), seed=1))


def test_any_strategy_protocol_object_can_drive_a_study(tmp_path):
    class FirstFive:
        name = "first-five"

        def search(self, evaluator):
            rows = evaluator.evaluate(list(small_space())[:5])
            return SearchOutcome(
                strategy=self.name, front=evaluator.front(rows), rows=rows,
                evaluations=evaluator.evaluations,
                fresh_evaluations=evaluator.fresh_evaluations,
                store_hits=evaluator.store_hits,
                cost_units=evaluator.cost_units, space_size=5)

    strategy = FirstFive()
    assert isinstance(strategy, SearchStrategy)
    outcome = small_study(tmp_path / "store").search(strategy)
    assert outcome.strategy == "first-five"
    assert outcome.evaluations == 5
    assert len(outcome.front.records) >= 1


def test_named_targets_resolve_and_validate():
    assert get_target("fft_joint").enumerable
    assert not get_target("fft_per_stage").enumerable
    with pytest.raises(ValueError, match="unknown search target"):
        get_target("nope")
    with pytest.raises(ValueError, match="not enumerable"):
        get_target("fft_per_stage").strategy("halving")


# --------------------------------------------------------------------------- #
# Registry experiment and sharded-run behaviour
# --------------------------------------------------------------------------- #
def test_registry_marks_the_search_experiment_unshardable():
    from repro.experiments import EXPERIMENTS

    assert not EXPERIMENTS["fft_heterogeneous_search"].shardable
    assert EXPERIMENTS["fft_joint_frontier"].shardable


def test_heterogeneous_search_experiment_reports_the_space(tmp_path):
    from repro.experiments.search_study import fft_heterogeneous_search

    result = fft_heterogeneous_search(reduced=True, population=6,
                                      generations=1, workers=1,
                                      store=tmp_path / "store")
    search = result.metadata["search"]
    assert search["space_size"] > 10 ** 6
    assert search["strategy"] == "nsga2"
    assert search["evaluations"] == len(result.rows)
    front = result.fronts["psnr_db_vs_total_energy_pj"]
    assert len(front.records) >= 1
    assert all("|" in row["genome"] for row in result.rows)
