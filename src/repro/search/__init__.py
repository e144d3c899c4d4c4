"""Adaptive design-space search over the DesignSpace/ParetoFront engine.

Two drivers behind one :class:`~repro.search.strategy.SearchStrategy`
protocol — :class:`~repro.search.halving.SuccessiveHalving` for enumerable
spaces (reduced-stimulus rung, multi-objective rank, full-density
survivors) and :class:`~repro.search.evolutionary.EvolutionarySearch`
(NSGA-II: non-dominated sort + crowding, operator/word-length genes) for
spaces that cannot be enumerated, such as the per-stage heterogeneous
datapaths of :func:`~repro.search.genes.per_stage_fft_space`.  Entry point:
``Study().pareto(...).search(strategy)`` or the ``repro search`` CLI.
"""
from .evaluator import SearchEvaluator, search_row
from .evolutionary import EvolutionarySearch
from .genes import (
    DEFAULT_STAGE_POOL,
    EnumeratedGeneSpace,
    GeneSpace,
    StagedGeneSpace,
    as_gene_space,
    per_pass_dct_space,
    per_stage_fft_space,
)
from .halving import SuccessiveHalving
from .rank import (
    crowding_distance,
    dominates,
    non_dominated_sort,
    rank_population,
    ranked_order,
)
from .strategy import STRATEGY_NAMES, SearchOutcome, SearchStrategy
from .targets import SEARCH_TARGETS, SearchTarget, get_target

__all__ = [
    "DEFAULT_STAGE_POOL",
    "EnumeratedGeneSpace",
    "EvolutionarySearch",
    "GeneSpace",
    "STRATEGY_NAMES",
    "SEARCH_TARGETS",
    "SearchEvaluator",
    "SearchOutcome",
    "SearchStrategy",
    "SearchTarget",
    "StagedGeneSpace",
    "SuccessiveHalving",
    "as_gene_space",
    "crowding_distance",
    "dominates",
    "get_target",
    "non_dominated_sort",
    "per_pass_dct_space",
    "per_stage_fft_space",
    "rank_population",
    "ranked_order",
    "search_row",
]
