"""Gene spaces: the genome encodings the evolutionary driver breeds over.

A :class:`GeneSpace` maps between genomes — small tuples of pool indices,
hashable and trivially comparable — and executable
:class:`~repro.core.designspace.DesignPoint` candidates.  Two encodings are
provided:

* :class:`EnumeratedGeneSpace` wraps any finite
  :class:`~repro.core.designspace.DesignSpace` (genome = one index), so the
  evolutionary driver runs on the same enumerable spaces the exhaustive
  engine sweeps — which is what the CI recall gate compares against.
* :class:`StagedGeneSpace` assigns one operator from a pool to each kernel
  stage (genome = one pool index per stage).  Word lengths ride along as
  genes because the pool mixes full-width exact/approximate adders with
  data-sized truncated/rounded ones — exactly the paper's
  sizing-versus-approximation axes, now assignable per stage.  Its
  enumeration size is ``len(pool) ** stages``, far beyond the exhaustive
  engine for realistic transforms (12 operators over the six stages of a
  64-point FFT is already ~3 million candidates).

All randomness flows through the caller's ``random.Random`` instance — the
module never touches global random state, wall clock or set iteration order.
"""
from __future__ import annotations

import math
from random import Random
from typing import List, Optional, Sequence, Tuple, Union

from ..core.designspace import DesignPoint, DesignSpace
from ..core.registry import parse_operator

Genome = Tuple[int, ...]

#: Axis label heterogeneous per-stage points carry in rows and dashboards.
AXIS_HETEROGENEOUS = "heterogeneous"

#: Default operator pool of the staged spaces: the exact baseline, the
#: careful-sizing axis (truncated and rounded outputs at representative
#: word lengths) and the functional-approximation families — one pool
#: spanning both of the paper's populations so the search decides, stage by
#: stage, which axis wins.
DEFAULT_STAGE_POOL: Tuple[str, ...] = (
    "ADD(16)",
    "ADDt(16,14)", "ADDt(16,12)", "ADDt(16,10)",
    "ADDr(16,12)", "ADDr(16,10)",
    "ACA(16,6)", "ACA(16,10)", "ACA(16,14)",
    "ETAIV(16,4)", "ETAIV(16,8)",
    "RCAApx(16,8,1)",
)


class GeneSpace:
    """Genome encoding contract the evolutionary driver works against."""

    #: Total number of distinct genomes (``None`` when unbounded).
    enumeration_size: Optional[int] = None

    def random_genome(self, rng: Random) -> Genome:
        raise NotImplementedError

    def mutate(self, genome: Genome, rng: Random) -> Genome:
        raise NotImplementedError

    def crossover(self, a: Genome, b: Genome, rng: Random) -> Genome:
        raise NotImplementedError

    def to_point(self, genome: Genome) -> DesignPoint:
        raise NotImplementedError


class EnumeratedGeneSpace(GeneSpace):
    """A finite design space as a one-gene genome (its point index)."""

    def __init__(self, space: Union[DesignSpace, Sequence[DesignPoint]]
                 ) -> None:
        self._points: List[DesignPoint] = list(DesignSpace.of(space))
        if not self._points:
            raise ValueError("cannot search an empty design space")
        self.enumeration_size = len(self._points)

    def random_genome(self, rng: Random) -> Genome:
        return (rng.randrange(len(self._points)),)

    def mutate(self, genome: Genome, rng: Random) -> Genome:
        if len(self._points) == 1:
            return genome
        index = rng.randrange(len(self._points) - 1)
        if index >= genome[0]:
            index += 1
        return (index,)

    def crossover(self, a: Genome, b: Genome, rng: Random) -> Genome:
        return a if rng.random() < 0.5 else b

    def to_point(self, genome: Genome) -> DesignPoint:
        return self._points[genome[0]]


class StagedGeneSpace(GeneSpace):
    """One operator gene per kernel stage, drawn from a shared pool.

    ``config_key`` names the per-point workload configuration key carrying
    the decoded per-stage operator spec strings (``"stage_adders"`` for the
    FFT, ``"pass_adders"`` for the DCT), which is how the genome reaches the
    functional simulation — and, because per-point configuration is part of
    the sweep's structural store key, how every genome gets its own replay
    record.
    """

    def __init__(self, pool: Sequence[str], stages: int,
                 config_key: str = "stage_adders") -> None:
        names = [str(spec) for spec in pool]
        if len(set(names)) != len(names):
            raise ValueError("operator pool contains duplicate specs")
        if not names:
            raise ValueError("operator pool is empty")
        if stages < 1:
            raise ValueError("need at least one stage")
        # Typos fail before any search runs; to_point reuses the operators.
        self._operators = tuple(parse_operator(spec) for spec in names)
        self.pool: Tuple[str, ...] = tuple(names)
        self.stages = int(stages)
        self.config_key = str(config_key)
        self.enumeration_size = len(self.pool) ** self.stages

    def random_genome(self, rng: Random) -> Genome:
        return tuple(rng.randrange(len(self.pool))
                     for _ in range(self.stages))

    def mutate(self, genome: Genome, rng: Random) -> Genome:
        """Resample one uniformly chosen stage to a *different* operator."""
        if len(self.pool) == 1:
            return genome
        stage = rng.randrange(self.stages)
        gene = rng.randrange(len(self.pool) - 1)
        if gene >= genome[stage]:
            gene += 1
        mutated = list(genome)
        mutated[stage] = gene
        return tuple(mutated)

    def crossover(self, a: Genome, b: Genome, rng: Random) -> Genome:
        """Uniform crossover: each stage inherits from either parent."""
        return tuple(a[s] if rng.random() < 0.5 else b[s]
                     for s in range(self.stages))

    def genome_names(self, genome: Genome) -> Tuple[str, ...]:
        return tuple(self.pool[gene] for gene in genome)

    def to_point(self, genome: Genome) -> DesignPoint:
        names = self.genome_names(genome)
        # The first stage's operator stands in as the point's swept label;
        # the genome itself travels in the per-point configuration, which
        # both executes it (the workload builds one context per stage) and
        # keys its store record.
        return DesignPoint(adder=self._operators[genome[0]],
                           role="operator",
                           axis=AXIS_HETEROGENEOUS,
                           config=((self.config_key, names),))


def as_gene_space(space: Union[GeneSpace, DesignSpace,
                               Sequence[DesignPoint]]) -> GeneSpace:
    """Coerce a design space (or gene space) into a gene space."""
    if isinstance(space, GeneSpace):
        return space
    return EnumeratedGeneSpace(space)


def per_stage_fft_space(size: int = 64,
                        pool: Optional[Sequence[str]] = None
                        ) -> StagedGeneSpace:
    """Heterogeneous FFT space: one adder per radix-2 stage.

    A size-``N`` transform has ``log2(N)`` stages; with the default
    12-operator pool a 64-point FFT spans ``12^6`` (~3 million) candidate
    datapaths — combinatorially out of reach for the exhaustive engine,
    which is precisely the space the evolutionary driver exists for.
    """
    if size < 2 or size & (size - 1) != 0:
        raise ValueError("FFT size must be a power of two >= 2")
    stages = int(math.log2(size))
    return StagedGeneSpace(pool if pool is not None else DEFAULT_STAGE_POOL,
                           stages=stages, config_key="stage_adders")


def per_pass_dct_space(pool: Optional[Sequence[str]] = None
                       ) -> StagedGeneSpace:
    """Heterogeneous 2-D DCT space: one adder per matrix pass (rows, cols)."""
    return StagedGeneSpace(pool if pool is not None else DEFAULT_STAGE_POOL,
                           stages=2, config_key="pass_adders")
