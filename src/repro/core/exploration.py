"""Operator sweeps: the configuration sets the paper characterises.

These helpers generate exactly the operator configuration sets swept in the
paper — truncated/rounded adders from 15 down to 2 output bits, every ACA
prediction depth, every ETAIV block size, every RCAApx (accurate-bits, cell
type) pair — plus the fixed-width multiplier set of Tables I, II, IV and
VI.  Pareto fronts over the resulting rows are
:class:`~repro.core.results.ParetoFront`'s job.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence

from ..operators.adders import (
    ACAAdder,
    ETAIIAdder,
    ETAIVAdder,
    RCAApxAdder,
    RoundedAdder,
    TruncatedAdder,
)
from ..operators.base import Operator
from ..operators.multipliers import (
    AAMMultiplier,
    ABMMultiplier,
    TruncatedMultiplier,
)


# --------------------------------------------------------------------------- #
# Adder sweeps (Figures 3, 4 and 5/6 of the paper)
# --------------------------------------------------------------------------- #
def sweep_truncated_adders(input_width: int = 16,
                           output_widths: Sequence[int] | None = None
                           ) -> List[Operator]:
    """``ADDt(N, k)`` for ``k`` from ``N - 1`` down to 2 (or a custom list)."""
    if output_widths is None:
        output_widths = range(input_width - 1, 1, -1)
    return [TruncatedAdder(input_width, k) for k in output_widths]


def sweep_rounded_adders(input_width: int = 16,
                         output_widths: Sequence[int] | None = None
                         ) -> List[Operator]:
    """``ADDr(N, k)`` for ``k`` from ``N - 1`` down to 2 (or a custom list)."""
    if output_widths is None:
        output_widths = range(input_width - 1, 1, -1)
    return [RoundedAdder(input_width, k) for k in output_widths]


def sweep_aca_adders(input_width: int = 16,
                     prediction_bits: Sequence[int] | None = None
                     ) -> List[Operator]:
    """``ACA(N, P)`` over every speculation depth."""
    if prediction_bits is None:
        prediction_bits = range(2, input_width)
    return [ACAAdder(input_width, p) for p in prediction_bits]


def sweep_etaiv_adders(input_width: int = 16,
                       block_sizes: Sequence[int] | None = None
                       ) -> List[Operator]:
    """``ETAIV(N, X)`` for every block size dividing the operand width."""
    if block_sizes is None:
        block_sizes = [x for x in range(1, input_width) if input_width % x == 0]
    return [ETAIVAdder(input_width, x) for x in block_sizes]


def sweep_etaii_adders(input_width: int = 16,
                       block_sizes: Sequence[int] | None = None
                       ) -> List[Operator]:
    """``ETAII(N, X)`` sweep (predecessor design, kept for comparison)."""
    if block_sizes is None:
        block_sizes = [x for x in range(1, input_width) if input_width % x == 0]
    return [ETAIIAdder(input_width, x) for x in block_sizes]


def sweep_rcaapx_adders(input_width: int = 16,
                        approximate_lsbs: Sequence[int] | None = None,
                        fa_types: Sequence[int] = (1, 2, 3)) -> List[Operator]:
    """``RCAApx(N, M, type)`` over approximate-LSB counts and cell types."""
    if approximate_lsbs is None:
        approximate_lsbs = range(2, input_width)
    return [RCAApxAdder(input_width, m, t) for t in fa_types for m in approximate_lsbs]


def unique_by_name(operators: Iterable[Operator]) -> List[Operator]:
    """Drop duplicate configurations (same ``name``), keeping first occurrence.

    Sweep helpers can be composed freely; deduplicating by name guarantees a
    sweep never evaluates — or charges the shared hardware-characterisation
    cache for — the same configuration twice.
    """
    seen = set()
    unique: List[Operator] = []
    for operator in operators:
        if operator.name not in seen:
            seen.add(operator.name)
            unique.append(operator)
    return unique


def default_adder_sweep(input_width: int = 16,
                        reduced: bool = False) -> List[Operator]:
    """The adder configurations plotted in Figures 3 and 4.

    ``reduced=True`` keeps a representative subset (used by
    ``repro run --reduced``); the full sweep mirrors the paper.
    """
    if reduced:
        widths, depths, blocks, lsbs = ([15, 12, 10, 8, 5, 2], [4, 8, 12],
                                        [2, 4, 8], [4, 8, 12])
    else:
        widths = depths = blocks = lsbs = None
    return unique_by_name([*sweep_truncated_adders(input_width, widths),
                           *sweep_rounded_adders(input_width, widths),
                           *sweep_aca_adders(input_width, depths),
                           *sweep_etaiv_adders(input_width, blocks),
                           *sweep_rcaapx_adders(input_width, lsbs)])


# --------------------------------------------------------------------------- #
# Multiplier sets (Tables I, II, IV and VI)
# --------------------------------------------------------------------------- #
def default_multiplier_set(input_width: int = 16) -> List[Operator]:
    """The fixed-width multiplier comparison set of Tables I, II and IV.

    Table VI sweeps it plus ``MULt(N, 4)``.
    """
    return [
        TruncatedMultiplier(input_width, input_width),
        AAMMultiplier(input_width),
        ABMMultiplier(input_width),
    ]
