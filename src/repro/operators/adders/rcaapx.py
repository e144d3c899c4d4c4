"""Approximate ripple-carry adder (RCAApx) with approximate full adders.

RCAApx — based on the IMPACT approximate mirror adders (Gupta et al.,
ISLPED 2011) — splits the adder into an accurate most-significant part and an
approximate least-significant part built from simplified full-adder cells.
The operator is configured by the operand width ``N``, the number of
*accurate* MSB result bits ``M`` and the approximate full-adder type
(1, 2 or 3, sorted by decreasing accuracy as in the paper).

The three approximate full-adder cells are modelled as truth tables.  They
are behavioural stand-ins for the transistor-level IMPACT cells: type 1 keeps
the carry exact and mis-computes the sum in two of the eight input
combinations; type 2 additionally approximates the carry; type 3 cuts the
carry chain entirely (carry = A, sum = B).  The "decreasing accuracy"
ordering stated in the paper is enforced by construction and verified in the
test-suite.  The truth tables feed the hardware builders; the functional
model evaluates each cell type in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..base import AdderOperator
from ..bitops import mask, to_signed, to_unsigned


@dataclass(frozen=True)
class FullAdderTruthTable:
    """A (possibly approximate) full-adder cell described by truth tables.

    ``sum_table`` and ``carry_table`` are 8-entry tuples indexed by the input
    combination ``(a << 2) | (b << 1) | cin``.
    """

    name: str
    sum_table: Tuple[int, ...]
    carry_table: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sum_table) != 8 or len(self.carry_table) != 8:
            raise ValueError("full-adder truth tables must have 8 entries")
        if any(v not in (0, 1) for v in self.sum_table + self.carry_table):
            raise ValueError("truth-table entries must be 0 or 1")

    def evaluate(self, a: np.ndarray, b: np.ndarray,
                 cin: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised cell evaluation; returns ``(sum, carry_out)``."""
        index = (np.asarray(a, dtype=np.int64) << 2) \
            | (np.asarray(b, dtype=np.int64) << 1) \
            | np.asarray(cin, dtype=np.int64)
        sum_lut = np.asarray(self.sum_table, dtype=np.int64)
        carry_lut = np.asarray(self.carry_table, dtype=np.int64)
        return sum_lut[index], carry_lut[index]

    def sum_error_count(self) -> int:
        """Number of input combinations whose sum output is wrong."""
        return sum(1 for i in range(8) if self.sum_table[i] != EXACT_FA.sum_table[i])

    def carry_error_count(self) -> int:
        """Number of input combinations whose carry output is wrong."""
        return sum(1 for i in range(8) if self.carry_table[i] != EXACT_FA.carry_table[i])


def _exact_tables() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    sums = []
    carries = []
    for index in range(8):
        a, b, cin = (index >> 2) & 1, (index >> 1) & 1, index & 1
        sums.append(a ^ b ^ cin)
        carries.append((a & b) | (a & cin) | (b & cin))
    return tuple(sums), tuple(carries)


_EXACT_SUM, _EXACT_CARRY = _exact_tables()

#: The accurate full adder (reference cell).
EXACT_FA = FullAdderTruthTable("FA", _EXACT_SUM, _EXACT_CARRY)

#: Type 1 — exact carry, sum wrong for (a, b, cin) in {(0,1,1), (1,0,0)}.
APPROX_FA_TYPE1 = FullAdderTruthTable(
    "ApproxFA1",
    sum_table=(0, 1, 1, 1, 0, 0, 0, 1),
    carry_table=_EXACT_CARRY,
)

#: Type 2 — carry approximated as ``a | b``, sum as the complement of that carry.
APPROX_FA_TYPE2 = FullAdderTruthTable(
    "ApproxFA2",
    sum_table=(1, 1, 0, 0, 0, 0, 0, 0),
    carry_table=(0, 0, 1, 1, 1, 1, 1, 1),
)

#: Type 3 — carry chain cut: carry = a, sum = b.
APPROX_FA_TYPE3 = FullAdderTruthTable(
    "ApproxFA3",
    sum_table=(0, 0, 1, 1, 0, 0, 1, 1),
    carry_table=(0, 0, 0, 0, 1, 1, 1, 1),
)

APPROX_FA_TYPES = {
    1: APPROX_FA_TYPE1,
    2: APPROX_FA_TYPE2,
    3: APPROX_FA_TYPE3,
}


class RCAApxAdder(AdderOperator):
    """Approximate ripple-carry adder ``RCAApx(N, M, type)``.

    Parameters
    ----------
    input_width:
        Operand width ``N``.
    approximate_lsbs:
        Number of LSB result bits ``M`` produced by approximate cells; the
        remaining ``N - M`` MSBs use accurate full adders.  The paper's text
        is ambiguous about whether ``M`` counts the accurate or the
        approximate part, but its application tables (III and V) only make
        sense with ``RCAApx(16, 6, 3)`` having *six approximate LSBs* — it
        outperforms every other approximate adder there — so that is the
        interpretation implemented here (and recorded in EXPERIMENTS.md).
    fa_type:
        Approximate full-adder type used in the LSB part (1, 2 or 3, sorted by
        decreasing accuracy).
    """

    def __init__(self, input_width: int = 16, approximate_lsbs: int = 8,
                 fa_type: int = 1) -> None:
        super().__init__(input_width)
        if not 0 <= approximate_lsbs <= input_width:
            raise ValueError("approximate_lsbs must lie in [0, input_width]")
        if fa_type not in APPROX_FA_TYPES:
            raise ValueError(f"fa_type must be one of {sorted(APPROX_FA_TYPES)}")
        self._approximate_bits = int(approximate_lsbs)
        self._fa_type = int(fa_type)

    # ------------------------------------------------------------------ #
    # Descriptors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return f"RCAApx({self.input_width},{self._approximate_bits},{self._fa_type})"

    @property
    def accurate_bits(self) -> int:
        """Number of MSB result bits produced by accurate full adders."""
        return self.input_width - self._approximate_bits

    @property
    def approximate_bits(self) -> int:
        """Number of LSB result bits produced by approximate cells."""
        return self._approximate_bits

    @property
    def fa_type(self) -> int:
        return self._fa_type

    @property
    def approximate_cell(self) -> FullAdderTruthTable:
        return APPROX_FA_TYPES[self._fa_type]

    @property
    def output_width(self) -> int:
        return self.input_width

    @property
    def output_shift(self) -> int:
        return 0

    @property
    def params(self) -> Dict[str, object]:
        return {
            "input_width": self.input_width,
            "approximate_lsbs": self._approximate_bits,
            "fa_type": self._fa_type,
        }

    # ------------------------------------------------------------------ #
    # Functional model
    # ------------------------------------------------------------------ #
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Every approximate cell admits a closed form, so the ripple through
        # the M approximate cells collapses into a few whole-word passes.
        n = self.input_width
        m = self._approximate_bits
        ua = to_unsigned(a, n)
        ub = to_unsigned(b, n)
        if m == 0:
            return to_signed(ua + ub, n)
        if self._fa_type == 1:
            # Exact carry chain, so the carry into each bit is that of the
            # exact sum; the sum output flips on (0,1,cin=1) and (1,0,cin=0).
            total = ua + ub
            cin = total ^ ua ^ ub
            flips = ((~ua & ub & cin) | (ua & ~ub & ~cin)) & mask(m)
            return to_signed(total ^ flips, n)
        if self._fa_type == 2:
            # The cell ignores its carry-in: sum = ~(a|b), carry = a|b.
            low = ~(ua | ub) & mask(m)
            carry_in = ((ua | ub) >> (m - 1)) & 1
        else:
            # Type 3 cuts the chain: sum = b, carry = a.
            low = ub & mask(m)
            carry_in = (ua >> (m - 1)) & 1
        if m >= n:
            # All cells approximate (type 3 then reads b alone): keep the
            # broadcast shape of both operands.
            return to_signed(np.broadcast_to(low, np.broadcast(ua, ub).shape), n)
        high = (ua >> m) + (ub >> m) + carry_in
        return to_signed(low | (high << m), n)
