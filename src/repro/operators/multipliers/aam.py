"""Approximate Array Multiplier (AAM) — Van, Wang, Feng, 2000.

AAM is a *fixed-width* array multiplier: ``N`` x ``N`` input bits produce an
``N``-bit output (the most significant half of the product).  Compared with a
full array, the cells below the main anti-diagonal of the partial-product
array are pruned, and a compensation term — derived with simple AND/OR logic
from the cells sitting on that diagonal — estimates the carries the pruned
triangle would have injected into the kept half.

The functional model works on the signed partial-product decomposition of the
two's-complement product (the Baugh-Wooley signs are carried by the cell
values), keeps the cells of weight ``>= 2**N``, and adds the compensation
estimated from the ``i + j = N - 1`` diagonal.  The result is the upper-half
product, bit-accurate with respect to this structural description.  The
removed cells are summed per row rather than per cell (O(N) vector passes
instead of O(N^2)), and the diagonal count is one popcount.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..base import MultiplierOperator
from ..bitops import mask, to_signed, to_unsigned


def _popcount(value: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(value).astype(np.int64)
    # SWAR fallback for NumPy < 2.0 (values here fit in 32 bits).
    x = value - ((value >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return (x * 0x01010101) >> 24


def _bit_reverse(value: np.ndarray, width: int) -> np.ndarray:
    """Reverse the low ``width`` bits of non-negative codes (width <= 32)."""
    x = value & mask(width)
    x = ((x & 0x55555555) << 1) | ((x >> 1) & 0x55555555)
    x = ((x & 0x33333333) << 2) | ((x >> 2) & 0x33333333)
    x = ((x & 0x0F0F0F0F) << 4) | ((x >> 4) & 0x0F0F0F0F)
    x = ((x & 0x00FF00FF) << 8) | ((x >> 8) & 0x00FF00FF)
    x = ((x & 0x0000FFFF) << 16) | ((x >> 16) & 0x0000FFFF)
    return x >> (32 - width)


class AAMMultiplier(MultiplierOperator):
    """Approximate (fixed-width, pruned, compensated) array multiplier ``AAM(N)``.

    Parameters
    ----------
    input_width:
        Operand width ``N``; the output is also ``N`` bits wide.
    compensation:
        Whether the diagonal-based carry compensation is applied.  Disabling
        it degenerates into a plainly pruned array (ablation target).
    """

    def __init__(self, input_width: int = 16, compensation: bool = True) -> None:
        super().__init__(input_width)
        self._compensation = bool(compensation)

    # ------------------------------------------------------------------ #
    # Descriptors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        suffix = "" if self._compensation else ",nocomp"
        return f"AAM({self.input_width}{suffix})"

    @property
    def compensation(self) -> bool:
        return self._compensation

    @property
    def output_width(self) -> int:
        return self.input_width

    @property
    def output_shift(self) -> int:
        return self.input_width

    @property
    def params(self) -> Dict[str, object]:
        return {
            "input_width": self.input_width,
            "compensation": self._compensation,
        }

    # ------------------------------------------------------------------ #
    # Functional model
    # ------------------------------------------------------------------ #
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.input_width
        ua = to_unsigned(a, n)
        ub = to_unsigned(b, n)
        # Signed value of the removed cells (columns i + j <= N - 1: the
        # pruned triangle plus the diagonal, which only contributes through
        # the compensation), summed per row instead of per cell.  Row 0 meets
        # every column, its cell (0, N-1) carrying the Baugh-Wooley minus, so
        # it sums to a_0 * signed(b); each middle row i holds the low N - i
        # bits of b; the sign row N - 1 only meets column 0, negatively.
        dropped = (ua & 1) * to_signed(ub, n)
        for i in range(1, n - 1):
            dropped = dropped + ((ua >> i) & 1) * ((ub & mask(n - i)) << i)
        dropped = dropped - ((((ua >> (n - 1)) & 1) * (ub & 1)) << (n - 1))
        kept = self.reference(a, b) - dropped
        if self._compensation:
            # Each asserted diagonal AND term statistically contributes half a
            # carry into column N; the AND/OR compensation circuit realises
            # ceil(count / 2), which is what the functional model uses.  The
            # diagonal a_i & b_(N-1-i) is one AND against b bit-reversed.
            diagonal = _popcount(ua & _bit_reverse(ub, n))
            kept = kept + (((diagonal + 1) >> 1) << n)
        return to_signed(kept >> n, n)

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def pruned_cell_count(self) -> int:
        """Number of AND cells removed from the full array (incl. diagonal)."""
        n = self.input_width
        return n * (n + 1) // 2

    def kept_cell_count(self) -> int:
        """Number of AND cells remaining in the array."""
        n = self.input_width
        return n * n - self.pruned_cell_count()
