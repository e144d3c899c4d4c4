"""Approximate Booth Multiplier (ABM) — Juang, Hsiao, 2005.

ABM is a *fixed-width*, radix-4 modified-Booth multiplier whose summand grid
is pruned: the columns belonging to the least-significant half of the product
are removed, and a compensation circuit built from the most significant bits
of the dropped part estimates the missing carries.  Because the Booth
recoding already halves the number of partial-product rows, the remaining
accumulation is shallow and fast — the paper reports ABM as the fastest
16-bit multiplier — but the error behaviour differs sharply from AAM.

Following the paper's description ("redundant representation can be
advantageously used to perform further calculation, hence the overhead of the
decoder can be neglected"), this model keeps the final conversion from the
carry-save (redundant) accumulation to two's complement *approximate*: the
last carry-propagate addition uses a limited carry window instead of a full
carry chain.  Long carries that cross the window produce large-amplitude
errors in the most significant bits, which is what makes ABM "fail moderate"
— moderate bit-error rate, catastrophic MSE — exactly the asymmetry Table I
of the paper reports.  The window length and the compensation circuit are
both configurable so their contributions can be ablated.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..base import MultiplierOperator
from ..bitops import to_signed, to_unsigned, windowed_sum
from .booth import booth_digit_count, booth_partial_products


class ABMMultiplier(MultiplierOperator):
    """Approximate (fixed-width, pruned, compensated) Booth multiplier ``ABM(N)``.

    Parameters
    ----------
    input_width:
        Operand width ``N``; the output is ``N`` bits wide (upper product half).
    compensation:
        Whether the dropped-column compensation is applied (ablation target).
    carry_window:
        Carry-propagation window of the approximate redundant-to-binary
        conversion.  ``None`` performs a full (exact) conversion, which is the
        "with decoder" variant of the design.
    """

    def __init__(self, input_width: int = 16, compensation: bool = True,
                 carry_window: int | None = 4) -> None:
        super().__init__(input_width)
        if carry_window is not None and carry_window < 1:
            raise ValueError("carry_window must be >= 1 or None")
        self._compensation = bool(compensation)
        self._carry_window = carry_window

    # ------------------------------------------------------------------ #
    # Descriptors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        suffix = ""
        if not self._compensation:
            suffix += ",nocomp"
        if self._carry_window is None:
            suffix += ",exactconv"
        return f"ABM({self.input_width}{suffix})"

    @property
    def compensation(self) -> bool:
        return self._compensation

    @property
    def carry_window(self) -> int | None:
        return self._carry_window

    @property
    def output_width(self) -> int:
        return self.input_width

    @property
    def output_shift(self) -> int:
        return self.input_width

    @property
    def row_count(self) -> int:
        """Number of Booth partial-product rows."""
        return booth_digit_count(self.input_width)

    @property
    def params(self) -> Dict[str, object]:
        return {
            "input_width": self.input_width,
            "compensation": self._compensation,
            "carry_window": self._carry_window,
        }

    # ------------------------------------------------------------------ #
    # Functional model
    # ------------------------------------------------------------------ #
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.input_width
        rows = booth_partial_products(a, b, n)

        # Prune each row below column N (fixed-width grid) and collect the
        # column N-1 bits that feed the compensation circuit.  Carry-save
        # accumulation of the kept rows: all rows but the last are reduced
        # exactly (the compressor tree), leaving two redundant vectors that
        # the (approximate) final conversion combines.
        kept = [row >> n for row in rows]
        comp_bits = sum((row >> (n - 1)) & 1 for row in rows)
        partial, last = (sum(kept[:-1]), kept[-1]) if len(kept) > 1 \
            else (kept[0], 0)
        # Free the rows before the conversion allocates its carry words.
        del rows, kept

        if self._compensation:
            # Each asserted column-(N-1) bit statistically carries half an LSB
            # into the kept half; the compensation adds ceil(count / 2).
            partial = partial + ((comp_bits + 1) >> 1)

        # The final conversion: a full carry-propagate add, or the
        # limited-carry (ACA-style) add of the approximate variant.
        if self._carry_window is None:
            return to_signed(partial + last, n)
        return to_signed(windowed_sum(to_unsigned(partial, n),
                                      to_unsigned(last, n),
                                      n, self._carry_window), n)
