"""Almost Correct Adder (ACA) — Verma, Brisk, Ienne, DATE 2008.

ACA is a speculative adder: each output bit ``i`` is produced by an accurate
sub-adder that only looks at the ``P + 1`` operand bits ``i .. i-P`` instead
of the full carry chain.  The speculation fails whenever a carry chain longer
than ``P`` crosses position ``i - P``, which is rare for random operands but
produces a large-amplitude ("fail rare / fail moderate") error.

The functional model below evaluates this definition in closed form — bits up
to the prediction depth come from the full sum, each higher bit from one
shifted add (:func:`~repro.operators.bitops.windowed_sum`) — bit-accurate and
vectorised over NumPy arrays; the matching hardware structure (one small
sub-adder per output bit, heavily shared in practice) is modelled in
``repro.hardware.builders``.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..base import AdderOperator
from ..bitops import to_signed, to_unsigned, windowed_sum


class ACAAdder(AdderOperator):
    """Almost Correct Adder ``ACA(N, P)``.

    Parameters
    ----------
    input_width:
        Operand width ``N``.
    prediction_bits:
        Carry-prediction depth ``P``: each output bit uses the accurate sum of
        the ``P + 1`` operand bits at and below its own position.
    """

    def __init__(self, input_width: int = 16, prediction_bits: int = 4) -> None:
        super().__init__(input_width)
        if not 1 <= prediction_bits <= input_width:
            raise ValueError("prediction_bits must lie in [1, input_width]")
        self._prediction_bits = int(prediction_bits)

    # ------------------------------------------------------------------ #
    # Descriptors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return f"ACA({self.input_width},{self._prediction_bits})"

    @property
    def prediction_bits(self) -> int:
        return self._prediction_bits

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
            "prediction_bits": self._prediction_bits,
        }

    # ------------------------------------------------------------------ #
    # Functional model
    # ------------------------------------------------------------------ #
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.input_width
        return to_signed(windowed_sum(to_unsigned(a, n), to_unsigned(b, n),
                                      n, self._prediction_bits), n)

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def speculation_failed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Boolean mask of operand pairs for which the speculation is wrong."""
        return self.error(a, b) != 0

    def worst_case_error_magnitude(self) -> int:
        """Upper bound of the absolute integer error (reference-grid LSBs).

        A failed speculation flips output bits at positions ``>= P``; the
        error magnitude is bounded by the weight of the affected bits.
        """
        n = self.input_width
        p = self._prediction_bits
        return (1 << n) - (1 << p)
