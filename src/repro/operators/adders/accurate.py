"""Accurate and carefully-sized (truncated / rounded) fixed-point adders.

These are the "careful data sizing" operators of the paper:

* :class:`ExactAdder` — the full-width accurate adder used as reference.
* :class:`TruncatedAdder` (``ADDt``) — operands lose their LSBs by truncation
  and a *narrower* accurate adder performs the sum.
* :class:`RoundedAdder` (``ADDr``) — same, with round-half-up quantisation.
* :class:`RoundToNearestEvenAdder` — convergent-rounding extension (not in
  the paper's plots, kept for the rounding-mode ablation).

The energy advantage of these operators comes from the reduced bit-width: the
physical adder really is ``output_width`` bits wide, and everything downstream
(transfers, storage, subsequent operators) shrinks with it.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ...fxp.quantize import RoundingMode, drop_lsbs, saturate_to_width
from ..base import AdderOperator


class ExactAdder(AdderOperator):
    """Accurate ``N``-bit adder (modular two's-complement sum)."""

    def __init__(self, input_width: int = 16) -> None:
        super().__init__(input_width)

    @property
    def name(self) -> str:
        return f"ADD({self.input_width})"

    @property
    def output_width(self) -> int:
        return self.input_width

    @property
    def output_shift(self) -> int:
        return 0

    @property
    def params(self) -> Dict[str, object]:
        return {"input_width": self.input_width}

    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reference(a, b)


class QuantizedOutputAdder(AdderOperator):
    """Shared implementation of the data-sized (``ADDt`` / ``ADDr``) adders.

    The accurate ``N``-bit sum is computed and its ``N - output_width`` LSBs
    are eliminated with the configured rounding mode, so the output LSB weighs
    ``2**dropped_bits`` reference LSBs.  This matches the paper's
    ``ADDt(16, k)`` naming — 16-bit inputs, ``k``-bit output — and avoids the
    overflow artefacts a pre-quantised narrow adder would exhibit under
    full-range random stimulus.

    The *hardware* cost charged for these operators (see
    ``repro.hardware``) is that of a ``output_width``-bit adder: in a sized
    datapath the quantisation happens once at the producing operator's output,
    and every consumer physically works on the narrow data.  Rounding may push
    the result one code past full scale; that single overflow case is
    saturated, as a real rounding stage would.
    """

    #: Rounding mode applied when eliminating the LSBs.
    rounding_mode: RoundingMode = RoundingMode.TRUNCATE
    #: Short mnemonic used in the operator name.
    mnemonic: str = "ADDt"

    def __init__(self, input_width: int = 16, output_width: int = 16) -> None:
        super().__init__(input_width)
        if not 2 <= output_width <= input_width:
            raise ValueError("output width must lie in [2, input_width]")
        self._output_width = int(output_width)

    @property
    def name(self) -> str:
        return f"{self.mnemonic}({self.input_width},{self.output_width})"

    @property
    def output_width(self) -> int:
        return self._output_width

    @property
    def dropped_bits(self) -> int:
        """Number of LSBs removed from each operand."""
        return self.input_width - self._output_width

    @property
    def output_shift(self) -> int:
        return self.dropped_bits

    @property
    def params(self) -> Dict[str, object]:
        return {
            "input_width": self.input_width,
            "output_width": self._output_width,
            "rounding": self.rounding_mode.value,
        }

    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        total = self.reference(a, b)
        reduced = np.asarray(drop_lsbs(total, self.dropped_bits, self.rounding_mode))
        return np.asarray(
            saturate_to_width(reduced, self._output_width), dtype=np.int64
        )


class TruncatedAdder(QuantizedOutputAdder):
    """``ADDt(N, k)``: accurate sum truncated to its ``k`` most significant bits."""

    rounding_mode = RoundingMode.TRUNCATE
    mnemonic = "ADDt"


class RoundedAdder(QuantizedOutputAdder):
    """``ADDr(N, k)``: accurate sum rounded to its ``k`` most significant bits."""

    rounding_mode = RoundingMode.ROUND
    mnemonic = "ADDr"


class RoundToNearestEvenAdder(QuantizedOutputAdder):
    """Convergent-rounding variant (ablation extension, unbiased quantisation)."""

    rounding_mode = RoundingMode.ROUND_TO_NEAREST_EVEN
    mnemonic = "ADDrne"
