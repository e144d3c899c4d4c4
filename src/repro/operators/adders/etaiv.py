"""Error-Tolerant Adders II and IV (Zhu et al.).

Both adders split the ``N``-bit addition into ``N / X`` blocks of ``X`` bits.
Every block computes an accurate local sum; the difference is how the carry
entering a block is speculated:

* **ETAII** — the carry into block ``k`` is the carry generated by block
  ``k - 1`` alone (computed with a zero carry-in), i.e. a one-block
  speculation window.
* **ETAIV** — the enhanced version used in the paper: the carry into block
  ``k`` is generated from the *two* previous blocks ``k-1`` and ``k-2``
  chained together (with a zero carry-in at the bottom of the window), which
  makes long-carry misses much rarer.

Errors appear only when a real carry chain crosses the speculation window,
which again gives the "fail rare" error profile described in the paper.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..base import AdderOperator
from ..bitops import mask, to_signed, to_unsigned


class _BlockCarrySpeculationAdder(AdderOperator):
    """Shared implementation of the block-based error-tolerant adders."""

    #: Number of previous blocks inspected to speculate the incoming carry.
    speculation_blocks: int = 1
    #: Short mnemonic used in the operator name.
    mnemonic: str = "ETAII"

    def __init__(self, input_width: int = 16, block_size: int = 4) -> None:
        super().__init__(input_width)
        if block_size < 1:
            raise ValueError("block size must be at least 1 bit")
        if input_width % block_size != 0:
            raise ValueError("input width must be a multiple of the block size")
        self._block_size = int(block_size)

    # ------------------------------------------------------------------ #
    # Descriptors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return f"{self.mnemonic}({self.input_width},{self._block_size})"

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def block_count(self) -> int:
        return self.input_width // self._block_size

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
            "block_size": self._block_size,
            "speculation_blocks": self.speculation_blocks,
        }

    # ------------------------------------------------------------------ #
    # Functional model
    # ------------------------------------------------------------------ #
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = self.input_width
        x = self._block_size
        ua = to_unsigned(a, n)
        ub = to_unsigned(b, n)
        # Block 0 takes no carry; each later block adds the carry out of its
        # speculation window (the previous blocks, zero carry-in at the
        # bottom).  Higher operand bits only carry upward, so a block's sum
        # needs no masking of the operands above it.
        result = (ua + ub) & mask(x)
        for k in range(1, self.block_count):
            low_bit = max(0, k - self.speculation_blocks) * x
            width = k * x - low_bit
            carry = ((((ua >> low_bit) & mask(width))
                      + ((ub >> low_bit) & mask(width))) >> width) & 1
            block = ((ua >> (k * x)) + (ub >> (k * x)) + carry) & mask(x)
            result = result | (block << (k * x))
        return to_signed(result, n)

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def speculation_window_bits(self) -> int:
        """Number of operand bits inspected to speculate each block carry."""
        return self.speculation_blocks * self._block_size


class ETAIIAdder(_BlockCarrySpeculationAdder):
    """``ETAII(N, X)`` — single-block carry speculation (predecessor design)."""

    speculation_blocks = 1
    mnemonic = "ETAII"


class ETAIVAdder(_BlockCarrySpeculationAdder):
    """``ETAIV(N, X)`` — two-block carry speculation, as used in the paper."""

    speculation_blocks = 2
    mnemonic = "ETAIV"
