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

The functional model is a prefix form: the speculated carry into every block
is the carry generated by a window of ``speculation_blocks * X`` operand bits
(:func:`~repro.operators.bitops.windowed_carries`, Kogge-Stone doubling of
the window's group propagate), and all blocks are summed in one SWAR lane
add.  ``tests/oracles.py`` holds the block-by-block model it must match.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from ..base import AdderOperator
from ..bitops import mask, to_signed, to_unsigned, windowed_carries


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
        """Every block adds its operand bits and one speculated carry.

        The speculated carries are the windowed carries
        (:func:`~repro.operators.bitops.windowed_carries`) of window
        ``speculation_blocks * block_size``, kept at the block LSBs: block 0
        takes none, and a block whose window reaches bit 0 sees the full
        carry.  All blocks are then added in one SWAR lane add: the top bit
        of every block is masked off so no carry crosses into the next
        block, and those top bits are XORed back in afterwards.
        """
        n = self.input_width
        x = self._block_size
        ua = to_unsigned(a, n)
        ub = to_unsigned(b, n)
        lanes = self.block_count
        block_lsbs = sum(1 << (k * x) for k in range(1, lanes))
        block_msbs = sum(1 << (k * x + x - 1) for k in range(lanes))
        low = mask(n) ^ block_msbs
        carries = windowed_carries(ua, ub, n, self.speculation_window_bits())
        carries &= block_lsbs
        carries += ua & low
        carries += ub & low
        top_bits = ua ^ ub
        top_bits &= block_msbs
        carries ^= top_bits
        return to_signed(carries, n)

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
