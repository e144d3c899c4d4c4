"""Instrumented 8x8 fixed-point DCT (the JPEG encoder's main kernel).

The two-dimensional DCT-II is computed as ``C · X · C^T`` with the cosine
matrix quantised to the datapath word length and every multiply-accumulate
routed through the :class:`~repro.core.context.ApproxContext` supplied by the
caller.  This is the kernel whose operators the paper swaps in the JPEG
experiment (Figure 6).

Blocks are processed in batches: the transform accepts a ``(blocks, 8, 8)``
array and executes each matrix pass *stage-fused*: every dot-product step of
the pass runs as one batched multiplier call with the cosine column broadcast
over the blocks, followed by one batched adder call for the accumulation.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.context import ApproxContext
from ..core.datapath import OperationCounts

BLOCK_SIZE = 8


def dct_matrix(block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Orthonormal DCT-II basis matrix (floating point)."""
    n = block_size
    matrix = np.zeros((n, n), dtype=np.float64)
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        matrix[k, :] = scale * np.cos((2 * np.arange(n) + 1) * k * np.pi / (2 * n))
    return matrix


class FixedPointDCT:
    """8x8 DCT / inverse DCT on fixed-point data with a swappable context.

    On the default 16-bit datapath, level-shifted pixels are represented as
    Q10.5 codes (five fractional bits): the 2-D DCT of an 8x8 block of
    values in ``[-128, 127]`` stays within ``[-1024, 1016]``, so the
    representation uses the full 16-bit datapath without overflowing while
    keeping sub-pixel resolution.  The cosine coefficients are Q1.14;
    products are re-aligned to the data grid after each multiplication and
    accumulations run through the adder model.

    Narrower word lengths (the design-space word-length axis) shrink both
    alignments with the datapath — pixels keep ``data_width - 11``
    fractional bits (the 11-bit DCT dynamic range is preserved down to
    11-bit words, below which the transform saturates its range and quality
    collapses, as a real undersized datapath would), and coefficients keep
    ``data_width - 2`` fractional bits.  At 16 bits both reduce to the
    paper's Q10.5 / Q1.14 exactly.
    """

    def __init__(self, data_width: int = 16,
                 context: Optional[ApproxContext] = None,
                 block_size: int = BLOCK_SIZE,
                 pass_contexts: Optional[Sequence[ApproxContext]] = None
                 ) -> None:
        if context is None:
            context = ApproxContext(data_width=data_width)
        elif context.data_width != data_width:
            raise ValueError(
                f"context word length ({context.data_width} bits) does not "
                f"match the requested datapath ({data_width} bits)")
        self.block_size = block_size
        self.context = context
        # Heterogeneous datapath: one context per matrix pass (rows, then
        # columns) of the 2-D transform, for per-pass operator assignment.
        self.pass_contexts: Optional[List[ApproxContext]] = None
        if pass_contexts is not None:
            contexts = list(pass_contexts)
            if len(contexts) != 2:
                raise ValueError(
                    f"expected 2 pass contexts (row pass, column pass), "
                    f"got {len(contexts)}")
            for index, pass_ctx in enumerate(contexts):
                if pass_ctx.data_width != data_width:
                    raise ValueError(
                        f"pass {index} context word length "
                        f"({pass_ctx.data_width} bits) does not match the "
                        f"datapath ({data_width} bits)")
            self.pass_contexts = contexts
        self.data_width = context.data_width
        self.pixel_frac_bits = max(0, self.data_width - 11)
        self.coeff_frac_bits = max(2, self.data_width - 2)
        basis = dct_matrix(block_size)
        self._coeffs = np.round(basis * (1 << self.coeff_frac_bits)).astype(np.int64)
        self._basis_float = basis

    @property
    def adder(self):
        """Adder model executing the accumulations."""
        return self.context.adder

    @property
    def multiplier(self):
        """Multiplier model executing the coefficient multiplications."""
        return self.context.multiplier

    # ------------------------------------------------------------------ #
    # Instrumented arithmetic
    # ------------------------------------------------------------------ #
    def _matmul(self, coeffs: np.ndarray, data: np.ndarray,
                ctx: Optional[ApproxContext] = None) -> np.ndarray:
        """``coeffs @ data`` per block, through the context's operators.

        ``data`` has shape ``(blocks, n, columns)``; the result has shape
        ``(blocks, n, columns)`` where row ``r`` is the instrumented dot
        product of coefficient row ``r`` with the data rows.
        """
        if ctx is None:
            ctx = self.context
        blocks, n, columns = data.shape
        # One batched call per dot-product step — data row k against
        # coefficient column k (every output row at once) — followed by one
        # batched accumulation, so each output row accumulates its terms in
        # k order.  Working one step at a time keeps the products / terms /
        # accumulator working set cache-resident; an all-steps-in-one-call
        # shape materialises an n-times-larger products array whose wrap
        # and accumulation passes stream from main memory.
        accumulator = np.zeros((blocks, n, columns), dtype=np.int64)
        for k in range(n):
            operands = data[:, np.newaxis, k, :]
            bank = coeffs[np.newaxis, :, k, np.newaxis]
            products = ctx.mul(operands, bank)
            term = ctx.wrap(products >> self.coeff_frac_bits)
            accumulator = ctx.add(accumulator, term)
        return accumulator

    # ------------------------------------------------------------------ #
    # Transforms
    # ------------------------------------------------------------------ #
    def forward(self, blocks: np.ndarray) -> np.ndarray:
        """2-D DCT of level-shifted pixel blocks; returns Q10.5 codes.

        ``blocks`` is either one ``(8, 8)`` block or a ``(count, 8, 8)``
        batch; the output has the same shape.  Operation counts accumulate
        on the context's counter.
        """
        data = np.asarray(blocks, dtype=np.int64)
        single = data.ndim == 2
        if single:
            data = data[np.newaxis, :, :]
        codes = data << self.pixel_frac_bits
        row_ctx, col_ctx = self.pass_contexts \
            if self.pass_contexts is not None else (None, None)
        temp = self._matmul(self._coeffs, codes, ctx=row_ctx)
        transposed = np.transpose(temp, (0, 2, 1))
        result = np.transpose(
            self._matmul(self._coeffs, transposed, ctx=col_ctx), (0, 2, 1))
        return result[0] if single else result

    def forward_float(self, block: np.ndarray) -> np.ndarray:
        """Double-precision reference DCT of one block."""
        data = np.asarray(block, dtype=np.float64)
        return self._basis_float @ data @ self._basis_float.T

    def inverse_float(self, coefficients: np.ndarray) -> np.ndarray:
        """Double-precision inverse DCT (used by the JPEG decoder model)."""
        data = np.asarray(coefficients, dtype=np.float64)
        if data.ndim == 2:
            return self._basis_float.T @ data @ self._basis_float
        # Stacked dgemms are substantially faster than the equivalent einsum
        # for full-image batches.
        return np.matmul(np.matmul(self._basis_float.T, data),
                         self._basis_float)

    def to_float(self, codes: np.ndarray) -> np.ndarray:
        """Convert Q10.5 DCT codes back to real coefficient values."""
        return np.asarray(codes, dtype=np.float64) / (1 << self.pixel_frac_bits)

    def operation_counts(self, blocks: int = 1) -> OperationCounts:
        """Operation inventory of transforming ``blocks`` 8x8 blocks."""
        n = self.block_size
        per_block = 2 * n * n * n
        return OperationCounts(additions=per_block * blocks,
                               multiplications=per_block * blocks)

    def pass_operation_counts(self, blocks: int = 1) -> List[OperationCounts]:
        """Per-pass operation inventory: the two matrix passes split evenly."""
        n = self.block_size
        per_pass = n * n * n * blocks
        return [OperationCounts(additions=per_pass, multiplications=per_pass)
                for _ in range(2)]
