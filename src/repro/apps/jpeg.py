"""Minimal JPEG encoder / decoder model built on the instrumented DCT.

The pipeline follows the baseline JPEG luminance path: 8x8 block split, level
shift, 2-D DCT, quantisation with the standard luminance table scaled by the
quality factor, zig-zag scan and run-length coding (for the size estimate),
then the decoder mirror (dequantisation, inverse DCT, level shift).  Only the
*forward DCT* uses the approximate / data-sized operators — exactly the
experiment of Figure 6 — so the quality difference between two runs isolates
the arithmetic approximation.

The encoder consumes one :class:`~repro.core.context.ApproxContext`; the
coded-size estimate is evaluated for the whole image in one vectorised pass
(:func:`estimate_coded_bits_blocks`), bit-identical to the per-block
run-length reference kept for unit tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.context import ApproxContext
from ..core.datapath import OperationCounts
from ..metrics.image import mssim
from .dct import BLOCK_SIZE, FixedPointDCT
from .images import pad_to_multiple

#: Standard JPEG luminance quantisation table (Annex K of the specification).
LUMINANCE_QUANTIZATION_TABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def quality_scaled_table(quality: int) -> np.ndarray:
    """Luminance table scaled for an IJG-style quality factor in [1, 100]."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must lie in [1, 100]")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((LUMINANCE_QUANTIZATION_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def zigzag_order(block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Zig-zag scan indices for a ``block_size`` x ``block_size`` block."""
    indices = []
    for s in range(2 * block_size - 1):
        diagonal = [(i, s - i) for i in range(block_size)
                    if 0 <= s - i < block_size]
        if s % 2 == 0:
            diagonal.reverse()
        indices.extend(diagonal)
    flat = [i * block_size + j for i, j in indices]
    return np.asarray(flat, dtype=np.int64)


def run_length_encode(values: np.ndarray) -> List[Tuple[int, int]]:
    """(zero-run, value) pairs of a zig-zagged coefficient block."""
    pairs: List[Tuple[int, int]] = []
    run = 0
    for value in np.asarray(values, dtype=np.int64):
        if value == 0:
            run += 1
            continue
        pairs.append((run, int(value)))
        run = 0
    pairs.append((0, 0))  # end-of-block marker
    return pairs


def estimate_coded_bits(pairs: List[Tuple[int, int]]) -> int:
    """Rough size estimate of a run-length coded block (category coding)."""
    bits = 0
    for run, value in pairs:
        magnitude_bits = int(abs(value)).bit_length()
        bits += 4 + 4 + magnitude_bits  # run nibble + size nibble + amplitude
    return bits


def estimate_coded_bits_blocks(blocks: np.ndarray) -> np.ndarray:
    """Per-block coded-size estimates for a batch, in one vectorised pass.

    Bit-identical to chaining :func:`run_length_encode` and
    :func:`estimate_coded_bits` on each zig-zagged block: every nonzero
    coefficient costs its run/size nibbles plus its magnitude bits, the
    end-of-block marker costs one empty pair, and the scan order does not
    change the total.
    """
    values = np.asarray(blocks, dtype=np.int64).reshape(len(blocks), -1)
    magnitude = np.abs(values)
    # bit_length via the base-2 exponent: |v| = m * 2**e with 0.5 <= m < 1,
    # so e is exactly bit_length(|v|) for positive |v| (and 0 for zero).
    bit_lengths = np.frexp(magnitude.astype(np.float64))[1]
    nonzero = np.count_nonzero(magnitude, axis=1)
    return 8 * (nonzero + 1) + bit_lengths.sum(axis=1)


@dataclass(frozen=True)
class JpegResult:
    """Outcome of one encode/decode round trip."""

    reconstructed: np.ndarray
    counts: OperationCounts
    estimated_bits: int

    @property
    def estimated_bytes(self) -> int:
        return (self.estimated_bits + 7) // 8


class JpegEncoder:
    """Baseline JPEG model whose forward DCT runs through an ApproxContext."""

    def __init__(self, quality: int = 90,
                 context: Optional[ApproxContext] = None,
                 data_width: int = 16,
                 pass_contexts: Optional[Sequence[ApproxContext]] = None
                 ) -> None:
        self.quality = quality
        self.table = quality_scaled_table(quality)
        self.dct = FixedPointDCT(data_width=data_width, context=context,
                                 pass_contexts=pass_contexts)
        self.context = self.dct.context

    def _counting_contexts(self) -> List[ApproxContext]:
        """Distinct contexts whose counters this encoder charges."""
        if self.dct.pass_contexts is None:
            return [self.context]
        contexts: List[ApproxContext] = []
        for ctx in self.dct.pass_contexts:
            if all(ctx is not seen for seen in contexts):
                contexts.append(ctx)
        return contexts

    def encode_decode(self, image: np.ndarray) -> JpegResult:
        """Encode then decode an 8-bit grayscale image."""
        contexts = self._counting_contexts()
        starting = [(ctx, ctx.counts) for ctx in contexts]
        padded = pad_to_multiple(np.asarray(image, dtype=np.float64), BLOCK_SIZE)
        rows, cols = padded.shape
        block_rows = rows // BLOCK_SIZE
        block_cols = cols // BLOCK_SIZE

        # Gather every 8x8 block into one batch so the instrumented DCT runs
        # a single vectorised pass over the whole image.
        blocks = (padded.reshape(block_rows, BLOCK_SIZE, block_cols, BLOCK_SIZE)
                  .transpose(0, 2, 1, 3)
                  .reshape(-1, BLOCK_SIZE, BLOCK_SIZE)) - 128.0
        codes = self.dct.forward(blocks.astype(np.int64))
        coefficients = self.dct.to_float(codes)
        quantized = np.round(coefficients / self.table)

        total_bits = int(estimate_coded_bits_blocks(quantized).sum())

        dequantized = quantized * self.table
        restored = self.dct.inverse_float(dequantized) + 128.0
        reconstructed = (restored.reshape(block_rows, block_cols, BLOCK_SIZE, BLOCK_SIZE)
                         .transpose(0, 2, 1, 3)
                         .reshape(rows, cols))

        cropped = np.clip(reconstructed[: image.shape[0], : image.shape[1]], 0, 255)
        counts = OperationCounts()
        for ctx, start in starting:
            counts = counts + ctx.counts_since(start)
        return JpegResult(reconstructed=cropped,
                          counts=counts,
                          estimated_bits=total_bits)


def jpeg_quality_score(image: np.ndarray, quality: int = 90,
                       context: Optional[ApproxContext] = None
                       ) -> Tuple[float, OperationCounts]:
    """MSSIM between the exact-DCT and approximate-DCT encoded images.

    This is exactly the quality axis of Figure 6: the exact fixed-point
    encoder is the reference, the context under test produces the distorted
    version, and MSSIM measures how much of the structure survives.
    """
    candidate_context = context if context is not None else ApproxContext()
    reference = JpegEncoder(
        quality=quality,
        context=candidate_context.exact_reference()).encode_decode(image)
    candidate = JpegEncoder(quality=quality,
                            context=candidate_context).encode_decode(image)
    score = mssim(reference.reconstructed, candidate.reconstructed)
    return score, candidate.counts
