"""Instrumented fixed-point radix-2 FFT (the paper's first application).

The transform operates on 16-bit two's-complement data (Q1.15) and routes
every addition/subtraction and every twiddle multiplication through the
:class:`~repro.core.context.ApproxContext` supplied by the caller, counting
operations along the way so the datapath energy model (Equation 1) can charge
them.  Per-stage scaling by 1/2 keeps the butterflies overflow-free, which is
the classical fixed-point FFT arrangement.

Execution is *stage-fused*: each of the ``log2(size)`` stages issues ten
batched context calls covering every butterfly at once, with the stage's
twiddle column broadcast over the whole block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.context import ApproxContext
from ..core.datapath import OperationCounts


@dataclass(frozen=True)
class FftResult:
    """Fixed-point FFT output with the operation inventory of the run."""

    real: np.ndarray
    imag: np.ndarray
    counts: OperationCounts

    def as_complex(self, frac_bits: int = 15) -> np.ndarray:
        """Reassemble the output into complex floating-point values."""
        scale = 2.0 ** (-frac_bits)
        return (self.real.astype(np.float64) + 1j * self.imag.astype(np.float64)) * scale


class FixedPointFFT:
    """Radix-2 decimation-in-time FFT on 16-bit fixed-point data.

    Parameters
    ----------
    size:
        Transform length (a power of two; the paper uses 32).
    data_width:
        Word length of the datapath (16 bits in every experiment).
    context:
        The :class:`ApproxContext` executing the additions and twiddle
        multiplications.  ``None`` selects the exact fixed-point baseline
        (accurate adder, fixed-width truncated multiplier, direct backend).
    stage_contexts:
        Optional per-stage contexts — one per ``log2(size)`` stage — for
        heterogeneous datapaths that assign a different operator to each
        stage (the design-space search's per-stage axis).  All contexts
        must share the transform's word length; stage ``s`` executes every
        butterfly of stage ``s`` through ``stage_contexts[s]``, and the
        result's counts aggregate across the distinct contexts.
    """

    def __init__(self, size: int = 32, data_width: int = 16,
                 context: Optional[ApproxContext] = None,
                 stage_contexts: Optional[Sequence[ApproxContext]] = None
                 ) -> None:
        if size < 2 or size & (size - 1) != 0:
            raise ValueError("FFT size must be a power of two >= 2")
        if context is None:
            context = ApproxContext(data_width=data_width)
        elif context.data_width != data_width:
            raise ValueError(
                f"context word length ({context.data_width} bits) does not "
                f"match the requested datapath ({data_width} bits)")
        self.size = size
        self.context = context
        self.data_width = context.data_width
        self.frac_bits = context.frac_bits
        self.stage_contexts: Optional[List[ApproxContext]] = None
        if stage_contexts is not None:
            stages = int(math.log2(size))
            contexts = list(stage_contexts)
            if len(contexts) != stages:
                raise ValueError(
                    f"expected {stages} stage contexts for a size-{size} "
                    f"transform, got {len(contexts)}")
            for stage, stage_ctx in enumerate(contexts):
                if stage_ctx.data_width != self.data_width:
                    raise ValueError(
                        f"stage {stage} context word length "
                        f"({stage_ctx.data_width} bits) does not match the "
                        f"datapath ({self.data_width} bits)")
            self.stage_contexts = contexts
        self._twiddles = self._quantized_twiddles()

    @property
    def adder(self):
        """Adder model executing the butterfly additions."""
        return self.context.adder

    @property
    def multiplier(self):
        """Multiplier model executing the twiddle multiplications."""
        return self.context.multiplier

    # ------------------------------------------------------------------ #
    # Twiddle factors
    # ------------------------------------------------------------------ #
    def _quantized_twiddles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Twiddle factors W_N^k quantised to the data word length."""
        k = np.arange(self.size // 2)
        angle = -2.0 * np.pi * k / self.size
        scale = (1 << self.frac_bits) - 1
        real = np.round(np.cos(angle) * scale).astype(np.int64)
        imag = np.round(np.sin(angle) * scale).astype(np.int64)
        return real, imag

    # ------------------------------------------------------------------ #
    # Instrumented arithmetic
    # ------------------------------------------------------------------ #
    def _mul(self, ctx: ApproxContext, a: np.ndarray, twiddle) -> np.ndarray:
        """Q1.15 x Q1.15 product re-aligned to Q1.15 (shift by frac_bits)."""
        product = ctx.mul(a, twiddle)
        return ctx.wrap(product >> self.frac_bits)

    @staticmethod
    def _halve(value: np.ndarray) -> np.ndarray:
        """Per-stage scaling by 1/2 (arithmetic shift, free in hardware)."""
        return np.asarray(value, dtype=np.int64) >> 1

    # ------------------------------------------------------------------ #
    # Transform
    # ------------------------------------------------------------------ #
    @staticmethod
    def _bit_reverse_permutation(size: int) -> np.ndarray:
        bits = int(math.log2(size))
        indices = np.arange(size)
        reversed_indices = np.zeros(size, dtype=np.int64)
        for bit in range(bits):
            reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
        return reversed_indices

    def forward(self, real: np.ndarray,
                imag: Optional[np.ndarray] = None) -> FftResult:
        """Run the transform on Q1.(data_width-1) integer codes."""
        contexts = self.stage_contexts
        starting: List[Tuple[ApproxContext, OperationCounts]] = []
        seen_ids = set()
        for stage_ctx in (contexts if contexts is not None else [self.context]):
            if id(stage_ctx) not in seen_ids:
                seen_ids.add(id(stage_ctx))
                starting.append((stage_ctx, stage_ctx.counts))
        x_re = np.asarray(real, dtype=np.int64).copy()
        x_im = np.zeros_like(x_re) if imag is None \
            else np.asarray(imag, dtype=np.int64).copy()
        if x_re.shape != (self.size,):
            raise ValueError(f"expected {self.size} samples, got {x_re.shape}")

        order = self._bit_reverse_permutation(self.size)
        x_re, x_im = x_re[order], x_im[order]
        tw_re, tw_im = self._twiddles

        half = 1
        stage = 0
        while half < self.size:
            ctx = contexts[stage] if contexts is not None else self.context
            stage += 1
            step = self.size // (2 * half)
            # Every butterfly of the stage in one batched pass: rows are
            # twiddle offsets, columns are the groups sharing that twiddle,
            # and the twiddle column broadcasts over the whole
            # (half, groups) block.
            offsets = np.arange(half, dtype=np.int64)
            starts = np.arange(0, self.size, 2 * half, dtype=np.int64)
            tops = offsets[:, None] + starts[None, :]
            bottoms = tops + half
            k = offsets * step
            w_re = tw_re[k][:, None]
            w_im = tw_im[k][:, None]

            # Pre-scale both branches to keep the butterfly in range.
            a_re, a_im = self._halve(x_re[tops]), self._halve(x_im[tops])
            b_re, b_im = self._halve(x_re[bottoms]), self._halve(x_im[bottoms])

            # Complex twiddle multiplication (4 real mult, 2 real add).
            prod_re = ctx.sub(self._mul(ctx, b_re, w_re),
                              self._mul(ctx, b_im, w_im))
            prod_im = ctx.add(self._mul(ctx, b_re, w_im),
                              self._mul(ctx, b_im, w_re))

            # Butterfly combine (4 real additions).
            x_re[tops] = ctx.add(a_re, prod_re)
            x_im[tops] = ctx.add(a_im, prod_im)
            x_re[bottoms] = ctx.sub(a_re, prod_re)
            x_im[bottoms] = ctx.sub(a_im, prod_im)
            half *= 2

        total = OperationCounts()
        for stage_ctx, start in starting:
            total = total + stage_ctx.counts_since(start)
        return FftResult(real=x_re, imag=x_im, counts=total)

    # ------------------------------------------------------------------ #
    # References
    # ------------------------------------------------------------------ #
    def reference_spectrum(self, real: np.ndarray,
                           imag: Optional[np.ndarray] = None) -> np.ndarray:
        """Double-precision FFT with the same 1/N scaling as the datapath."""
        scale = 2.0 ** (-self.frac_bits)
        x = np.asarray(real, dtype=np.float64) * scale
        if imag is not None:
            x = x + 1j * np.asarray(imag, dtype=np.float64) * scale
        return np.fft.fft(x) / self.size

    def operation_counts(self) -> OperationCounts:
        """Operation inventory of one transform (independent of the data)."""
        stages = int(math.log2(self.size))
        butterflies = stages * self.size // 2
        return OperationCounts(additions=6 * butterflies,
                               multiplications=4 * butterflies)

    def stage_operation_counts(self) -> List[OperationCounts]:
        """Per-stage operation inventory of one transform.

        Every radix-2 stage executes ``size / 2`` butterflies (6 additions
        and 4 twiddle multiplications each), so the stages split the total
        of :meth:`operation_counts` evenly — the accounting a heterogeneous
        per-stage datapath charges stage by stage.
        """
        stages = int(math.log2(self.size))
        butterflies = self.size // 2
        return [OperationCounts(additions=6 * butterflies,
                                multiplications=4 * butterflies)
                for _ in range(stages)]


def random_q15_signal(size: int, amplitude: float = 0.5,
                      seed: int = 7, frac_bits: int = 15) -> np.ndarray:
    """Uniform random test signal as Q1.(frac_bits) integer codes."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-amplitude, amplitude, size=size)
    return np.round(values * (1 << frac_bits)).astype(np.int64)
