"""HEVC motion-compensation (fractional interpolation) filter, instrumented.

HEVC predicts a block from a reference picture at fractional-pixel motion
vectors; the fractional positions are produced by separable interpolation
filters — the 8-tap luma filters standardised in HEVC (quarter-, half- and
three-quarter-pel) and 4-tap chroma filters.  The paper swaps the additions
and multiplications of this kernel for approximate or data-sized operators
and measures the MSSIM of the interpolated image against the exact filter
output (Tables III and IV).

The multiplications are by small constant coefficients, which is why the
datapath model charges them as constant-coefficient multiplications.  By
default every non-zero tap of a phase is evaluated in one *stage-fused*
context call with the taps broadcast over the stacked sample windows;
``fused=False`` replays the seed-style per-tap loop, bit-identical and with
the same operation counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.context import ApproxContext
from ..core.datapath import OperationCounts
from ..metrics.image import mssim

#: HEVC luma interpolation filter coefficients (8 taps) per fractional phase.
LUMA_FILTERS: Dict[int, Tuple[int, ...]] = {
    0: (0, 0, 0, 64, 0, 0, 0, 0),
    1: (-1, 4, -10, 58, 17, -5, 1, 0),
    2: (-1, 4, -11, 40, 40, -11, 4, -1),
    3: (0, 1, -5, 17, 58, -10, 4, -1),
}

#: HEVC chroma interpolation filter coefficients (4 taps) for phase 1/8..4/8.
CHROMA_FILTERS: Dict[int, Tuple[int, ...]] = {
    0: (0, 64, 0, 0),
    1: (-2, 58, 10, -2),
    2: (-4, 54, 16, -2),
    3: (-6, 46, 28, -4),
    4: (-4, 36, 36, -4),
}

#: Normalisation shift of the HEVC interpolation filters (coefficients sum to 64).
FILTER_SHIFT = 6


@dataclass(frozen=True)
class McFilterResult:
    """Interpolated image plus the operation inventory of the run."""

    interpolated: np.ndarray
    counts: OperationCounts


class MotionCompensationFilter:
    """Separable HEVC fractional interpolation through an ApproxContext."""

    def __init__(self, data_width: int = 16,
                 context: Optional[ApproxContext] = None,
                 fused: bool = True) -> None:
        if context is None:
            context = ApproxContext(data_width=data_width)
        elif context.data_width != data_width:
            raise ValueError(
                f"context word length ({context.data_width} bits) does not "
                f"match the requested datapath ({data_width} bits)")
        self.context = context
        self.data_width = context.data_width
        self.fused = bool(fused)

    @property
    def adder(self):
        """Adder model executing the tap accumulations."""
        return self.context.adder

    @property
    def multiplier(self):
        """Multiplier model executing the coefficient multiplications."""
        return self.context.multiplier

    # ------------------------------------------------------------------ #
    # Instrumented arithmetic
    # ------------------------------------------------------------------ #
    @property
    def _input_shift(self) -> int:
        """LSBs dropped from the 8-bit pixels on a narrow datapath.

        The per-tap terms ``pixel * coefficient`` span ~15 bits, so a
        datapath narrower than 16 bits cannot carry full-precision pixels
        without wrapping; a sized implementation quantises the input
        instead.  Zero on the default 16-bit datapath.
        """
        return max(0, 16 - self.data_width)

    @property
    def _pixel_shift(self) -> int:
        """Left-alignment of the (quantised) pixels onto the datapath grid.

        Seven bits on the default 16-bit datapath; narrower word lengths
        (the design-space word-length axis) shrink the alignment — and with
        it the precision headroom — exactly as a sized implementation
        would.
        """
        return max(0, self.data_width - 9)

    @property
    def _coeff_shift(self) -> int:
        """Left-alignment of the signed 8-bit filter coefficients."""
        return max(0, self.data_width - 8)

    def _mac(self, accumulator: np.ndarray, samples: np.ndarray,
             coefficient: int) -> np.ndarray:
        if coefficient == 0:
            return accumulator
        ctx = self.context
        scaled_samples = np.asarray(samples, dtype=np.int64) << self._pixel_shift
        product = ctx.mul(scaled_samples, int(coefficient) << self._coeff_shift)
        # Re-align the product to plain pixel*coefficient units; the HEVC
        # intermediate values then fit the 16-bit accumulation by design.
        term = ctx.wrap(product >> (self._pixel_shift + self._coeff_shift))
        return ctx.add(accumulator, term)

    def _filter_axis(self, image: np.ndarray, taps: Tuple[int, ...],
                     axis: int) -> np.ndarray:
        """Apply one 1-D filter along ``axis`` with edge padding."""
        radius_before = len(taps) // 2 - 1
        radius_after = len(taps) - 1 - radius_before
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius_before, radius_after)
        padded = np.pad(image, pad, mode="edge").astype(np.int64)

        def window(index: int) -> np.ndarray:
            if axis == 0:
                return padded[index:index + image.shape[0], :]
            return padded[:, index:index + image.shape[1]]

        accumulator = np.zeros(image.shape, dtype=np.int64)
        if self.fused:
            # Stage-fused: every non-zero tap's product in one batched call
            # (zero taps are skipped exactly as the seed-style loop skips
            # them, so operation counts match), then one accumulation per
            # tap in the same order.
            active = [(index, coefficient) for index, coefficient
                      in enumerate(taps) if coefficient != 0]
            if not active:
                return accumulator >> FILTER_SHIFT
            ctx = self.context
            stacked = np.stack([window(index) for index, _ in active])
            bank = np.asarray([coefficient << self._coeff_shift
                               for _, coefficient in active],
                              dtype=np.int64).reshape(-1, 1, 1)
            products = ctx.mul(stacked << self._pixel_shift, bank)
            terms = ctx.wrap(products >> (self._pixel_shift + self._coeff_shift))
            for tap in range(len(active)):
                accumulator = ctx.add(accumulator, terms[tap])
            return accumulator >> FILTER_SHIFT
        for index, coefficient in enumerate(taps):
            accumulator = self._mac(accumulator, window(index), coefficient)
        return accumulator >> FILTER_SHIFT

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def interpolate(self, image: np.ndarray, horizontal_phase: int = 2,
                    vertical_phase: int = 2) -> McFilterResult:
        """Interpolate an 8-bit image at the requested fractional phases."""
        if horizontal_phase not in LUMA_FILTERS or vertical_phase not in LUMA_FILTERS:
            raise ValueError("phases must be one of the quarter-pel positions 0..3")
        start = self.context.counts
        # A narrow datapath quantises the input pixels onto its grid (the
        # word-length axis quality cost); the default 16-bit width keeps
        # them untouched.
        samples = np.asarray(image, dtype=np.int64) >> self._input_shift

        result = samples
        if horizontal_phase != 0:
            result = self._filter_axis(result, LUMA_FILTERS[horizontal_phase],
                                       axis=1)
        if vertical_phase != 0:
            result = self._filter_axis(result, LUMA_FILTERS[vertical_phase],
                                       axis=0)
        clipped = np.clip(result << self._input_shift, 0, 255)
        return McFilterResult(interpolated=clipped,
                              counts=self.context.counts_since(start))

    def reference_interpolate(self, image: np.ndarray, horizontal_phase: int = 2,
                              vertical_phase: int = 2,
                              reference_width: Optional[int] = None
                              ) -> np.ndarray:
        """Exact integer reference of the same interpolation.

        ``reference_width`` selects the word length of the reference
        datapath; it defaults to this filter's own width (the paper's
        iso-width comparison).  Word-length studies pass the full 16-bit
        width so an undersized exact datapath shows its own quality cost.
        """
        width = self.data_width if reference_width is None \
            else int(reference_width)
        exact = MotionCompensationFilter(
            width,
            context=ApproxContext(data_width=width,
                                  backend=self.context.backend),
            fused=self.fused)
        return exact.interpolate(image, horizontal_phase, vertical_phase).interpolated


def mc_quality_score(image: np.ndarray,
                     context: Optional[ApproxContext] = None,
                     horizontal_phase: int = 2, vertical_phase: int = 2,
                     fused: bool = True,
                     reference_width: Optional[int] = None
                     ) -> Tuple[float, OperationCounts]:
    """MSSIM of the approximate MC filter output against the exact one.

    ``reference_width`` (default: the context's own word length) sets the
    datapath width of the exact reference — see
    :meth:`MotionCompensationFilter.reference_interpolate`.
    """
    ctx = context if context is not None else ApproxContext()
    mc = MotionCompensationFilter(data_width=ctx.data_width, context=ctx,
                                  fused=fused)
    approx = mc.interpolate(image, horizontal_phase, vertical_phase)
    reference = mc.reference_interpolate(image, horizontal_phase,
                                         vertical_phase,
                                         reference_width=reference_width)
    score = mssim(reference.astype(np.float64),
                  approx.interpolated.astype(np.float64))
    return score, approx.counts
