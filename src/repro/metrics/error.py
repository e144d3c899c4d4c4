"""Operator-level error metrics (the functional half of APXPERF).

All metrics are computed from the integer error ``e = x - x_hat`` between the
reference and approximate results on the reference grid, plus the raw output
codes for the bit-level metrics (BER, positional BER).  The normalisation
conventions follow the paper: values are interpreted as fractions of full
scale (Q1.15 for 16-bit adder data, Q2.30 for 16x16 products), so the MSE in
dB of a 16-bit adder that drops one LSB lands near -90 dB as in Figure 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..operators.base import Operator
from ..operators.bitops import to_unsigned


@dataclass(frozen=True)
class ErrorReport:
    """Complete error characterisation of one operator configuration."""

    operator: str
    family: str
    samples: int
    #: Mean squared error of the normalised (fraction-of-full-scale) error.
    mse: float
    #: Mean absolute error (normalised).
    mae: float
    #: Mean error, i.e. the bias (normalised).
    bias: float
    #: Largest and smallest signed error (normalised).
    max_error: float
    min_error: float
    #: Probability that the result differs from the reference at all.
    error_rate: float
    #: Mean relative error E[(x - x_hat) / x] over non-zero references.
    mean_relative_error: float
    #: Bit error rate over the reference-width output bits.
    ber: float
    #: Per-bit-position error probability, LSB first (reference grid).
    positional_ber: np.ndarray = field(repr=False)
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def mse_db(self) -> float:
        """MSE in decibels; ``-inf`` for an exact operator."""
        if self.mse <= 0.0:
            return float("-inf")
        return 10.0 * math.log10(self.mse)

    @property
    def rmse(self) -> float:
        return math.sqrt(self.mse)

    @property
    def is_exact(self) -> bool:
        return self.error_rate == 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "operator": self.operator,
            "family": self.family,
            "samples": self.samples,
            "mse": self.mse,
            "mse_db": self.mse_db,
            "mae": self.mae,
            "bias": self.bias,
            "max_error": self.max_error,
            "min_error": self.min_error,
            "error_rate": self.error_rate,
            "mean_relative_error": self.mean_relative_error,
            "ber": self.ber,
            "positional_ber": [float(v) for v in self.positional_ber],
            "params": dict(self.params),
        }


def mse(error: np.ndarray) -> float:
    """Mean squared error of an error array."""
    err = np.asarray(error, dtype=np.float64)
    if err.size == 0:
        raise ValueError("error array is empty")
    return float(np.mean(err ** 2))


def mse_db(error: np.ndarray) -> float:
    """Mean squared error in dB (``-inf`` when every error is zero)."""
    value = mse(error)
    if value <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(value)


def mean_absolute_error(error: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(error, dtype=np.float64))))


def bias(error: np.ndarray) -> float:
    return float(np.mean(np.asarray(error, dtype=np.float64)))


def error_rate(error: np.ndarray) -> float:
    """Probability of any deviation from the reference."""
    err = np.asarray(error)
    if err.size == 0:
        raise ValueError("error array is empty")
    return float(np.mean(err != 0))


def mean_relative_error(reference: np.ndarray, error: np.ndarray) -> float:
    """Mean of ``e / x`` over samples whose reference is non-zero."""
    ref = np.asarray(reference, dtype=np.float64)
    err = np.asarray(error, dtype=np.float64)
    nonzero = ref != 0
    if not np.any(nonzero):
        return 0.0
    return float(np.mean(err[nonzero] / ref[nonzero]))


def bit_error_metrics(reference: np.ndarray, approximate: np.ndarray,
                      width: int) -> Tuple[float, np.ndarray]:
    """BER and positional BER from one shared XOR diff.

    Every element of the two equally shaped arrays is one sample.  Each bit
    position's error count is taken straight from the diff word, without
    expanding it into a ``samples x width`` bit matrix: the positional BER
    is ``counts / samples`` (LSB first) and the BER is
    ``sum(counts) / (samples * width)``.  The counts are exact integers, so
    both equal the means of that bit matrix bit for bit.

    Raises :class:`ValueError` for mismatched shapes, empty input or
    ``width < 1``.
    """
    if width < 1:
        raise ValueError("width must be at least 1 bit")
    reference = np.asarray(reference)
    approximate = np.asarray(approximate)
    if reference.shape != approximate.shape:
        raise ValueError(f"shape mismatch: reference {reference.shape} "
                         f"vs approximate {approximate.shape}")
    if reference.size == 0:
        raise ValueError("no samples to compare")
    diff = to_unsigned(reference, width) ^ to_unsigned(approximate, width)
    bit = np.empty_like(diff)
    counts = [np.count_nonzero(np.bitwise_and(diff, 1 << i, out=bit))
              for i in range(width)]
    samples = diff.size
    positional = np.asarray(counts, dtype=np.float64) / samples
    return sum(counts) / (samples * width), positional


def bit_error_rate(reference: np.ndarray, approximate: np.ndarray,
                   width: int) -> float:
    """Average fraction of differing bits over ``width``-bit outputs."""
    return bit_error_metrics(reference, approximate, width)[0]


def positional_bit_error_rate(reference: np.ndarray, approximate: np.ndarray,
                              width: int) -> np.ndarray:
    """Per-bit-position error probability (LSB first)."""
    return bit_error_metrics(reference, approximate, width)[1]


def characterize_error(operator: Operator, samples: int = 100_000,
                       rng: Optional[np.random.Generator] = None,
                       a: Optional[np.ndarray] = None,
                       b: Optional[np.ndarray] = None) -> ErrorReport:
    """Run the functional characterisation of one operator.

    By default ``samples`` uniform random operand pairs are drawn (APXPERF
    uses random stimulus too); explicit operand arrays can be supplied to
    characterise an operator under an application-specific input
    distribution.
    """
    if a is None or b is None:
        if rng is None:
            rng = np.random.default_rng(12345)
        a, b = operator.random_inputs(samples, rng)
    else:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        samples = int(a.size)

    reference = np.asarray(operator.reference(a, b), dtype=np.int64)
    aligned = operator.aligned(a, b)
    error = reference - aligned
    normalized = error.astype(np.float64) * operator.result_lsb_weight
    width = operator.reference_width
    ber, positional_ber = bit_error_metrics(reference, aligned, width)

    return ErrorReport(
        operator=operator.name,
        family=operator.family,
        samples=samples,
        mse=mse(normalized),
        mae=mean_absolute_error(normalized),
        bias=bias(normalized),
        max_error=float(np.max(normalized)),
        min_error=float(np.min(normalized)),
        error_rate=error_rate(error),
        mean_relative_error=mean_relative_error(reference, error),
        ber=ber,
        positional_ber=positional_ber,
        params=dict(operator.params),
    )
