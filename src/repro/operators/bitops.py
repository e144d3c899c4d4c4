"""Bit-level helpers shared by the operator models.

All operator models work on NumPy ``int64`` arrays holding two's-complement
codes.  These helpers extract bit fields, build masks and convert between
signed and unsigned views, which keeps the operator implementations short and
bit-accurate.
"""
from __future__ import annotations

from typing import Union

import numpy as np

IntLike = Union[int, np.ndarray]


def mask(width: int) -> int:
    """All-ones mask of ``width`` bits."""
    if width < 0:
        raise ValueError("width must be non-negative")
    return (1 << width) - 1


def to_unsigned(value: IntLike, width: int) -> np.ndarray:
    """Reinterpret two's-complement codes as unsigned ``width``-bit integers."""
    return np.asarray(value, dtype=np.int64) & mask(width)


def to_signed(value: IntLike, width: int) -> np.ndarray:
    """Reinterpret unsigned ``width``-bit integers as two's-complement codes."""
    arr = np.asarray(value, dtype=np.int64) & mask(width)
    sign_bit = 1 << (width - 1)
    return (arr ^ sign_bit) - sign_bit


def get_bit(value: IntLike, position: int) -> np.ndarray:
    """Extract the bit at ``position`` (LSB = 0) as 0/1."""
    return (np.asarray(value, dtype=np.int64) >> position) & 1


def windowed_sum(ua: np.ndarray, ub: np.ndarray, width: int,
                 depth: int) -> np.ndarray:
    """Unsigned ``width``-bit sum whose bit ``i`` sees only operand bits
    ``i - depth .. i`` (carry propagation limited to ``depth`` positions).

    Bits ``0 .. depth`` coincide with the full sum, because their windows
    reach bit 0.  Every higher bit ``i`` is bit ``depth`` of the operands
    shifted down by ``i - depth``: the addend bits above the window only
    carry upward, so they never reach bit ``depth``.
    """
    result = (ua + ub) & mask(min(depth + 1, width))
    for i in range(depth + 1, width):
        shift = i - depth
        result = result | ((((ua >> shift) + (ub >> shift)) >> depth) & 1) << i
    return result


def get_bits(value: IntLike, low: int, high: int) -> np.ndarray:
    """Extract the bit field ``[low, high]`` inclusive, aligned to bit 0."""
    if high < low:
        raise ValueError("high must be >= low")
    width = high - low + 1
    return (np.asarray(value, dtype=np.int64) >> low) & mask(width)


def set_bit(value: IntLike, position: int, bit: IntLike) -> np.ndarray:
    """Return ``value`` with the bit at ``position`` forced to ``bit``."""
    arr = np.asarray(value, dtype=np.int64)
    bit_arr = np.asarray(bit, dtype=np.int64) & 1
    cleared = arr & ~(1 << position)
    return cleared | (bit_arr << position)


def bit_matrix(value: IntLike, width: int) -> np.ndarray:
    """Expand codes into a ``(..., width)`` matrix of bits, LSB first."""
    arr = to_unsigned(value, width)
    shifts = np.arange(width, dtype=np.int64)
    return (arr[..., np.newaxis] >> shifts) & 1


def from_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Recombine an LSB-first bit matrix into unsigned integer codes."""
    bits = np.asarray(bits, dtype=np.int64)
    width = bits.shape[-1]
    weights = (np.int64(1) << np.arange(width, dtype=np.int64))
    return np.sum(bits * weights, axis=-1)


def popcount(value: IntLike, width: int) -> np.ndarray:
    """Number of set bits in the lowest ``width`` bits."""
    return np.sum(bit_matrix(value, width), axis=-1)


def hamming_distance(a: IntLike, b: IntLike, width: int) -> np.ndarray:
    """Bitwise Hamming distance over ``width`` bits."""
    diff = to_unsigned(a, width) ^ to_unsigned(b, width)
    return popcount(diff, width)


def sign_extend(value: IntLike, from_width: int, to_width: int) -> np.ndarray:
    """Sign-extend a ``from_width``-bit code to ``to_width`` bits (still int64).

    The returned array holds the signed value; callers that need the raw
    unsigned view can apply :func:`to_unsigned` with ``to_width``.
    """
    if to_width < from_width:
        raise ValueError("to_width must be >= from_width")
    return to_signed(value, from_width)
