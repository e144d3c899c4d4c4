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


def _window_propagate(p: np.ndarray, depth: int) -> np.ndarray:
    """Bit ``j`` is the AND of ``p`` over bits ``j - depth + 1 .. j``.

    Binary doubling (Kogge & Stone, 1973): ``P_2k = P_k & (P_k << k)``,
    composed over the set bits of ``depth`` with
    ``P_(m+k) = P_m & (P_k << m)``.  Zeros shift in below bit 0, so a
    window that reaches below bit 0 never propagates.  ``depth >= 1``;
    ``p`` is consumed (updated in place).
    """
    span, k = p, 1
    window, covered = None, 0
    while True:
        if depth & k:
            if window is None:
                window = span if covered + k == depth else span.copy()
            else:
                window &= span << covered
            covered += k
        if covered == depth:
            return window
        span &= span << k
        k <<= 1


def windowed_carries(ua: np.ndarray, ub: np.ndarray, width: int,
                     depth: int) -> np.ndarray:
    """Carry into every bit ``i < width`` from operand bits
    ``i - depth .. i - 1`` alone, with a zero carry-in at the window bottom.

    With the propagate word ``p = ua ^ ub``, ``c = (ua + ub) ^ p`` holds the
    full-sum carry into every bit, and ``P_w`` (:func:`_window_propagate`)
    is the window's group propagate ending at each bit.  Group generate and
    group propagate are exclusive when ``p = a ^ b``, so the carry the
    window generates is exactly ``c & ~(P_w << 1)``: the full carry, unless
    the whole window propagates a carry that came from below it.  Windows
    that reach bit 0 see the full carry; ``depth >= width - 1`` gives the
    full-sum carries everywhere.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    # The words are fresh temporaries, updated in place.
    p = ua ^ ub
    carries = ua + ub
    carries ^= p
    carries &= mask(width)
    if depth >= width - 1:
        return carries
    if depth == 0:
        return np.zeros_like(carries)
    window = _window_propagate(p, depth)
    window <<= 1
    carries &= ~window
    return carries


def windowed_sum(ua: np.ndarray, ub: np.ndarray, width: int,
                 depth: int) -> np.ndarray:
    """Unsigned ``width``-bit sum whose bit ``i`` sees only operand bits
    ``i - depth .. i`` (carry propagation limited to ``depth`` positions).

    Bit ``i`` is ``a_i ^ b_i`` XOR the carry the ``depth`` bits below it
    generate (:func:`windowed_carries`); equivalently the full sum with the
    carries of fully propagating windows flipped back out,
    ``(ua + ub) ^ (c & (P_w << 1))``.  Bits ``0 .. depth`` coincide with the
    full sum, because their windows reach bit 0, so ``depth >= width - 1``
    is the full ``width``-bit sum and ``depth = 0`` the carry-free XOR.
    ``depth < 0`` raises :class:`ValueError`.
    """
    total = windowed_carries(ua, ub, width, depth)
    total ^= ua
    total ^= ub
    total &= mask(width)
    return total


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
