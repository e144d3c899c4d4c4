"""Tests for the bit-manipulation helpers shared by the operator models."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators import bitops

int16 = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)


class TestMaskAndViews:
    def test_mask(self):
        assert bitops.mask(0) == 0
        assert bitops.mask(4) == 0b1111
        with pytest.raises(ValueError):
            bitops.mask(-1)

    def test_to_unsigned_of_negative(self):
        assert bitops.to_unsigned(-1, 8) == 255
        assert bitops.to_unsigned(-128, 8) == 128

    def test_to_signed_of_high_code(self):
        assert bitops.to_signed(255, 8) == -1
        assert bitops.to_signed(127, 8) == 127

    @settings(max_examples=60)
    @given(value=int16)
    def test_unsigned_signed_roundtrip(self, value):
        assert bitops.to_signed(bitops.to_unsigned(value, 16), 16) == value


class TestBitAccess:
    def test_get_bit(self):
        assert bitops.get_bit(0b1010, 1) == 1
        assert bitops.get_bit(0b1010, 0) == 0

    def test_get_bits_field(self):
        assert bitops.get_bits(0b110110, 1, 3) == 0b011

    def test_get_bits_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            bitops.get_bits(3, 4, 2)

    def test_set_bit(self):
        assert bitops.set_bit(0b1000, 0, 1) == 0b1001
        assert bitops.set_bit(0b1001, 3, 0) == 0b0001

    def test_bit_matrix_roundtrip(self):
        values = np.array([0, 1, 5, 255])
        bits = bitops.bit_matrix(values, 8)
        assert bits.shape == (4, 8)
        assert np.array_equal(bitops.from_bit_matrix(bits), values)

    def test_popcount(self):
        assert bitops.popcount(0b1011, 8) == 3
        assert np.array_equal(bitops.popcount(np.array([0, 255]), 8), [0, 8])

    def test_hamming_distance(self):
        assert bitops.hamming_distance(0b1010, 0b0101, 4) == 4
        assert bitops.hamming_distance(7, 7, 8) == 0

    def test_sign_extend(self):
        assert bitops.sign_extend(0b1111, 4, 8) == -1
        assert bitops.sign_extend(0b0111, 4, 8) == 7
        with pytest.raises(ValueError):
            bitops.sign_extend(1, 8, 4)

    def test_windowed_sum_rejects_negative_depth(self):
        codes = np.array([3, 200], dtype=np.int64)
        with pytest.raises(ValueError, match="depth"):
            bitops.windowed_sum(codes, codes, 8, -1)
        with pytest.raises(ValueError, match="depth"):
            bitops.windowed_carries(codes, codes, 8, -1)

    @settings(max_examples=60)
    @given(a=st.integers(0, 255), b=st.integers(0, 255),
           depth=st.integers(7, 12))
    def test_windowed_sum_from_width_minus_one_is_the_full_sum(self, a, b,
                                                              depth):
        ua, ub = np.array([a]), np.array([b])
        assert bitops.windowed_sum(ua, ub, 8, depth)[0] == (a + b) & 0xFF

    def test_windowed_sum_depth_zero_is_carry_free(self):
        ua = np.array([0b0111, 0b1111], dtype=np.int64)
        ub = np.array([0b0001, 0b0001], dtype=np.int64)
        assert bitops.windowed_sum(ua, ub, 4, 0).tolist() == [0b0110, 0b1110]
        # One bit of window: the carry out of 0b0111's bit 0 reaches bit 1 only.
        assert bitops.windowed_sum(ua, ub, 4, 1).tolist() == [0b0100, 0b1100]

    @settings(max_examples=60)
    @given(a=int16, b=int16)
    def test_hamming_distance_symmetry(self, a, b):
        assert bitops.hamming_distance(a, b, 16) == bitops.hamming_distance(b, a, 16)
