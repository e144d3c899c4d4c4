"""Differential tests: the production operator models against the oracle.

Every functionally approximate operator evaluates a closed form; the
bit-serial structural models in ``tests/oracles.py`` are the reference.  The
closed forms must agree with them bit for bit:

* exhaustively at 8 bits, for a spread of configurations of every family;
* on hypothesis-drawn configurations and operands at the paper's 12- and
  16-bit widths, for scalar, array and coefficient-bank call shapes,
  through every execution backend, with operands both on the operator's
  grid and far outside it.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    ORACLE_FAMILIES,
    limited_carry_add,
    oracle_aligned,
    oracle_compute,
    seed_bit_error_metrics,
)
from repro.core import create_backend, parse_operator
from repro.metrics import bit_error_metrics
from repro.operators import (
    AAMMultiplier,
    ABMMultiplier,
    ACAAdder,
    ETAIIAdder,
    ETAIVAdder,
    RCAApxAdder,
)
from repro.operators.bitops import to_signed, windowed_sum

#: 8-bit configurations swept exhaustively, covering each family's knobs.
EIGHT_BIT_CONFIGS = (
    [f"ACA(8,{p})" for p in range(1, 9)]
    + [f"RCAApx(8,{m},{t})" for m in (0, 1, 3, 7, 8) for t in (1, 2, 3)]
    + [f"{eta}(8,{x})" for eta in ("ETAII", "ETAIV") for x in (1, 2, 4, 8)]
    + ["AAM(8)", "AAM(8, compensation=false)"]
    + [f"ABM(8, compensation={comp}, carry_window={window})"
       for comp in ("true", "false") for window in ("none", 1, 4, 7, 9)]
)

WIDTHS = (12, 16)
#: Far-off-grid operand bound: well past 16 bits, still exact in int64.
WILD = 1 << 24

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _divisors(n):
    return [x for x in range(1, n + 1) if n % x == 0]


#: The operator classes :func:`approximate_operators` draws from.
DRAWN = (ACAAdder, RCAApxAdder, ETAIIAdder, ETAIVAdder, AAMMultiplier,
         ABMMultiplier)


@st.composite
def approximate_operators(draw):
    """Any configuration of any family with an oracle, at 12 or 16 bits."""
    n = draw(st.sampled_from(WIDTHS))
    klass = draw(st.sampled_from(DRAWN))
    if klass is ACAAdder:
        return ACAAdder(n, draw(st.integers(1, n)))
    if klass is RCAApxAdder:
        return RCAApxAdder(n, draw(st.integers(0, n)),
                           draw(st.sampled_from((1, 2, 3))))
    if klass in (ETAIIAdder, ETAIVAdder):
        return klass(n, draw(st.sampled_from(_divisors(n))))
    if klass is AAMMultiplier:
        return AAMMultiplier(n, draw(st.booleans()))
    return ABMMultiplier(n, draw(st.booleans()),
                         draw(st.none() | st.integers(1, n)))


def _operand_values(draw, op):
    """Integers on the operator's grid, or (half the time) far outside it."""
    lo, hi = op.input_range()
    if draw(st.booleans()):
        lo, hi = -WILD, WILD
    return st.integers(lo, hi)


BACKENDS = ["direct"]


def _backends():
    return [create_backend(name) for name in BACKENDS]


class TestOracleCoverage(object):
    def test_every_oracle_family_is_drawn(self):
        for klass in ORACLE_FAMILIES:
            assert any(issubclass(drawn, klass) for drawn in DRAWN), klass


class TestExhaustive8Bit(object):
    @pytest.mark.parametrize("spec", EIGHT_BIT_CONFIGS)
    def test_closed_form_matches_oracle(self, spec):
        operator = parse_operator(spec)
        a, b = operator.exhaustive_inputs()
        assert np.array_equal(operator.aligned(a, b),
                              oracle_aligned(operator, a, b)), spec


class TestPaperWidths(object):
    @SETTINGS
    @given(data=st.data())
    def test_scalar_operands(self, data):
        op = data.draw(approximate_operators())
        values = _operand_values(data.draw, op)
        a, b = np.int64(data.draw(values)), np.int64(data.draw(values))
        expected = oracle_aligned(op, a, b)
        assert np.array_equal(op.aligned(a, b), expected), op.name
        for backend in _backends():
            got = backend.execute(op, a, b)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected), (op.name, backend.name)

    @SETTINGS
    @given(data=st.data())
    def test_array_operands(self, data):
        op = data.draw(approximate_operators())
        values = _operand_values(data.draw, op)
        size = data.draw(st.integers(1, 64))
        a = np.array(data.draw(st.lists(values, min_size=size,
                                        max_size=size)), dtype=np.int64)
        b = np.array(data.draw(st.lists(values, min_size=size,
                                        max_size=size)), dtype=np.int64)
        expected = oracle_aligned(op, a, b)
        assert np.array_equal(op.aligned(a, b), expected), op.name
        # A scalar constant partner, on either side.
        constant = np.int64(b[0])
        assert np.array_equal(op.aligned(a, constant),
                              oracle_aligned(op, a, constant)), op.name
        assert np.array_equal(op.aligned(constant, a),
                              oracle_aligned(op, constant, a)), op.name
        for backend in _backends():
            assert np.array_equal(backend.execute(op, a, b), expected), \
                (op.name, backend.name)
            assert np.array_equal(
                backend.execute(op, a, constant),
                oracle_aligned(op, a, constant)), (op.name, backend.name)

    @SETTINGS
    @given(data=st.data())
    def test_bank_operands(self, data):
        """A coefficient bank broadcast over data (FFT twiddles, DCT rows)."""
        op = data.draw(approximate_operators())
        values = _operand_values(data.draw, op)
        rows = data.draw(st.integers(1, 24))
        cells = data.draw(st.integers(1, 6))
        a = np.array(data.draw(st.lists(values, min_size=rows,
                                        max_size=rows)),
                     dtype=np.int64).reshape(rows, 1)
        bank = np.array(data.draw(st.lists(values, min_size=cells,
                                           max_size=cells)),
                        dtype=np.int64).reshape(1, cells)
        expected = oracle_aligned(op, a, bank)
        assert expected.shape == (rows, cells)
        assert np.array_equal(op.aligned(a, bank), expected), op.name
        for backend in _backends():
            got = backend.execute(op, a, bank)
            assert np.array_equal(got, expected), (op.name, backend.name)


def _speculating(klass, blocks):
    """ETA variant speculating over ``blocks`` previous blocks."""
    return type(f"{klass.__name__}x{blocks}", (klass,),
                {"speculation_blocks": blocks})


#: Seeded random operand pairs per width for the carry-window kernels.
RANDOM_PAIRS = 100_000


def _random_pairs(width, seed=2017):
    rng = np.random.default_rng(seed + width)
    return (rng.integers(0, 1 << width, RANDOM_PAIRS, dtype=np.int64),
            rng.integers(0, 1 << width, RANDOM_PAIRS, dtype=np.int64))


def _exhaustive_pairs(width):
    codes = np.arange(1 << width, dtype=np.int64)
    a, b = np.meshgrid(codes, codes)
    return a.ravel(), b.ravel()


class TestCarryWindowKernels(object):
    """The prefix kernels (windowed carries, SWAR lane add) against the
    bit-serial models: exhaustively at 8 bits, on seeded random pairs at 16
    and 32 bits."""

    @pytest.mark.parametrize("width", (8, 16, 32))
    def test_windowed_sum_every_depth(self, width):
        ua, ub = _exhaustive_pairs(width) if width == 8 \
            else _random_pairs(width)
        for depth in range(width + 1):
            assert np.array_equal(windowed_sum(ua, ub, width, depth),
                                  limited_carry_add(ua, ub, width, depth)), \
                (width, depth)

    @pytest.mark.parametrize("width", (8, 16, 32))
    @pytest.mark.parametrize("klass", (ETAIIAdder, ETAIVAdder))
    def test_eta_every_block_size_and_window(self, klass, width):
        ua, ub = _exhaustive_pairs(width) if width == 8 \
            else _random_pairs(width)
        a, b = to_signed(ua, width), to_signed(ub, width)
        for blocks in (1, 2, 3):
            for x in _divisors(width):
                op = _speculating(klass, blocks)(width, x)
                assert np.array_equal(op.compute(a, b),
                                      oracle_compute(op, a, b)), \
                    (op.name, blocks)

    # ABM's product model stops at 31 bits; 32-bit conversion adds are
    # covered by test_windowed_sum_every_depth.
    @pytest.mark.parametrize("width", (8, 16))
    def test_abm_every_carry_window(self, width):
        if width == 8:
            a, b = (to_signed(x, 8) for x in _exhaustive_pairs(8))
        else:
            a, b = (to_signed(x, width) for x in _random_pairs(width))
        for window in [None, *range(1, width + 1)]:
            for compensation in (True, False):
                op = ABMMultiplier(width, compensation, window)
                assert np.array_equal(op.compute(a, b),
                                      oracle_compute(op, a, b)), op.name

    @pytest.mark.parametrize("width", (16, 32))
    def test_bit_error_metrics_equal_bit_matrix_means(self, width):
        ua, ub = _random_pairs(width)
        # Sparse, clustered differences as well as uniform ones.
        for approximate in (ub, ua ^ (ub & (ub >> 3) & (ub >> 7))):
            ber, positional = bit_error_metrics(ua, approximate, width)
            seed_ber, seed_positional = seed_bit_error_metrics(
                ua, approximate, width)
            assert ber == seed_ber
            assert positional.dtype == seed_positional.dtype
            assert positional.tolist() == seed_positional.tolist()
