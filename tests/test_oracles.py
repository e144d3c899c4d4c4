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

from oracles import ORACLE_FAMILIES, oracle_aligned
from repro.core import create_backend, parse_operator
from repro.operators import (
    AAMMultiplier,
    ABMMultiplier,
    ACAAdder,
    ETAIIAdder,
    ETAIVAdder,
    RCAApxAdder,
)

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
