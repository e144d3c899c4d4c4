"""Bit-serial reference models of the functionally approximate operators.

The operators in ``repro.operators`` evaluate closed forms: a handful of
whole-word shift/mask passes per call.  The models here are the structural
descriptions those closed forms were derived from — one window sum per ACA
output bit, one truth-table cell per RCAApx bit, one speculated carry per ETA
block, one AND cell per AAM partial product, one windowed bit per ABM
conversion output.  They are slow and obviously faithful to each operator's
definition, which makes them the oracle the differential tests compare the
production models against.

Operators without an entry (the exact and data-sized operators, BOOTH) are
already written as their definition; :func:`oracle_compute` returns their
own ``compute``.
"""
import numpy as np

from repro.fxp.quantize import restore_lsbs, wrap_to_width
from repro.operators import (
    AAMMultiplier,
    ABMMultiplier,
    ACAAdder,
    RCAApxAdder,
)
from repro.operators.adders.etaiv import _BlockCarrySpeculationAdder
from repro.operators.bitops import get_bit, mask, to_signed, to_unsigned
from repro.operators.multipliers.booth import booth_partial_products


def aca_compute(op, a, b):
    """Each output bit ``i`` is bit ``i - low`` of its own window sum."""
    n, p = op.input_width, op.prediction_bits
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    result = np.zeros_like(ua)
    for i in range(n):
        low = max(0, i - p)
        wa = (ua >> low) & mask(i - low + 1)
        wb = (ub >> low) & mask(i - low + 1)
        result |= (((wa + wb) >> (i - low)) & 1) << i
    return to_signed(result, n)


def rcaapx_compute(op, a, b):
    """Ripple through the approximate cells' truth tables, then exact FAs."""
    n = op.input_width
    cell = op.approximate_cell
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    result = np.zeros_like(ua)
    carry = np.zeros_like(ua)
    for i in range(n):
        bit_a, bit_b = get_bit(ua, i), get_bit(ub, i)
        if i < op.approximate_bits:
            s, carry = cell.evaluate(bit_a, bit_b, carry)
        else:
            total = bit_a + bit_b + carry
            s, carry = total & 1, total >> 1
        result |= s << i
    return to_signed(result, n)


def eta_compute(op, a, b):
    """Each masked block adds the carry out of its masked speculation window."""
    n, x = op.input_width, op.block_size
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    result = np.zeros_like(ua)
    for k in range(op.block_count):
        carry_in = np.zeros_like(ua)
        if k:
            first = max(0, k - op.speculation_blocks)
            width = (k - first) * x
            wa = (ua >> (first * x)) & mask(width)
            wb = (ub >> (first * x)) & mask(width)
            carry_in = ((wa + wb) >> width) & 1
        block_sum = ((ua >> (k * x)) & mask(x)) + ((ub >> (k * x)) & mask(x)) \
            + carry_in
        result |= (block_sum & mask(x)) << (k * x)
    return to_signed(result, n)


def aam_compute(op, a, b):
    """Remove every cell of columns ``i + j <= N - 1`` one AND at a time,
    then add ``ceil(count / 2)`` for the asserted diagonal cells."""
    n = op.input_width
    ua, ub = to_unsigned(a, n), to_unsigned(b, n)
    dropped = np.zeros_like(ua)
    for i in range(n):
        for j in range(n - i):
            # Baugh-Wooley: cross terms with exactly one sign bit are negative.
            sign = -1 if (i == n - 1) ^ (j == n - 1) else 1
            cell = get_bit(ua, i) & get_bit(ub, j)
            dropped = dropped + cell * (sign * (1 << (i + j)))
    kept = op.reference(a, b) - dropped
    if op.compensation:
        diagonal = np.zeros_like(ua)
        for i in range(n):
            diagonal = diagonal + (get_bit(ua, i) & get_bit(ub, n - 1 - i))
        kept = kept + (((diagonal + 1) >> 1) << n)
    return np.asarray(wrap_to_width(kept >> n, n), dtype=np.int64)


def _limited_carry_add(x, y, width, window):
    """Conversion add whose bit ``i`` sums only bits ``i - window .. i``."""
    if window is None:
        return (x + y) & mask(width)
    ux, uy = to_unsigned(x, width), to_unsigned(y, width)
    result = np.zeros_like(ux)
    for i in range(width):
        low = max(0, i - window)
        wa = (ux >> low) & mask(i - low + 1)
        wb = (uy >> low) & mask(i - low + 1)
        result |= (((wa + wb) >> (i - low)) & 1) << i
    return result


def abm_compute(op, a, b):
    """Prune the Booth rows, compensate, and convert bit by bit."""
    n = op.input_width
    rows = booth_partial_products(a, b, n)
    kept_rows = [row >> n for row in rows]
    comp_bits = np.zeros_like(np.asarray(a, dtype=np.int64))
    for row in rows:
        comp_bits = comp_bits + ((row >> (n - 1)) & 1)
    partial = kept_rows[0]
    for row in kept_rows[1:-1]:
        partial = partial + row
    last = kept_rows[-1] if len(kept_rows) > 1 else np.zeros_like(partial)
    if op.compensation:
        partial = partial + ((comp_bits + 1) >> 1)
    combined = _limited_carry_add(partial, last, n, op.carry_window)
    return np.asarray(wrap_to_width(combined, n), dtype=np.int64)


_ORACLES = (
    (ACAAdder, aca_compute),
    (RCAApxAdder, rcaapx_compute),
    (_BlockCarrySpeculationAdder, eta_compute),
    (AAMMultiplier, aam_compute),
    (ABMMultiplier, abm_compute),
)

#: Operator classes whose production model has a bit-serial oracle here.
ORACLE_FAMILIES = tuple(klass for klass, _ in _ORACLES)


def oracle_compute(op, a, b):
    """Bit-serial ``compute`` of ``op`` over the broadcast of ``a`` and ``b``."""
    # The cell-wise models allocate their result from one operand's shape.
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64))
    for klass, model in _ORACLES:
        if isinstance(op, klass):
            return np.asarray(model(op, a, b), dtype=np.int64)
    return np.asarray(op.compute(a, b), dtype=np.int64)


def oracle_aligned(op, a, b):
    """Oracle counterpart of :meth:`Operator.aligned`."""
    out = oracle_compute(op, a, b)
    return np.asarray(restore_lsbs(out, op.output_shift), dtype=np.int64)
