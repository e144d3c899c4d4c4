"""ApproxContext: the one object every application kernel receives.

The seed kernels each hand-wired an ``(adder, multiplier, counter)`` triple
and dispatched every arithmetic operation straight at the operator models.
:class:`ApproxContext` bundles that plumbing — the adder, the multiplier, the
datapath word length, the operation counter and the energy charging — behind
three instrumented primitives (:meth:`add`, :meth:`sub`, :meth:`mul`) and
routes their evaluation through a pluggable
:class:`~repro.core.backends.ExecutionBackend`::

    from repro.core import ApproxContext

    ctx = ApproxContext(adder="ADDt(16,10)")
    fft = FixedPointFFT(32, context=ctx)
    result = fft.forward(signal)
    print(ctx.counts, ctx.energy_breakdown(DatapathEnergyModel()))

Operands may be arrays or plain scalars; scalars are broadcast.  Operation
counts always equal the broadcast element count, matching what the seed
kernels recorded.

**Kernel contract:** every operand handed to :meth:`add` / :meth:`sub` /
:meth:`mul` should live on the context's ``data_width`` grid: route
intermediate values through :meth:`wrap`, as all application kernels do, so
the approximate operators see the two's-complement words the hardware
datapath would carry.  The closed forms also accept off-grid operands (the
oracle suite checks them far outside the grid), so an off-grid call still
returns the operator model's answer; it just no longer models the sized
datapath.
"""
from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..fxp.quantize import wrap_to_width
from ..operators.adders import ExactAdder
from ..operators.base import AdderOperator, MultiplierOperator, Operator
from ..operators.multipliers import TruncatedMultiplier
from .backends import BackendLike, ExecutionBackend, parse_backend
from .datapath import (
    DatapathEnergyBreakdown,
    DatapathEnergyModel,
    OperationCounter,
    OperationCounts,
)
from .registry import parse_operator

OperatorLike = Union[Operator, str]
ArrayLike = Union[np.ndarray, int]


def _resolve(operator: Optional[OperatorLike], fallback: Operator) -> Operator:
    if operator is None:
        return fallback
    if isinstance(operator, str):
        return parse_operator(operator)
    return operator


def _broadcast_count(a: ArrayLike, b: ArrayLike) -> int:
    shape_a = np.shape(a)
    shape_b = np.shape(b)
    if shape_a == shape_b or not shape_b:
        shape = shape_a
    elif not shape_a:
        shape = shape_b
    else:
        shape = np.broadcast_shapes(shape_a, shape_b)
    count = 1
    for dim in shape:
        count *= int(dim)
    return count


class ApproxContext:
    """Execution context binding operators, counting and a backend together.

    Parameters
    ----------
    adder / multiplier:
        Operator models (instances or paper-style spec strings such as
        ``"ADDt(16,10)"``).  ``None`` selects the exact adder and the
        fixed-width truncated multiplier — the exact fixed-point baseline,
        identical to the seed kernels' defaults.
    data_width:
        Word length of the datapath (16 bits in every paper experiment).
    backend:
        Execution backend — an instance, a registry spec, or ``None`` for
        the bit-exact ``"direct"`` reference.
    counter:
        Operation counter to charge; a fresh one is created when omitted.
        Sharing one counter across kernels accumulates a whole pipeline's
        inventory; :meth:`counts_since` extracts per-run deltas.
    """

    def __init__(self, adder: Optional[OperatorLike] = None,
                 multiplier: Optional[OperatorLike] = None,
                 data_width: int = 16,
                 backend: BackendLike = None,
                 counter: Optional[OperationCounter] = None) -> None:
        if data_width < 2:
            raise ValueError("data_width must be at least 2 bits")
        self.data_width = int(data_width)
        self.frac_bits = self.data_width - 1
        resolved_adder = _resolve(adder, ExactAdder(self.data_width))
        resolved_multiplier = _resolve(
            multiplier, TruncatedMultiplier(self.data_width, self.data_width))
        if not isinstance(resolved_adder, AdderOperator):
            raise TypeError(f"{resolved_adder.name} is not an adder")
        if not isinstance(resolved_multiplier, MultiplierOperator):
            raise TypeError(f"{resolved_multiplier.name} is not a multiplier")
        self.adder: AdderOperator = resolved_adder
        self.multiplier: MultiplierOperator = resolved_multiplier
        self.backend: ExecutionBackend = parse_backend(backend)
        self.counter = counter if counter is not None else OperationCounter()
        self._wrap_mask = np.int64((1 << self.data_width) - 1)
        self._wrap_sign = np.int64(1 << (self.data_width - 1))

    # ------------------------------------------------------------------ #
    # Instrumented arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Aligned sum through the adder model; charges one add per element."""
        self.counter.count_additions(_broadcast_count(a, b))
        return np.asarray(self.backend.execute(self.adder, a, b),
                          dtype=np.int64)

    def sub(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Aligned difference: ``b`` is two's-complement negated, then added.

        Charged as one addition per element, exactly as the seed kernels
        counted their subtractions (negation is free in hardware).
        """
        return self.add(a, self.negate(b))

    def negate(self, value: ArrayLike) -> ArrayLike:
        """Two's-complement negation on the datapath grid (not charged)."""
        if np.ndim(value) == 0:
            return wrap_to_width(-int(value), self.data_width)
        return np.asarray(
            wrap_to_width(-np.asarray(value, dtype=np.int64), self.data_width),
            dtype=np.int64)

    def mul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Aligned product through the multiplier model; one mul per element."""
        self.counter.count_multiplications(_broadcast_count(a, b))
        return np.asarray(self.backend.execute(self.multiplier, a, b),
                          dtype=np.int64)

    def wrap(self, value: ArrayLike) -> np.ndarray:
        """Wrap a value onto the context's datapath word length."""
        # Inline two's-complement wrap (hot path: one call per kernel MAC).
        masked = np.asarray(value, dtype=np.int64) & self._wrap_mask
        return (masked ^ self._wrap_sign) - self._wrap_sign

    # ------------------------------------------------------------------ #
    # Counting and energy
    # ------------------------------------------------------------------ #
    @property
    def counts(self) -> OperationCounts:
        """Snapshot of the operations charged so far."""
        return self.counter.snapshot()

    def counts_since(self, start: OperationCounts) -> OperationCounts:
        """Operations charged since an earlier :attr:`counts` snapshot."""
        return self.counts - start

    def reset_counts(self) -> None:
        """Zero the operation counter."""
        self.counter.reset()

    def energy_breakdown(self, model: Optional[DatapathEnergyModel] = None,
                         constant_coefficient_multiplications: bool = False
                         ) -> DatapathEnergyBreakdown:
        """Charge the accumulated counts with Equation 1 (paper's Eq. 1)."""
        model = model if model is not None else DatapathEnergyModel()
        return model.application_energy_pj(
            self.counts, self.adder, self.multiplier,
            constant_coefficient_multiplications=constant_coefficient_multiplications)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def exact_reference(self) -> "ApproxContext":
        """Fresh context with exact operators on the same width and backend.

        Application kernels use this for their bit-exact reference runs
        (e.g. the HEVC filter's reference interpolation).
        """
        return ApproxContext(data_width=self.data_width, backend=self.backend)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ApproxContext {self.adder.name} / {self.multiplier.name} "
                f"width={self.data_width} backend={self.backend.name!r}>")
