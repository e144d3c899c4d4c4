"""Operator model base classes.

Every arithmetic operator studied in the paper — accurate, truncated, rounded
or functionally approximate — is modelled as an :class:`Operator` with a
bit-accurate, vectorised ``compute`` method operating on two's-complement
integer codes (NumPy ``int64``) and broadcasting its operands like any NumPy
binary operation.  ``compute`` evaluates a closed form: the bit and cell
loops of the approximate operators' structural descriptions (ACA windows,
RCAApx cell ripple, ETA blocks, AAM partial products, ABM conversion) are
collapsed into a handful of whole-word shift/mask passes.  Those bit-serial
structural models live on as the test-suite's oracle (``tests/oracles.py``),
which every closed form is checked against bit for bit.

Two families exist:

* :class:`AdderOperator` — ``N``-bit + ``N``-bit additions.  The paper uses
  the accurate ``N``-bit (modular) sum as the error reference, with data
  interpreted as Q1.(N-1) fractions for MSE normalisation.
* :class:`MultiplierOperator` — ``N`` x ``N`` multiplications.  The error
  reference is the exact ``2N``-bit product, interpreted as a Q2.(2N-2)
  fraction.

The ``output_shift`` property records how many reference-grid LSBs one output
LSB is worth; truncated operators have a non-zero shift because their narrow
output implicitly forces the dropped LSBs to zero.  ``aligned`` re-expands the
output onto the reference grid so errors from different operators are directly
comparable, exactly as APXPERF does.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..fxp.quantize import restore_lsbs, wrap_to_width

#: Seed of the generator used when no rng is supplied to stimulus helpers.
#: A fixed default keeps *every* characterisation reproducible end-to-end
#: (the Study pipeline routes its own seed through explicitly).
DEFAULT_STIMULUS_SEED = 2017

#: Widths above this would enumerate more than ~4^13 (67M) operand pairs;
#: :meth:`Operator.exhaustive_inputs` refuses instead of attempting the
#: allocation.
MAX_EXHAUSTIVE_WIDTH = 13


class Operator(ABC):
    """Base class of every bit-accurate operator model."""

    #: Operator family, either ``"adder"`` or ``"multiplier"``.
    family: str = "generic"

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    @property
    @abstractmethod
    def name(self) -> str:
        """Short name, e.g. ``"ADDt(16,10)"`` or ``"AAM(16)"``."""

    @property
    @abstractmethod
    def input_width(self) -> int:
        """Width in bits of each operand."""

    @property
    @abstractmethod
    def output_width(self) -> int:
        """Width in bits of the produced result."""

    @property
    @abstractmethod
    def output_shift(self) -> int:
        """Number of reference-grid LSBs represented by one output LSB."""

    @property
    @abstractmethod
    def params(self) -> Dict[str, object]:
        """Configuration parameters (for reporting and sweeps)."""

    @abstractmethod
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bit-accurate result as signed codes of ``output_width`` bits."""

    @abstractmethod
    def reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact result on the reference grid (``output_shift`` of zero)."""

    @property
    @abstractmethod
    def reference_width(self) -> int:
        """Width in bits of the reference result."""

    @property
    @abstractmethod
    def result_frac_bits(self) -> int:
        """Fractional bits of the reference result (for normalised metrics)."""

    # ------------------------------------------------------------------ #
    # Derived behaviour shared by all operators
    # ------------------------------------------------------------------ #
    @property
    def result_lsb_weight(self) -> float:
        """Real weight of one reference-grid LSB."""
        return 2.0 ** (-self.result_frac_bits)

    def aligned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Result re-expanded onto the reference grid (dropped LSBs are zero)."""
        out = np.asarray(self.compute(a, b), dtype=np.int64)
        return np.asarray(restore_lsbs(out, self.output_shift), dtype=np.int64)

    def error(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integer error ``reference - aligned`` on the reference grid."""
        return np.asarray(self.reference(a, b), dtype=np.int64) - self.aligned(a, b)

    def normalized_error(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Error scaled to the fractional interpretation (full scale ~ 1)."""
        return self.error(a, b).astype(np.float64) * self.result_lsb_weight

    def is_exact(self) -> bool:
        """Whether the operator never deviates from the reference."""
        return self.output_shift == 0 and self.output_width >= self.reference_width

    # ------------------------------------------------------------------ #
    # Stimulus generation
    # ------------------------------------------------------------------ #
    def input_range(self) -> Tuple[int, int]:
        """Inclusive signed range of each operand."""
        width = self.input_width
        return -(1 << (width - 1)), (1 << (width - 1)) - 1

    def random_inputs(self, count: int,
                      rng: Optional[Union[np.random.Generator, int]] = None,
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform random operand pairs, as used by APXPERF's characterisation.

        ``rng`` may be a generator, an integer seed, or ``None`` — the latter
        selects a generator seeded with :data:`DEFAULT_STIMULUS_SEED` so that
        two characterisation runs without an explicit rng still draw the same
        stimulus (an unseeded default would silently break end-to-end
        reproducibility).
        """
        if rng is None:
            rng = np.random.default_rng(DEFAULT_STIMULUS_SEED)
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        lo, hi = self.input_range()
        a = rng.integers(lo, hi + 1, size=count, dtype=np.int64)
        b = rng.integers(lo, hi + 1, size=count, dtype=np.int64)
        return a, b

    def exhaustive_inputs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every operand pair (only sensible for small widths, used in tests).

        Raises :class:`ValueError` above :data:`MAX_EXHAUSTIVE_WIDTH` bits
        instead of attempting the ``4**N``-element meshgrid allocation.
        """
        width = self.input_width
        if width > MAX_EXHAUSTIVE_WIDTH:
            raise ValueError(
                f"exhaustive enumeration of {self.name} would materialise "
                f"{4 ** width:,} operand pairs ({width}-bit operands); only "
                f"widths up to {MAX_EXHAUSTIVE_WIDTH} bits are enumerable — "
                f"use random_inputs for wider operators")
        lo, hi = self.input_range()
        values = np.arange(lo, hi + 1, dtype=np.int64)
        a, b = np.meshgrid(values, values, indexing="ij")
        return a.ravel(), b.ravel()

    # ------------------------------------------------------------------ #
    # Cosmetics
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name}>"


class AdderOperator(Operator):
    """Base class for ``N``-bit adders.

    The accurate reference is the modular ``N``-bit sum — the paper treats the
    16-bit-output adder as "the correct adder" — and data are interpreted as
    Q1.(N-1) fractions when normalising errors.
    """

    family = "adder"

    def __init__(self, input_width: int) -> None:
        if input_width < 2:
            raise ValueError("adders need at least 2-bit operands")
        self._input_width = int(input_width)

    @property
    def input_width(self) -> int:
        return self._input_width

    @property
    def reference_width(self) -> int:
        return self._input_width

    @property
    def result_frac_bits(self) -> int:
        return self._input_width - 1

    def reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        total = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        return np.asarray(wrap_to_width(total, self._input_width), dtype=np.int64)


class MultiplierOperator(Operator):
    """Base class for ``N`` x ``N`` multipliers.

    The accurate reference is the exact ``2N``-bit product, interpreted as a
    Q2.(2N-2) fraction of the Q1.(N-1) inputs.
    """

    family = "multiplier"

    def __init__(self, input_width: int) -> None:
        if input_width < 2:
            raise ValueError("multipliers need at least 2-bit operands")
        if input_width > 31:
            raise ValueError("input widths above 31 bits overflow the int64 product model")
        self._input_width = int(input_width)

    @property
    def input_width(self) -> int:
        return self._input_width

    @property
    def reference_width(self) -> int:
        return 2 * self._input_width

    @property
    def result_frac_bits(self) -> int:
        return 2 * (self._input_width - 1)

    def reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
