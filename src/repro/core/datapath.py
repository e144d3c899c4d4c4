"""Datapath energy model (Equation 1 of the paper).

The application-level comparison charges every addition and multiplication
with the PDP of the operator that executes it:

    PDP_app = sum_i PDP_add,i + sum_j PDP_mul,j

The crucial coupling the paper emphasises is that *careful data sizing
propagates*: when the adders produce ``k``-bit data, the multipliers (and the
transfers and the storage) only need to handle ``k`` bits, so their energy
shrinks too — whereas an approximate adder still emits full-width data and
leaves every other operator at full cost.  :func:`minimal_multiplier_for`
and :func:`minimal_adder_for` implement that coupling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..hardware.report import HardwareReport
from ..hardware.synthesis import HARDWARE_MODEL_VERSION, characterize_hardware
from ..operators.adders import TruncatedAdder
from ..operators.base import AdderOperator, MultiplierOperator, Operator
from ..operators.multipliers import TruncatedMultiplier
from .registry import parse_operator
from .store import ResultStore, StoreKey


@dataclass
class OperationCounts:
    """Number of arithmetic operations executed by an application kernel."""

    additions: int = 0
    multiplications: int = 0

    def __add__(self, other: "OperationCounts") -> "OperationCounts":
        return OperationCounts(self.additions + other.additions,
                               self.multiplications + other.multiplications)

    def __sub__(self, other: "OperationCounts") -> "OperationCounts":
        """Delta between two snapshots of one (possibly shared) counter."""
        return OperationCounts(self.additions - other.additions,
                               self.multiplications - other.multiplications)

    def scaled(self, factor: int) -> "OperationCounts":
        return OperationCounts(self.additions * factor,
                               self.multiplications * factor)


class OperationCounter:
    """Mutable counter the application kernels update as they execute."""

    def __init__(self) -> None:
        self.additions = 0
        self.multiplications = 0

    def count_additions(self, count: int) -> None:
        self.additions += int(count)

    def count_multiplications(self, count: int) -> None:
        self.multiplications += int(count)

    def snapshot(self) -> OperationCounts:
        return OperationCounts(self.additions, self.multiplications)

    def reset(self) -> None:
        self.additions = 0
        self.multiplications = 0


def effective_data_width(operator: Operator) -> int:
    """Width of the data the operator emits into the rest of the datapath."""
    if isinstance(operator, MultiplierOperator):
        return min(operator.output_width, operator.input_width)
    return operator.output_width


def minimal_multiplier_for(adder: AdderOperator) -> TruncatedMultiplier:
    """Smallest exact multiplier matching the adder's emitted data width.

    With a data-sized (truncated / rounded) adder the downstream multiplier
    operands are only ``output_width`` bits wide; with an approximate adder
    they stay at full width.  The multiplier keeps as many output bits as its
    operand width (fixed-width operation), as in the paper's experiments.
    """
    width = max(2, effective_data_width(adder))
    return TruncatedMultiplier(width, width)


def minimal_adder_for(multiplier: MultiplierOperator) -> TruncatedAdder:
    """Smallest exact adder consuming the multiplier's emitted data width."""
    width = max(2, effective_data_width(multiplier))
    source_width = max(width, multiplier.input_width)
    return TruncatedAdder(source_width, width)


@dataclass
class DatapathEnergyModel:
    """Charges application operation counts with per-operator PDP values.

    Hardware reports are characterised lazily and cached, so sweeping many
    adder configurations over the same application only synthesises each
    distinct operator once.
    """

    frequency_hz: float = 100e6
    hardware_samples: int = 1200
    calibrated: bool = True
    #: Energy scale factor applied to multiplications by small constants
    #: (e.g. interpolation filter taps): a constant-coefficient multiplier is
    #: substantially cheaper than a general one.
    constant_coefficient_factor: float = 0.5
    #: Optional persistent store: characterisations found there skip
    #: synthesis entirely, and fresh ones are written back, so repeated
    #: explorations across sessions share one hardware cache on disk.
    store: Optional[ResultStore] = None
    _cache: Dict[str, HardwareReport] = field(default_factory=dict, repr=False)
    _pairings: Dict[str, Tuple[float, float]] = field(default_factory=dict,
                                                      repr=False)

    def report_for(self, operator: Operator) -> HardwareReport:
        """Hardware report of an operator (memoised by operator name).

        Lookup order: in-process cache, then the persistent store (a
        corrupt or stale record is a clean miss), then actual
        characterisation — which is written back to the store.
        """
        key = operator.name
        if key not in self._cache:
            store_key = None
            if self.store is not None:
                store_key = StoreKey.of("hardware", self._store_key(operator))
                payload = self.store.load_key(store_key)
                report = HardwareReport.from_dict(payload) \
                    if payload is not None else None
                if report is not None:
                    self._cache[key] = report
                    return report
            report = characterize_hardware(
                operator, frequency_hz=self.frequency_hz,
                samples=self.hardware_samples, calibrated=self.calibrated)
            self._cache[key] = report
            if store_key is not None:
                self.store.save_key(store_key, report.to_dict())
        return self._cache[key]

    def _store_key(self, operator: Operator) -> Dict[str, object]:
        return {
            "hardware_model": HARDWARE_MODEL_VERSION,
            "operator": operator.name,
            "frequency_hz": self.frequency_hz,
            "samples": self.hardware_samples,
            "calibrated": self.calibrated,
        }

    def energy_per_addition_pj(self, adder: AdderOperator) -> float:
        return self.report_for(adder).pdp_pj

    def energy_per_multiplication_pj(self, multiplier: MultiplierOperator,
                                     constant_coefficient: bool = False) -> float:
        energy = self.report_for(multiplier).pdp_pj
        if constant_coefficient:
            energy *= self.constant_coefficient_factor
        return energy

    def paired_energy_pj(self, adder_spec: str) -> Tuple[float, float]:
        """(per-addition, per-multiplication) pJ of an adder spec string.

        The multiplication is charged on the adder's sizing-propagated
        partner (:func:`minimal_multiplier_for`).  Memoised by spec, so a
        heterogeneous row charges each stage operator without re-parsing
        it.
        """
        pairing = self._pairings.get(adder_spec)
        if pairing is None:
            adder = parse_operator(adder_spec)
            pairing = (self.energy_per_addition_pj(adder),
                       self.energy_per_multiplication_pj(
                           minimal_multiplier_for(adder)))
            self._pairings[adder_spec] = pairing
        return pairing

    def application_energy_pj(self, counts: OperationCounts,
                              adder: AdderOperator,
                              multiplier: Optional[MultiplierOperator] = None,
                              constant_coefficient_multiplications: bool = False
                              ) -> "DatapathEnergyBreakdown":
        """Total datapath energy for an application run (Equation 1)."""
        if multiplier is None:
            multiplier = minimal_multiplier_for(adder)
        add_energy = counts.additions * self.energy_per_addition_pj(adder)
        mul_energy = counts.multiplications * self.energy_per_multiplication_pj(
            multiplier, constant_coefficient_multiplications)
        return DatapathEnergyBreakdown(
            adder=adder.name,
            multiplier=multiplier.name,
            additions=counts.additions,
            multiplications=counts.multiplications,
            adder_energy_pj=add_energy,
            multiplier_energy_pj=mul_energy,
        )


@dataclass(frozen=True)
class DatapathEnergyBreakdown:
    """Energy of one application run, split by operator family."""

    adder: str
    multiplier: str
    additions: int
    multiplications: int
    adder_energy_pj: float
    multiplier_energy_pj: float

    @property
    def total_energy_pj(self) -> float:
        return self.adder_energy_pj + self.multiplier_energy_pj

    @property
    def adder_energy_per_op_pj(self) -> float:
        if self.additions == 0:
            return 0.0
        return self.adder_energy_pj / self.additions

    @property
    def multiplier_energy_per_op_pj(self) -> float:
        if self.multiplications == 0:
            return 0.0
        return self.multiplier_energy_pj / self.multiplications

    def to_dict(self) -> Dict[str, Union[str, int, float]]:
        return {
            "adder": self.adder,
            "multiplier": self.multiplier,
            "additions": self.additions,
            "multiplications": self.multiplications,
            "adder_energy_pj": self.adder_energy_pj,
            "multiplier_energy_pj": self.multiplier_energy_pj,
            "total_energy_pj": self.total_energy_pj,
        }
