"""APXPERF-style operator characterisation: error + hardware in one pass.

This is the top of the framework's public API: give it an operator (or a
paper-style specification string) and it returns everything the paper's
Figures 3-4 and Table I plot — MSE, BER and the other error metrics from the
functional simulation, and area / delay / power / PDP from the hardware
model, with the optional netlist-vs-functional equivalence verification in
between.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Union

import numpy as np

from ..hardware.report import HardwareReport
from ..hardware.synthesis import characterize_hardware, verify_netlist_equivalence
from ..metrics.error import ErrorReport, characterize_error
from ..operators.base import Operator
from .registry import parse_operator


@dataclass(frozen=True)
class OperatorCharacterization:
    """Joint functional and hardware characterisation of one operator."""

    operator: str
    family: str
    error: ErrorReport
    hardware: HardwareReport
    equivalence_checked: bool = False
    params: Dict[str, object] = field(default_factory=dict)

    # Convenience accessors used by the experiment tables / figures --------- #
    @property
    def mse_db(self) -> float:
        return self.error.mse_db

    @property
    def ber(self) -> float:
        return self.error.ber

    @property
    def power_mw(self) -> float:
        return self.hardware.power_mw

    @property
    def delay_ns(self) -> float:
        return self.hardware.delay_ns

    @property
    def area_um2(self) -> float:
        return self.hardware.area_um2

    @property
    def pdp_pj(self) -> float:
        return self.hardware.pdp_pj

    def to_dict(self) -> Dict[str, object]:
        return {
            "operator": self.operator,
            "family": self.family,
            "error": self.error.to_dict(),
            "hardware": self.hardware.to_dict(),
            "equivalence_checked": self.equivalence_checked,
            "params": dict(self.params),
        }


#: Operator classes whose netlists are bit-exact and therefore verifiable.
_VERIFIABLE = (
    "ExactAdder",
    "RCAApxAdder",
    "ETAIIAdder",
    "ETAIVAdder",
    "ExactMultiplier",
    "TruncatedMultiplier",
    "AAMMultiplier",
)


class Apxperf:
    """Facade reproducing the automated APXPERF comparison flow.

    Parameters
    ----------
    error_samples:
        Number of random operand pairs for the functional characterisation.
    hardware_samples:
        Number of random vectors simulated on the gate-level netlist for the
        activity-based power estimation.
    frequency_hz:
        Clock frequency for the power figures (the paper uses 100 MHz).
    calibrated:
        Whether the paper-anchored calibration is applied to the hardware
        numbers.
    """

    def __init__(self, error_samples: int = 100_000, hardware_samples: int = 1500,
                 frequency_hz: float = 100e6, calibrated: bool = True,
                 seed: int = 2017) -> None:
        self.error_samples = int(error_samples)
        self.hardware_samples = int(hardware_samples)
        self.frequency_hz = float(frequency_hz)
        self.calibrated = bool(calibrated)
        self.seed = int(seed)

    def _resolve(self, operator: Union[Operator, str]) -> Operator:
        if isinstance(operator, str):
            return parse_operator(operator)
        return operator

    def characterize(self, operator: Union[Operator, str],
                     verify: bool = False) -> OperatorCharacterization:
        """Characterise one operator (optionally verifying its netlist)."""
        op = self._resolve(operator)
        rng = np.random.default_rng(self.seed)
        error = characterize_error(op, samples=self.error_samples, rng=rng)
        hardware = characterize_hardware(op, frequency_hz=self.frequency_hz,
                                         samples=self.hardware_samples,
                                         calibrated=self.calibrated,
                                         seed=self.seed)
        checked = False
        if verify and type(op).__name__ in _VERIFIABLE:
            agreement = verify_netlist_equivalence(op, samples=256, seed=self.seed)
            if not bool(np.all(agreement)):
                raise RuntimeError(
                    f"netlist / functional mismatch for {op.name}: "
                    f"{float(np.mean(agreement)) * 100.0:.2f}% agreement"
                )
            checked = True
        return OperatorCharacterization(
            operator=op.name,
            family=op.family,
            error=error,
            hardware=hardware,
            equivalence_checked=checked,
            params=dict(op.params),
        )

    def characterize_many(self, operators: Iterable[Union[Operator, str]],
                          verify: bool = False
                          ) -> List[OperatorCharacterization]:
        """Characterise a batch of operators (a full sweep), in order."""
        resolved = [self._resolve(op) for op in operators]
        return [self.characterize(op, verify=verify) for op in resolved]
