"""Hardware cost model (the synthesis / simulation / power side of APXPERF).

This package substitutes for the paper's Design Compiler + ModelSim +
PrimeTime flow: structural gate-level netlists are built for every operator,
area and critical path are extracted from the netlist, switching activity is
obtained by simulating the netlist on random vectors, and the resulting power
is calibrated against the reference points published in the paper.
"""
from .builders import (
    aam_multiplier,
    abm_multiplier,
    aca_adder,
    eta_adder,
    exact_multiplier,
    quantized_output_adder,
    rca_approximate_adder,
    ripple_carry_adder,
)
from .calibration import (
    Calibration,
    FamilyScale,
    PAPER_REFERENCES,
    ReferencePoint,
    compute_calibration,
    get_calibration,
)
from .netlist import Gate, Netlist
from .power import MonteCarloPowerEstimator, PowerBreakdown
from .report import HardwareReport
from .synthesis import build_netlist, characterize_hardware, verify_netlist_equivalence
from .technology import CellParameters, GateKind, TECH_28NM, TechnologyLibrary

__all__ = [
    "GateKind",
    "CellParameters",
    "TechnologyLibrary",
    "TECH_28NM",
    "Gate",
    "Netlist",
    "HardwareReport",
    "PowerBreakdown",
    "MonteCarloPowerEstimator",
    "ripple_carry_adder",
    "quantized_output_adder",
    "rca_approximate_adder",
    "eta_adder",
    "aca_adder",
    "exact_multiplier",
    "aam_multiplier",
    "abm_multiplier",
    "build_netlist",
    "characterize_hardware",
    "verify_netlist_equivalence",
    "ReferencePoint",
    "FamilyScale",
    "Calibration",
    "PAPER_REFERENCES",
    "compute_calibration",
    "get_calibration",
]
