"""Operator-to-netlist mapping and hardware characterisation flow.

This module is the equivalent of the left branch of the APXPERF flow
(Figure 2 of the paper): from an operator description it produces a
"synthesised" gate-level netlist, extracts area and timing, simulates the
netlist on random vectors to obtain switching activity, and converts the
activity into power.  The calibration layer then anchors the absolute scale
to the numbers the paper reports for its reference operators.
"""
from __future__ import annotations


import numpy as np

from ..operators.adders import (
    ACAAdder,
    ETAIIAdder,
    ETAIVAdder,
    ExactAdder,
    QuantizedOutputAdder,
    RCAApxAdder,
    RoundedAdder,
)
from ..operators.base import Operator
from ..operators.multipliers import (
    AAMMultiplier,
    ABMMultiplier,
    BoothMultiplier,
    ExactMultiplier,
    QuantizedOutputMultiplier,
)
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
from .netlist import Netlist
from .power import MonteCarloPowerEstimator
from .report import HardwareReport
from .technology import TechnologyLibrary, TECH_28NM

#: Version of the hardware cost model: netlist builders, technology library,
#: simulation, power estimation and calibration.  Stored characterisations
#: are keyed by it, so bump it whenever a change alters any
#: :class:`HardwareReport`.
HARDWARE_MODEL_VERSION = 1


def build_netlist(operator: Operator, registered: bool = True,
                  technology: TechnologyLibrary = TECH_28NM) -> Netlist:
    """Build the structural netlist matching an operator configuration."""
    if isinstance(operator, RCAApxAdder):
        return rca_approximate_adder(operator.input_width, operator.accurate_bits,
                                     operator.approximate_cell, registered, technology)
    if isinstance(operator, ACAAdder):
        return aca_adder(operator.input_width, operator.prediction_bits,
                         registered, technology)
    if isinstance(operator, (ETAIVAdder, ETAIIAdder)):
        return eta_adder(operator.input_width, operator.block_size,
                         operator.speculation_blocks, registered, technology)
    if isinstance(operator, QuantizedOutputAdder):
        rounded = isinstance(operator, RoundedAdder)
        return quantized_output_adder(operator.input_width, operator.output_width,
                                      rounded, registered, technology)
    if isinstance(operator, ExactAdder):
        return ripple_carry_adder(operator.input_width, registered,
                                  technology=technology)
    if isinstance(operator, AAMMultiplier):
        return aam_multiplier(operator.input_width, operator.compensation,
                              registered, technology)
    if isinstance(operator, ABMMultiplier):
        window = operator.carry_window if operator.carry_window is not None \
            else operator.input_width
        return abm_multiplier(operator.input_width, operator.compensation,
                              window, registered, technology)
    if isinstance(operator, QuantizedOutputMultiplier):
        return exact_multiplier(operator.input_width, operator.output_width,
                                strategy="wallace", registered=registered,
                                technology=technology)
    if isinstance(operator, BoothMultiplier):
        return exact_multiplier(operator.input_width, strategy="wallace",
                                registered=registered, technology=technology)
    if isinstance(operator, ExactMultiplier):
        return exact_multiplier(operator.input_width, strategy="wallace",
                                registered=registered, technology=technology)
    raise TypeError(f"no netlist builder registered for {type(operator).__name__}")


def characterize_hardware(operator: Operator, frequency_hz: float = 100e6,
                          samples: int = 1500, calibrated: bool = True,
                          technology: TechnologyLibrary = TECH_28NM,
                          seed: int = 2017) -> HardwareReport:
    """Full hardware characterisation of one operator configuration.

    Returns area, delay and power (hence PDP) for the operator at the given
    clock frequency.  With ``calibrated=True`` (default) the family anchors of
    :mod:`repro.hardware.calibration` are applied so the absolute values are
    directly comparable with the paper's tables.
    """
    netlist = build_netlist(operator, registered=True, technology=technology)
    estimator = MonteCarloPowerEstimator(frequency_hz=frequency_hz,
                                         samples=samples, seed=seed)
    breakdown = estimator.estimate(netlist)
    report = HardwareReport(
        operator=operator.name,
        family=operator.family,
        area_um2=netlist.area_um2(),
        delay_ns=netlist.critical_path_ns(),
        power_mw=breakdown.total_mw,
        leakage_mw=breakdown.leakage_mw,
        frequency_hz=frequency_hz,
        gate_histogram=netlist.gate_histogram(),
        params=dict(operator.params),
        calibrated=False,
    )
    if not calibrated:
        return report
    from .calibration import get_calibration

    calibration = get_calibration(technology=technology, frequency_hz=frequency_hz,
                                  samples=samples, seed=seed)
    return calibration.apply(report)


def verify_netlist_equivalence(operator: Operator, samples: int = 512,
                               seed: int = 7,
                               technology: TechnologyLibrary = TECH_28NM
                               ) -> np.ndarray:
    """APXPERF-style verification: netlist simulation vs functional model.

    Returns the boolean per-sample agreement mask.  Only meaningful for the
    operators whose netlists are built bit-exactly: the exact adder, RCAApx,
    ETAII / ETAIV, the exact and truncated multipliers and AAM.  The
    data-sized adders are charged as narrow datapath adders (their netlist
    operands are already-quantised values), ACA's netlist models the shared
    speculative implementation, and ABM's netlist is a cost model — none of
    those three claim bit-equivalence, and the characterisation never relies
    on it.
    """
    from ..operators.bitops import to_unsigned

    netlist = build_netlist(operator, registered=False, technology=technology)
    rng = np.random.default_rng(seed)
    a, b = operator.random_inputs(samples, rng)

    port_widths = {name: len(wires) for name, wires in netlist.input_ports.items()}
    if port_widths["a"] != operator.input_width:
        raise ValueError(
            f"{operator.name} is charged as a narrower datapath operator; "
            "its netlist is not bit-comparable with the 16-bit functional view"
        )
    stimulus = {
        "a": np.asarray(to_unsigned(a, port_widths["a"]), dtype=np.int64),
        "b": np.asarray(to_unsigned(b, port_widths["b"]), dtype=np.int64),
    }
    simulated = netlist.evaluate_signed(stimulus, port="y")
    expected = operator.compute(a, b)
    return np.asarray(simulated == expected)
