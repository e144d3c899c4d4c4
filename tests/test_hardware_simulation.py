"""Bit-parallel netlist simulation against the per-gate seed simulator, and
the pinned digest of the hardware characterisations it feeds."""
import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from oracles import seed_monte_carlo_estimate, seed_netlist_evaluate
from repro.hardware import (
    GateKind,
    MonteCarloPowerEstimator,
    Netlist,
    build_netlist,
    characterize_hardware,
)
from repro.hardware.synthesis import HARDWARE_MODEL_VERSION
from repro.operators import (
    AAMMultiplier,
    ABMMultiplier,
    ACAAdder,
    BoothMultiplier,
    ETAIVAdder,
    ExactAdder,
    ExactMultiplier,
    RCAApxAdder,
    RoundedAdder,
    TruncatedMultiplier,
)


def branch_operators():
    """One operator per ``build_netlist`` branch at 8, 12 and 16 bits."""
    operators = []
    for width in (8, 12, 16):
        operators += [
            RCAApxAdder(width, width // 2), ACAAdder(width, 4),
            ETAIVAdder(width, 4), RoundedAdder(width, width // 2),
            ExactAdder(width), AAMMultiplier(width), ABMMultiplier(width),
            TruncatedMultiplier(width, width), BoothMultiplier(width),
            ExactMultiplier(width),
        ]
    return operators


def every_kind_netlist():
    """Hand-built netlist using every simulated gate kind, with registers."""
    netlist = Netlist("every-kind")
    a, b, c = netlist.add_input_port("a", 3)
    s = netlist.add_input_port("s", 1)[0]
    nand = netlist.add_gate(GateKind.NAND2, a, b)
    nor = netlist.add_gate(GateKind.NOR2, nand, c)
    xnor = netlist.add_gate(GateKind.XNOR2, nor, a)
    mux = netlist.add_gate(GateKind.MUX2, s, xnor, netlist.const(1))
    aoi = netlist.add_gate(GateKind.AOI21, mux, b, netlist.const(0))
    inverted = netlist.add_gate(GateKind.NOT, aoi)
    buffered = netlist.add_gate(GateKind.BUF, inverted)
    total, carry = netlist.full_adder(buffered, xnor, s)
    anded = netlist.add_gate(GateKind.AND2, carry, nand)
    ored = netlist.add_gate(GateKind.OR2, anded, nor)
    netlist.set_output_port("y", [nand, nor, xnor, mux, aoi, inverted, buffered,
                                  total, carry, anded, ored])
    netlist.add_register_bits(5)
    return netlist


CASES = [pytest.param(every_kind_netlist, id="every-kind")] + [
    pytest.param(lambda op=op: build_netlist(op), id=op.name)
    for op in branch_operators()
]


def test_every_kind_netlist_covers_every_simulated_kind():
    kinds = {gate.kind for gate in every_kind_netlist().gates}
    assert kinds == set(GateKind) - {GateKind.DFF}


@pytest.mark.parametrize("samples", [2, 7, 64, 1500])
@pytest.mark.parametrize("make_netlist", CASES)
def test_bit_parallel_simulation_matches_seed(make_netlist, samples):
    netlist = make_netlist()
    estimator = MonteCarloPowerEstimator(samples=samples)
    stimulus = estimator._random_stimulus(netlist)
    produced = netlist.evaluate(stimulus)
    expected = seed_netlist_evaluate(netlist, stimulus)
    assert produced.keys() == expected.keys()
    for port, codes in expected.items():
        assert np.array_equal(produced[port], codes), port
    assert estimator.estimate(netlist) == seed_monte_carlo_estimate(estimator, netlist)


#: SHA-256 of canonical JSON of ``characterize_hardware(op, samples=1200)
#: .to_dict()`` over :func:`branch_operators`, and the hardware model version
#: it was recorded under.  A change to the digest needs a version bump.
PINNED_HARDWARE = {
    "version": 1,
    "sha256": "903cc714581bedcedbe029433df7fad3eed8c48c003abdef4935c09a2a8712b8",
}


def test_hardware_reports_match_pinned_digest():
    assert HARDWARE_MODEL_VERSION == PINNED_HARDWARE["version"]
    reports = [characterize_hardware(op, samples=1200).to_dict()
               for op in branch_operators()]
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_HARDWARE["sha256"]


@pytest.mark.parametrize("operator", [ACAAdder(16, 4), AAMMultiplier(8)],
                         ids=lambda op: op.name)
def test_one_timing_pass_per_characterisation(operator):
    """The critical path and the glitch skews share one timing pass."""
    with mock.patch.object(Netlist, "_timing_pass", autospec=True,
                           side_effect=Netlist._timing_pass) as timing_pass:
        characterize_hardware(operator, samples=200, calibrated=False)
    assert timing_pass.call_count == 1
