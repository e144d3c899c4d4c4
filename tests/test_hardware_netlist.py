"""Tests for the gate-level netlist container and the technology library."""
import numpy as np
import pytest

from repro.hardware import GateKind, Netlist, TECH_28NM


def _xor_netlist():
    netlist = Netlist("xor")
    a = netlist.add_input_port("a", 1)
    b = netlist.add_input_port("b", 1)
    y = netlist.add_gate(GateKind.XOR2, a[0], b[0])
    netlist.set_output_port("y", [y])
    return netlist


class TestTechnology:
    def test_every_cell_has_positive_parameters(self):
        for kind, cell in TECH_28NM.cells.items():
            assert cell.area_um2 > 0, kind
            assert cell.delay_ns > 0, kind
            assert cell.switch_energy_fj > 0, kind

    def test_pseudo_cells_are_free(self):
        assert TECH_28NM.area(GateKind.INPUT) == 0.0
        assert TECH_28NM.delay(GateKind.CONST0) == 0.0

    def test_scaled_library(self):
        scaled = TECH_28NM.scaled(area=2.0, delay=0.5)
        assert scaled.area(GateKind.XOR2) == pytest.approx(2 * TECH_28NM.area(GateKind.XOR2))
        assert scaled.delay(GateKind.XOR2) == pytest.approx(0.5 * TECH_28NM.delay(GateKind.XOR2))

    def test_unknown_cell_raises(self):
        empty = TECH_28NM.scaled()
        object.__setattr__(empty, "cells", {})
        with pytest.raises(KeyError):
            empty.cell(GateKind.XOR2)


class TestNetlistConstruction:
    def test_simple_gate_evaluation(self):
        netlist = _xor_netlist()
        out = netlist.evaluate({"a": np.array([0, 1, 0, 1]),
                                "b": np.array([0, 0, 1, 1])})
        assert np.array_equal(out["y"], [0, 1, 1, 0])

    def test_every_gate_kind_evaluates(self):
        netlist = Netlist("all")
        a = netlist.add_input_port("a", 1)[0]
        b = netlist.add_input_port("b", 1)[0]
        c = netlist.add_input_port("c", 1)[0]
        outputs = [
            netlist.add_gate(GateKind.BUF, a),
            netlist.add_gate(GateKind.NOT, a),
            netlist.add_gate(GateKind.AND2, a, b),
            netlist.add_gate(GateKind.OR2, a, b),
            netlist.add_gate(GateKind.NAND2, a, b),
            netlist.add_gate(GateKind.NOR2, a, b),
            netlist.add_gate(GateKind.XOR2, a, b),
            netlist.add_gate(GateKind.XNOR2, a, b),
            netlist.add_gate(GateKind.MUX2, a, b, c),
            netlist.add_gate(GateKind.MAJ3, a, b, c),
            netlist.add_gate(GateKind.AOI21, a, b, c),
        ]
        netlist.set_output_port("y", outputs)
        stim = {"a": np.array([0, 1, 0, 1, 0, 1, 0, 1]),
                "b": np.array([0, 0, 1, 1, 0, 0, 1, 1]),
                "c": np.array([0, 0, 0, 0, 1, 1, 1, 1])}
        result = netlist.evaluate(stim)["y"]
        a_v, b_v, c_v = stim["a"], stim["b"], stim["c"]
        expected = (a_v
                    | ((1 - a_v) << 1)
                    | ((a_v & b_v) << 2)
                    | ((a_v | b_v) << 3)
                    | ((1 - (a_v & b_v)) << 4)
                    | ((1 - (a_v | b_v)) << 5)
                    | ((a_v ^ b_v) << 6)
                    | ((1 - (a_v ^ b_v)) << 7)
                    | (np.where(a_v == 1, c_v, b_v) << 8)
                    | (((a_v & b_v) | (a_v & c_v) | (b_v & c_v)) << 9)
                    | ((1 - ((a_v & b_v) | c_v)) << 10))
        assert np.array_equal(result, expected)

    def test_full_adder_helper(self):
        netlist = Netlist("fa")
        a = netlist.add_input_port("a", 1)[0]
        b = netlist.add_input_port("b", 1)[0]
        c = netlist.add_input_port("c", 1)[0]
        s, carry = netlist.full_adder(a, b, c)
        netlist.set_output_port("y", [s, carry])
        stim = {"a": np.array([0, 1, 1, 1]), "b": np.array([0, 1, 0, 1]),
                "c": np.array([0, 0, 1, 1])}
        out = netlist.evaluate(stim)["y"]
        assert np.array_equal(out, [0, 2, 2, 3])

    def test_unknown_wire_rejected(self):
        netlist = Netlist("bad")
        netlist.add_input_port("a", 1)
        with pytest.raises(ValueError):
            netlist.add_gate(GateKind.NOT, 99)

    def test_duplicate_port_rejected(self):
        netlist = _xor_netlist()
        with pytest.raises(ValueError):
            netlist.add_input_port("a", 1)
        with pytest.raises(ValueError):
            netlist.set_output_port("y", [0])

    def test_missing_stimulus_rejected(self):
        netlist = _xor_netlist()
        with pytest.raises(ValueError):
            netlist.evaluate({"a": np.array([1])})
        with pytest.raises(ValueError):
            netlist.evaluate({"a": np.array([1]), "b": np.array([1, 0])})


class TestNetlistMetrics:
    def test_area_sums_cells_and_registers(self):
        netlist = _xor_netlist()
        base = netlist.area_um2()
        netlist.add_register_bits(4)
        assert netlist.area_um2() == pytest.approx(
            base + 4 * TECH_28NM.area(GateKind.DFF))

    def test_critical_path_grows_with_chain_length(self):
        short = _xor_netlist()
        long_chain = Netlist("chain")
        a = long_chain.add_input_port("a", 1)[0]
        b = long_chain.add_input_port("b", 1)[0]
        wire = long_chain.add_gate(GateKind.XOR2, a, b)
        for _ in range(10):
            wire = long_chain.add_gate(GateKind.XOR2, wire, b)
        long_chain.set_output_port("y", [wire])
        assert long_chain.critical_path_ns() > short.critical_path_ns()

    def test_timing_memo_follows_appended_gates(self):
        netlist = _xor_netlist()
        before = netlist.critical_path_ns()
        assert netlist.timing() is netlist.timing()
        y = netlist.output_ports["y"][0]
        z = netlist.add_gate(GateKind.XOR2, y, netlist.const(1))
        netlist.set_output_port("z", [z])
        arrival, _ = netlist.timing()
        assert len(arrival) == 5  # a, b, y, the constant and z
        assert netlist.critical_path_ns() > before
        netlist.add_input_port("c", 2)
        assert len(netlist.timing()[0]) == 7

    def test_gate_histogram(self):
        netlist = _xor_netlist()
        netlist.add_register_bits(3)
        histogram = netlist.gate_histogram()
        assert histogram["xor2"] == 1
        assert histogram["dff"] == 3
        assert netlist.gate_count(GateKind.XOR2) == 1

    def test_prune_unused_removes_dangling_cone(self):
        netlist = Netlist("prune")
        a = netlist.add_input_port("a", 2)
        b = netlist.add_input_port("b", 2)
        used = netlist.add_gate(GateKind.AND2, a[0], b[0])
        dangling = netlist.add_gate(GateKind.XOR2, a[1], b[1])
        netlist.add_gate(GateKind.NOT, dangling)
        netlist.set_output_port("y", [used])
        pruned = netlist.prune_unused()
        assert pruned.gate_count() == 1
        out = pruned.evaluate({"a": np.array([1, 3]), "b": np.array([1, 0])})
        assert np.array_equal(out["y"], [1, 0])

    def test_evaluate_signed(self):
        netlist = Netlist("sign")
        a = netlist.add_input_port("a", 2)
        netlist.set_output_port("y", list(a))
        assert netlist.evaluate_signed({"a": np.array([0b11])})[0] == -1
