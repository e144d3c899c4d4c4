"""Bit-equivalence and structural tests for the operator netlist builders.

This is the framework's equivalent of APXPERF's VHDL-vs-C verification box:
every netlist that claims bit-exactness is simulated against its functional
model; the cost-only netlists (ACA, ABM) are checked structurally.
"""
import numpy as np
import pytest

from repro.hardware import (
    aam_multiplier,
    abm_multiplier,
    aca_adder,
    build_netlist,
    eta_adder,
    exact_multiplier,
    quantized_output_adder,
    rca_approximate_adder,
    ripple_carry_adder,
    verify_netlist_equivalence,
)
from repro.operators import (
    AAMMultiplier,
    ETAIIAdder,
    ETAIVAdder,
    ExactAdder,
    ExactMultiplier,
    RCAApxAdder,
    TruncatedAdder,
    TruncatedMultiplier,
)


class TestBitExactNetlists:
    @pytest.mark.parametrize("operator", [
        ExactAdder(8),
        ExactAdder(16),
        RCAApxAdder(16, 6, 1),
        RCAApxAdder(16, 8, 2),
        RCAApxAdder(16, 10, 3),
        ETAIVAdder(16, 4),
        ETAIVAdder(16, 2),
        ETAIIAdder(16, 4),
        ExactMultiplier(8),
        TruncatedMultiplier(8, 8),
        TruncatedMultiplier(10, 12),
        AAMMultiplier(8),
        AAMMultiplier(8, compensation=False),
    ], ids=lambda op: op.name)
    def test_netlist_matches_functional_model(self, operator):
        agreement = verify_netlist_equivalence(operator, samples=200, seed=11)
        assert bool(np.all(agreement)), f"{operator.name}: {np.mean(agreement):.3f}"

    def test_ripple_carry_adder_exhaustive(self):
        netlist = ripple_carry_adder(4, registered=False)
        values = np.arange(16)
        a, b = np.meshgrid(values, values, indexing="ij")
        out = netlist.evaluate({"a": a.ravel(), "b": b.ravel()})["y"]
        assert np.array_equal(out, (a.ravel() + b.ravel()) & 0xF)

    def test_exact_multiplier_exhaustive_small(self):
        netlist = exact_multiplier(4, registered=False)
        values = np.arange(16)
        a, b = np.meshgrid(values, values, indexing="ij")
        out = netlist.evaluate({"a": a.ravel(), "b": b.ravel()})["y"]
        signed_a = ((a.ravel() ^ 8) - 8)
        signed_b = ((b.ravel() ^ 8) - 8)
        expected = (signed_a * signed_b) & 0xFF
        assert np.array_equal(out, expected)


class TestStructuralProperties:
    def test_registered_wrapper_adds_flops(self):
        bare = ripple_carry_adder(16, registered=False)
        registered = ripple_carry_adder(16, registered=True)
        assert bare.register_bits == 0
        assert registered.register_bits == 3 * 16

    def test_truncated_adder_core_shrinks_with_output(self):
        wide = quantized_output_adder(16, 14)
        narrow = quantized_output_adder(16, 4)
        assert narrow.gate_count() < wide.gate_count()
        assert narrow.critical_path_ns() < wide.critical_path_ns()

    def test_rounded_adder_costs_no_less_than_truncated(self):
        trunc = quantized_output_adder(16, 10, rounded=False)
        rounded = quantized_output_adder(16, 10, rounded=True)
        assert rounded.area_um2() >= trunc.area_um2()

    def test_truncated_multiplier_prunes_only_output_cones(self):
        full = exact_multiplier(16, 32)
        truncated = exact_multiplier(16, 16)
        assert truncated.gate_count() < full.gate_count()
        # Most of the grid must survive: the carries of the low columns feed
        # the kept half (this is the paper's "only modest savings" effect).
        assert truncated.gate_count() > 0.6 * full.gate_count()

    def test_aca_critical_path_shorter_than_ripple(self):
        rca = ripple_carry_adder(16)
        aca = aca_adder(16, 4)
        assert aca.critical_path_ns() < rca.critical_path_ns()

    def test_eta_critical_path_shorter_than_ripple(self):
        rca = ripple_carry_adder(16)
        eta = eta_adder(16, 4, speculation_blocks=2)
        assert eta.critical_path_ns() < rca.critical_path_ns()

    def test_rcaapx_cheaper_than_accurate_ripple(self):
        from repro.operators.adders import APPROX_FA_TYPE3

        accurate = ripple_carry_adder(16)
        approx = rca_approximate_adder(16, accurate_bits=8, cell=APPROX_FA_TYPE3)
        assert approx.area_um2() < accurate.area_um2()
        assert approx.critical_path_ns() < accurate.critical_path_ns()

    def test_aam_has_fewer_cells_than_full_array(self):
        full = exact_multiplier(16, 32, strategy="array")
        aam = aam_multiplier(16)
        assert aam.gate_count() < full.gate_count()

    def test_abm_cost_netlist_builds(self):
        abm = abm_multiplier(16)
        assert abm.gate_count() > 100
        assert abm.critical_path_ns() > 0

    def test_unknown_operator_rejected(self):
        class Strange:
            pass

        with pytest.raises(TypeError):
            build_netlist(Strange())

    def test_narrow_datapath_adder_not_verifiable(self):
        with pytest.raises(ValueError):
            verify_netlist_equivalence(TruncatedAdder(16, 10), samples=16)


class TestBuilderValidation:
    def test_eta_block_size_must_divide(self):
        with pytest.raises(ValueError):
            eta_adder(16, 5)

    def test_exact_multiplier_output_range(self):
        with pytest.raises(ValueError):
            exact_multiplier(8, 20)
        with pytest.raises(ValueError):
            exact_multiplier(8, 1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            exact_multiplier(8, 8, strategy="magic")
