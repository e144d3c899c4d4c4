"""Tests for the power estimator, characterisation flow and calibration."""
import pytest

from repro.hardware import (
    MonteCarloPowerEstimator,
    PAPER_REFERENCES,
    characterize_hardware,
    get_calibration,
    ripple_carry_adder,
)
from repro.operators import (
    AAMMultiplier,
    ExactAdder,
    TruncatedAdder,
    TruncatedMultiplier,
)


class TestPowerEstimators:
    def test_monte_carlo_power_positive(self):
        netlist = ripple_carry_adder(8)
        power = MonteCarloPowerEstimator(samples=300).estimate(netlist)
        assert power.dynamic_mw > 0
        assert power.register_mw > 0
        assert power.total_mw == pytest.approx(
            power.dynamic_mw + power.leakage_mw + power.register_mw)

    def test_power_scales_with_frequency(self):
        netlist = ripple_carry_adder(8)
        slow = MonteCarloPowerEstimator(frequency_hz=50e6, samples=300).estimate(netlist)
        fast = MonteCarloPowerEstimator(frequency_hz=200e6, samples=300).estimate(netlist)
        assert fast.dynamic_mw > 2.5 * slow.dynamic_mw

    def test_bigger_netlist_draws_more_power(self):
        small = ripple_carry_adder(4)
        big = ripple_carry_adder(16)
        estimator = MonteCarloPowerEstimator(samples=300)
        assert estimator.estimate(big).total_mw > estimator.estimate(small).total_mw

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            MonteCarloPowerEstimator(frequency_hz=0)
        with pytest.raises(ValueError):
            MonteCarloPowerEstimator(samples=1)


class TestCharacterization:
    def test_report_fields(self):
        report = characterize_hardware(ExactAdder(16), samples=400)
        assert report.operator == "ADD(16)"
        assert report.family == "adder"
        assert report.area_um2 > 0
        assert report.delay_ns > 0
        assert report.power_mw > 0
        assert report.pdp_pj == pytest.approx(report.power_mw * report.delay_ns)
        assert report.gate_count > 16

    def test_calibration_anchors_match_paper(self):
        """The reference operators must land exactly on the published values."""
        adder = characterize_hardware(ExactAdder(16), samples=400)
        assert adder.area_um2 == pytest.approx(PAPER_REFERENCES["adder"].area_um2, rel=1e-6)
        assert adder.delay_ns == pytest.approx(PAPER_REFERENCES["adder"].delay_ns, rel=1e-6)
        assert adder.power_mw == pytest.approx(PAPER_REFERENCES["adder"].power_mw, rel=1e-6)

        mult = characterize_hardware(TruncatedMultiplier(16, 16), samples=400)
        assert mult.area_um2 == pytest.approx(PAPER_REFERENCES["multiplier"].area_um2, rel=1e-6)
        assert mult.power_mw == pytest.approx(PAPER_REFERENCES["multiplier"].power_mw, rel=1e-6)

    def test_uncalibrated_reports_differ(self):
        raw = characterize_hardware(ExactAdder(16), samples=400, calibrated=False)
        assert raw.calibrated is False
        assert raw.area_um2 != pytest.approx(PAPER_REFERENCES["adder"].area_um2)

    def test_smaller_adder_costs_less(self):
        small = characterize_hardware(TruncatedAdder(16, 4), samples=400)
        big = characterize_hardware(ExactAdder(16), samples=400)
        assert small.area_um2 < big.area_um2
        assert small.power_mw < big.power_mw
        assert small.pdp_pj < big.pdp_pj

    def test_aam_energy_exceeds_truncated_multiplier(self):
        """The paper's headline multiplier result: AAM costs more energy per
        operation than the fixed-width truncated multiplier."""
        aam = characterize_hardware(AAMMultiplier(16), samples=400)
        mult = characterize_hardware(TruncatedMultiplier(16, 16), samples=400)
        assert aam.pdp_pj > 1.3 * mult.pdp_pj

    def test_multiplier_energy_scales_with_width(self):
        small = characterize_hardware(TruncatedMultiplier(10, 10), samples=400)
        big = characterize_hardware(TruncatedMultiplier(16, 16), samples=400)
        assert small.pdp_pj < 0.6 * big.pdp_pj

    def test_calibration_is_cached(self):
        first = get_calibration()
        second = get_calibration()
        assert first is second

    def test_report_serialisation(self):
        report = characterize_hardware(ExactAdder(16), samples=400)
        data = report.to_dict()
        assert data["operator"] == "ADD(16)"
        assert data["pdp_pj"] == pytest.approx(report.pdp_pj)
        scaled = report.scaled(area=2.0)
        assert scaled.area_um2 == pytest.approx(2 * report.area_um2)
