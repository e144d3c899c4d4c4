"""Tests for the APXPERF core: registry, characterisation, sweeps, datapath,
results containers."""
import numpy as np
import pytest

from repro.core import (
    Apxperf,
    DatapathEnergyModel,
    ExperimentResult,
    OperationCounter,
    OperationCounts,
    ResultBundle,
    default_adder_sweep,
    default_multiplier_set,
    minimal_adder_for,
    minimal_multiplier_for,
    parse_operator,
    parse_operators,
    register_operator,
    registered_mnemonics,
    sweep_aca_adders,
    sweep_rcaapx_adders,
    sweep_truncated_adders,
)
from repro.operators import (
    ACAAdder,
    ExactAdder,
    RCAApxAdder,
    TruncatedAdder,
    TruncatedMultiplier,
)


class TestRegistry:
    @pytest.mark.parametrize("spec,expected_type,expected_name", [
        ("ADDt(16,10)", TruncatedAdder, "ADDt(16,10)"),
        ("ACA(16,12)", ACAAdder, "ACA(16,12)"),
        ("RCAApx(16,6,3)", RCAApxAdder, "RCAApx(16,6,3)"),
        ("MULt(16,16)", TruncatedMultiplier, "MULt(16,16)"),
        ("ADD(16)", ExactAdder, "ADD(16)"),
    ])
    def test_parse_paper_notation(self, spec, expected_type, expected_name):
        operator = parse_operator(spec)
        assert isinstance(operator, expected_type)
        assert operator.name == expected_name

    def test_parse_is_case_insensitive_on_mnemonic(self):
        assert parse_operator("aam(16)").name == "AAM(16)"

    def test_parse_many(self):
        operators = parse_operators(["ADDt(16,8)", "ETAIV(16,4)"])
        assert [op.name for op in operators] == ["ADDt(16,8)", "ETAIV(16,4)"]

    def test_unknown_mnemonic(self):
        with pytest.raises(KeyError):
            parse_operator("FOO(16)")

    def test_malformed_spec(self):
        with pytest.raises(ValueError):
            parse_operator("ADDt(16")

    def test_custom_registration(self):
        register_operator("MyAdder", lambda n: ExactAdder(n))
        assert "myadder" in registered_mnemonics()
        assert parse_operator("MyAdder(8)").input_width == 8


class TestSweeps:
    def test_truncated_sweep_covers_paper_range(self):
        sweep = sweep_truncated_adders(16)
        widths = [op.output_width for op in sweep]
        assert widths[0] == 15 and widths[-1] == 2
        assert len(sweep) == 14

    def test_aca_sweep(self):
        assert all(isinstance(op, ACAAdder) for op in sweep_aca_adders(16, [2, 8]))

    def test_rcaapx_sweep_covers_types(self):
        sweep = sweep_rcaapx_adders(16, [4, 8], fa_types=(1, 3))
        assert len(sweep) == 4

    def test_default_adder_sweep_contains_all_families(self):
        names = [op.name for op in default_adder_sweep(16)]
        for prefix in ("ADDt", "ADDr", "ACA", "ETAIV", "RCAApx"):
            assert any(name.startswith(prefix) for name in names)

    def test_default_multiplier_set(self):
        names = [op.name for op in default_multiplier_set(16)]
        assert names == ["MULt(16,16)", "AAM(16)", "ABM(16)"]


class TestCharacterizationFacade:
    def test_characterize_string_spec(self):
        harness = Apxperf(error_samples=5000, hardware_samples=300)
        record = harness.characterize("ADDt(16,10)")
        assert record.operator == "ADDt(16,10)"
        assert record.family == "adder"
        assert -65 < record.mse_db < -50
        assert record.pdp_pj > 0
        assert record.to_dict()["hardware"]["area_um2"] > 0

    def test_characterize_with_verification(self):
        harness = Apxperf(error_samples=2000, hardware_samples=300)
        record = harness.characterize(ExactAdder(16), verify=True)
        assert record.equivalence_checked is True

    def test_characterize_many(self):
        harness = Apxperf(error_samples=2000, hardware_samples=300)
        records = harness.characterize_many(["ADDt(16,8)", "ACA(16,8)"])
        assert [r.operator for r in records] == ["ADDt(16,8)", "ACA(16,8)"]


class TestDatapath:
    def test_counts_arithmetic(self):
        counts = OperationCounts(10, 5) + OperationCounts(2, 3)
        assert counts.additions == 12
        assert counts.multiplications == 8
        assert counts.scaled(2).additions == 24

    def test_counter_snapshot(self):
        counter = OperationCounter()
        counter.count_additions(7)
        counter.count_multiplications(3)
        snapshot = counter.snapshot()
        assert (snapshot.additions, snapshot.multiplications) == (7, 3)
        counter.reset()
        assert counter.additions == 0

    def test_minimal_multiplier_follows_adder_width(self):
        assert minimal_multiplier_for(TruncatedAdder(16, 10)).input_width == 10
        assert minimal_multiplier_for(ACAAdder(16, 8)).input_width == 16

    def test_minimal_adder_follows_multiplier_width(self):
        adder = minimal_adder_for(TruncatedMultiplier(16, 16))
        assert adder.output_width == 16

    def test_application_energy_breakdown(self):
        model = DatapathEnergyModel(hardware_samples=300)
        counts = OperationCounts(additions=100, multiplications=50)
        breakdown = model.application_energy_pj(counts, TruncatedAdder(16, 10))
        assert breakdown.total_energy_pj == pytest.approx(
            breakdown.adder_energy_pj + breakdown.multiplier_energy_pj)
        assert breakdown.multiplier == "MULt(10,10)"
        assert breakdown.to_dict()["additions"] == 100

    def test_sized_datapath_cheaper_than_approximate(self):
        """Equation 1's point: the data-sized adder shrinks the multiplier too."""
        model = DatapathEnergyModel(hardware_samples=300)
        counts = OperationCounts(additions=480, multiplications=320)
        sized = model.application_energy_pj(counts, TruncatedAdder(16, 10))
        approximate = model.application_energy_pj(counts, ACAAdder(16, 12))
        assert sized.total_energy_pj < 0.5 * approximate.total_energy_pj

    def test_constant_coefficient_discount(self):
        model = DatapathEnergyModel(hardware_samples=300)
        mult = TruncatedMultiplier(16, 16)
        assert model.energy_per_multiplication_pj(mult, constant_coefficient=True) \
            == pytest.approx(0.5 * model.energy_per_multiplication_pj(mult))

    def test_reports_are_cached(self):
        model = DatapathEnergyModel(hardware_samples=300)
        first = model.report_for(ExactAdder(16))
        second = model.report_for(ExactAdder(16))
        assert first is second


class TestResults:
    def test_add_row_validates_columns(self):
        result = ExperimentResult("exp", "desc", columns=["a", "b"])
        result.add_row(a=1, b=2.5)
        with pytest.raises(ValueError):
            result.add_row(a=1)
        assert result.column("a") == [1]
        assert result.row_for("a", 1)["b"] == 2.5

    def test_unknown_column_and_row(self):
        result = ExperimentResult("exp", "desc", columns=["a"])
        result.add_row(a=1)
        with pytest.raises(KeyError):
            result.column("zz")
        with pytest.raises(KeyError):
            result.row_for("a", 99)

    def test_json_roundtrip(self, tmp_path):
        result = ExperimentResult("exp", "desc", columns=["op", "value"])
        result.add_row(op="ADDt(16,10)", value=np.float64(1.5))
        path = result.save_json(tmp_path / "exp.json")
        loaded = ExperimentResult.load_json(path)
        assert loaded.experiment == "exp"
        assert loaded.rows[0]["value"] == pytest.approx(1.5)

    def test_text_rendering(self):
        result = ExperimentResult("exp", "desc", columns=["op", "value"])
        result.add_row(op="X", value=0.123456)
        text = result.to_text()
        assert "exp" in text and "0.1235" in text

    def test_bundle_save_all(self, tmp_path):
        bundle = ResultBundle()
        result = ExperimentResult("exp1", "desc", columns=["a"])
        result.add_row(a=1)
        bundle.add(result)
        paths = bundle.save_all(tmp_path)
        assert len(paths) == 1
        assert bundle.get("exp1").rows[0]["a"] == 1
        assert "exp1" in bundle.summary()
