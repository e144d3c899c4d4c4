"""Integration tests: the experiment modules reproduce the paper's findings.

These tests run scaled-down versions of every table / figure and assert the
*qualitative* claims of the paper — who wins, in which metric, by roughly
what kind of margin — rather than absolute numbers, which depend on the
substituted hardware substrate.
"""
import numpy as np
import pytest

from repro.core import default_adder_sweep, default_multiplier_set, joint_adder_space
from repro.experiments import (
    adder_error_cost_study,
    fft_adder_sweep,
    fft_multiplier_comparison,
    hevc_adder_table,
    hevc_multiplier_table,
    jpeg_adder_sweep,
    jpeg_design_space,
    kmeans_adder_table,
    kmeans_multiplier_table,
    multiplier_compensation_ablation,
    multiplier_comparison,
    rounding_mode_ablation,
)
from repro.experiments.adders_study import _group_name
from repro.operators import (
    ACAAdder,
    ETAIVAdder,
    RCAApxAdder,
    RoundedAdder,
    TruncatedAdder,
)


@pytest.fixture(scope="module")
def adder_study():
    operators = [TruncatedAdder(16, k) for k in (15, 12, 10, 8, 5, 2)]
    operators += [RoundedAdder(16, k) for k in (12, 8)]
    operators += [ACAAdder(16, p) for p in (4, 8, 12)]
    operators += [ETAIVAdder(16, x) for x in (2, 4, 8)]
    operators += [RCAApxAdder(16, m, 1) for m in (4, 8, 12)]
    return adder_error_cost_study(operators=operators, error_samples=20_000,
                                  hardware_samples=400).run()


@pytest.fixture(scope="module")
def table1():
    return multiplier_comparison(error_samples=20_000, hardware_samples=400).run()


def swept_names(study):
    return [key["swept"] for key in study.point_keys()]


class TestSweepDefinitions(object):
    """The exported operator sets are exactly what the experiments sweep."""

    @pytest.mark.parametrize("reduced", [True, False])
    def test_default_adder_sweep_is_the_figure3_4_sweep(self, reduced):
        names = [operator.name
                 for operator in default_adder_sweep(reduced=reduced)]
        assert names == swept_names(adder_error_cost_study(reduced=reduced))
        assert len(names) == (27 if reduced else 88)

    def test_multiplier_tables_sweep_the_default_set(self, small_image,
                                                     point_cloud):
        names = [operator.name for operator in default_multiplier_set()]
        assert swept_names(multiplier_comparison()) == names
        assert swept_names(fft_multiplier_comparison()) == names
        assert swept_names(hevc_multiplier_table(image=small_image)) == names
        assert swept_names(kmeans_multiplier_table(clouds=[point_cloud])) \
            == names + ["MULt(16,4)"]


class TestFigure3And4(object):
    def test_reduced_sweep_covers_every_group(self):
        """The reduced run plots every legend group of Figs. 3 and 4."""
        operators = default_adder_sweep(reduced=True)
        assert len(operators) >= 15
        assert {_group_name(operator) for operator in operators} >= {
            "Fxp add. - trunc.", "Fxp add. - round.", "ACA", "ETAIV",
            "RCAApx"}

    def test_columns_present(self, adder_study):
        for column in ("operator", "mse_db", "ber", "power_mw", "delay_ns",
                       "pdp_pj", "area_um2"):
            assert column in adder_study.columns

    def test_fxp_reaches_better_mse_than_approximate(self, adder_study):
        """FxP adders reach MSE levels no genuinely approximate adder attains
        (Fig. 3).  Degenerate configurations that are exact by construction
        (e.g. ETAIV with a single effective block) are excluded."""
        best_fxp = min(row["mse_db"] for row in adder_study.rows
                       if row["group"].startswith("Fxp"))
        approx = [row["mse_db"] for row in adder_study.rows
                  if not row["group"].startswith("Fxp")
                  and np.isfinite(row["mse_db"])]
        assert best_fxp < min(approx) - 10.0

    def test_fxp_power_lower_than_approximate_at_same_mse(self, adder_study):
        """For moderate accuracy targets the truncated adder needs less power."""
        target = -40.0
        fxp = [row for row in adder_study.rows
               if row["group"] == "Fxp add. - trunc." and row["mse_db"] <= target]
        approx = [row for row in adder_study.rows
                  if not row["group"].startswith("Fxp") and row["mse_db"] <= target]
        assert fxp, "no FxP adder reaches the accuracy target"
        if approx:
            assert min(r["power_mw"] for r in fxp) < min(r["power_mw"] for r in approx)

    def test_approximate_adders_dominate_on_delay(self, adder_study):
        """Most approximate adders are faster than the accurate-length ripple."""
        fxp_accurate_delay = max(row["delay_ns"] for row in adder_study.rows
                                 if row["operator"] == "ADDt(16,15)")
        aca_delays = [row["delay_ns"] for row in adder_study.rows
                      if row["group"] == "ACA"]
        assert all(delay < fxp_accurate_delay for delay in aca_delays)

    def test_approximate_adders_win_on_ber(self, adder_study):
        """Figure 4: approximate adders achieve much lower BER than truncation
        at equal-ish cost, because forced-zero LSBs count as bit errors."""
        aca_ber = min(row["ber"] for row in adder_study.rows if row["group"] == "ACA")
        addt10_ber = adder_study.row_for("operator", "ADDt(16,10)")["ber"]
        assert aca_ber < addt10_ber / 3

    def test_truncated_power_shrinks_with_output_width(self, adder_study):
        p15 = adder_study.row_for("operator", "ADDt(16,15)")["power_mw"]
        p2 = adder_study.row_for("operator", "ADDt(16,2)")["power_mw"]
        assert p2 < p15
        assert p15 / p2 < 5.0  # registers keep the ratio modest, as in Fig. 3


class TestTable1(object):
    def test_rows(self, table1):
        assert [row["operator"] for row in table1.rows] \
            == ["MULt(16,16)", "AAM(16)", "ABM(16)"]

    def test_mult_is_most_accurate_and_least_power(self, table1):
        mult = table1.row_for("operator", "MULt(16,16)")
        aam = table1.row_for("operator", "AAM(16)")
        abm = table1.row_for("operator", "ABM(16)")
        assert mult["mse_db"] <= aam["mse_db"] + 1.0
        assert mult["mse_db"] < abm["mse_db"] - 50.0
        assert mult["power_mw"] <= aam["power_mw"] * 1.05

    def test_aam_energy_overhead(self, table1):
        mult = table1.row_for("operator", "MULt(16,16)")
        aam = table1.row_for("operator", "AAM(16)")
        assert aam["pdp_pj"] > 1.3 * mult["pdp_pj"]

    def test_abm_mse_catastrophic_but_ber_similar(self, table1):
        mult = table1.row_for("operator", "MULt(16,16)")
        abm = table1.row_for("operator", "ABM(16)")
        assert abm["mse_db"] > -20.0
        assert abs(abm["ber_percent"] - mult["ber_percent"]) < 10.0

    def test_anchor_values_match_paper(self, table1):
        mult = table1.row_for("operator", "MULt(16,16)")
        assert mult["power_mw"] == pytest.approx(0.273, rel=0.01)
        assert mult["delay_ns"] == pytest.approx(0.91, rel=0.01)
        assert mult["area_um2"] == pytest.approx(805.2, rel=0.01)
        assert mult["mse_db"] == pytest.approx(-89.1, abs=1.0)
        assert mult["ber_percent"] == pytest.approx(23.4, abs=1.0)


class TestFftExperiments(object):
    def test_figure5_reduced_space(self):
        adders = [point.adder for point in joint_adder_space(reduced=True)]
        assert len(adders) >= 10
        assert any(adder.name.startswith("ADDt") for adder in adders)

    def test_figure5_fxp_dominates_at_equal_psnr(self):
        adders = [TruncatedAdder(16, k) for k in (13, 11, 9)] \
            + [ACAAdder(16, 10), ETAIVAdder(16, 4), RCAApxAdder(16, 6, 1)]
        result = fft_adder_sweep(adders=adders, frames=3).run()
        fxp = [r for r in result.rows if r["adder"].startswith("ADDt")]
        approx = [r for r in result.rows if not r["adder"].startswith("ADDt")]
        # For every approximate adder there is a FxP configuration with at
        # least the same PSNR and lower total energy (Figure 5's conclusion).
        for row in approx:
            dominating = [f for f in fxp
                          if f["psnr_db"] >= row["psnr_db"] - 1.0
                          and f["total_energy_pj"] < row["total_energy_pj"]]
            assert dominating, f"{row['adder']} not dominated"

    def test_table2_multiplier_comparison(self):
        result = fft_multiplier_comparison(frames=3).run()
        mult = result.row_for("multiplier", "MULt(16,16)")
        aam = result.row_for("multiplier", "AAM(16)")
        abm = result.row_for("multiplier", "ABM(16)")
        assert aam["total_energy_pj"] > 1.5 * mult["total_energy_pj"]
        assert abs(aam["psnr_db"] - mult["psnr_db"]) < 12.0
        assert abm["psnr_db"] < 0.0


class TestJpegExperiment(object):
    @pytest.fixture(scope="class")
    def figure6(self, small_image):
        adders = [TruncatedAdder(16, k) for k in (14, 12, 10)] \
            + [ETAIVAdder(16, 8), RCAApxAdder(16, 6, 1)]
        return jpeg_adder_sweep(image=small_image, adders=adders).run()

    def test_figure6_reduced_space(self):
        assert len(jpeg_design_space(reduced=True)) >= 8

    def test_figure6_best_fxp_mssim(self, figure6):
        fxp = [r for r in figure6.rows if r["adder"].startswith("ADDt")]
        assert max(r["mssim"] for r in fxp) > 0.95

    def test_figure6_fxp_dominates(self, figure6):
        result = figure6
        fxp_good = [r for r in result.rows
                    if r["adder"].startswith("ADDt") and r["mssim"] > 0.9]
        assert fxp_good, "no FxP configuration reaches MSSIM 0.9"
        cheapest_good_fxp = min(r["dct_energy_pj"] for r in fxp_good)
        approx_good = [r for r in result.rows
                       if not r["adder"].startswith("ADDt") and r["mssim"] > 0.9]
        for row in approx_good:
            assert row["dct_energy_pj"] > cheapest_good_fxp


class TestHevcExperiments(object):
    def test_table3_energy_overhead_of_approximate_adders(self, small_image):
        result = hevc_adder_table(image=small_image).run()
        fxp = result.row_for("adder", "ADDt(16,10)")
        for name in ("ACA(16,12)", "ETAIV(16,4)", "RCAApx(16,6,3)"):
            approx = result.row_for("adder", name)
            assert approx["total_energy_pj"] > 1.5 * fxp["total_energy_pj"]
            assert approx["mult_energy_pj"] > 2.0 * fxp["mult_energy_pj"]

    def test_table3_mssim_levels(self, small_image):
        result = hevc_adder_table(image=small_image).run()
        assert result.row_for("adder", "ADDt(16,10)")["mssim_percent"] > 95.0
        assert result.row_for("adder", "RCAApx(16,6,3)")["mssim_percent"] > 95.0

    def test_table4_aam_energy_overhead(self, small_image):
        result = hevc_multiplier_table(image=small_image).run()
        mult = result.row_for("multiplier", "MULt(16,16)")
        aam = result.row_for("multiplier", "AAM(16)")
        assert aam["total_energy_pj"] > 1.4 * mult["total_energy_pj"]
        assert aam["mssim_percent"] > 99.0


class TestKmeansExperiments(object):
    @pytest.fixture(scope="class")
    def clouds(self):
        from repro.experiments import default_point_clouds

        return default_point_clouds(runs=2, points_per_run=800)

    def test_table5_high_accuracy_group(self, clouds):
        adders = (TruncatedAdder(16, 11), ACAAdder(16, 12), ETAIVAdder(16, 4),
                  RCAApxAdder(16, 6, 3))
        result = kmeans_adder_table(clouds=clouds, adders=adders,
                                    iterations=5).run()
        for row in result.rows:
            assert row["success_rate_percent"] > 90.0
        fxp = result.row_for("adder", "ADDt(16,11)")
        for name in ("ACA(16,12)", "ETAIV(16,4)", "RCAApx(16,6,3)"):
            assert result.row_for("adder", name)["total_energy_pj"] \
                > 1.5 * fxp["total_energy_pj"]

    def test_table6_multipliers(self, clouds):
        result = kmeans_multiplier_table(clouds=clouds, iterations=5).run()
        mult = result.row_for("multiplier", "MULt(16,16)")
        aam = result.row_for("multiplier", "AAM(16)")
        severe = result.row_for("multiplier", "MULt(16,4)")
        assert mult["success_rate_percent"] > 97.0
        assert aam["success_rate_percent"] > 95.0
        assert aam["total_energy_pj"] > 1.4 * mult["total_energy_pj"]
        assert severe["success_rate_percent"] < 70.0


class TestAblations(object):
    def test_compensation_ablation(self):
        result = multiplier_compensation_ablation(error_samples=15_000,
                                                  hardware_samples=300).run()
        rows = {row["variant"]: row for row in result.rows}
        assert rows["AAM compensated"]["mse_db"] < rows["AAM pruned only"]["mse_db"]
        assert rows["ABM exact conversion"]["mse_db"] \
            < rows["ABM compensated"]["mse_db"] - 40.0

    @pytest.fixture(scope="class")
    def rounding_ablation(self):
        return rounding_mode_ablation(error_samples=15_000,
                                      hardware_samples=300).run()

    def test_rounding_mode_ablation_default_widths(self, rounding_ablation):
        assert len(rounding_ablation.rows) == 15  # 3 modes at each default width

    def test_rounding_mode_ablation(self, rounding_ablation):
        for width in (14, 12, 10, 8, 6):
            rows = [r for r in rounding_ablation.rows
                    if r["output_width"] == width]
            by_mode = {r["mode"]: r for r in rows}
            assert by_mode["round"]["mse_db"] < by_mode["truncate"]["mse_db"]
            assert abs(by_mode["round-to-even"]["bias"]) \
                <= abs(by_mode["truncate"]["bias"])
