"""Tests for the design-space engine: points, spaces, Pareto fronts and the
joint operator × word-length frontiers."""
import numpy as np
import pytest

from repro import Study
from repro.core import DatapathEnergyModel, ParetoFront
from repro.core.designspace import (
    AXIS_APPROXIMATE,
    AXIS_SIZED,
    DesignPoint,
    DesignSpace,
    adder_axis,
    adder_point,
    classify_axis,
    exact_pair_point,
    joint_adder_space,
    multiplier_axis,
    operator_axis,
    sized_adder_axis,
    sized_multiplier_axis,
)
from repro.experiments import fft_joint_frontier, jpeg_joint_frontier
from repro.fxp.format import FxpFormat
from repro.operators.adders import ACAAdder, ExactAdder, RoundedAdder, TruncatedAdder
from repro.operators.multipliers import AAMMultiplier, TruncatedMultiplier


class TestDesignPoint(object):
    def test_sized_point_carries_propagated_multiplier(self):
        point = adder_point(TruncatedAdder(16, 10))
        assert point.axis == AXIS_SIZED
        assert point.multiplier.name == "MULt(10,10)"
        assert point.emitted_width == 10
        assert point.fxp_format() == FxpFormat.for_word_length(10)

    def test_approximate_point_pays_full_width_multiplier(self):
        point = adder_point(ACAAdder(16, 8))
        assert point.axis == AXIS_APPROXIMATE
        # The hidden cost: an approximate adder emits full-width data.
        assert point.multiplier.name == "MULt(16,16)"
        assert point.emitted_width == 16

    def test_classify_axis(self):
        assert classify_axis(TruncatedAdder(16, 10)) == AXIS_SIZED
        assert classify_axis(RoundedAdder(16, 10)) == AXIS_SIZED
        assert classify_axis(ACAAdder(16, 8)) == AXIS_APPROXIMATE
        assert classify_axis(TruncatedMultiplier(16, 8)) == AXIS_SIZED
        assert classify_axis(AAMMultiplier(16)) == AXIS_APPROXIMATE

    def test_role_validation(self):
        with pytest.raises(ValueError, match="role"):
            DesignPoint(adder=ExactAdder(16), role="bogus")
        with pytest.raises(ValueError, match="adder"):
            DesignPoint(multiplier=AAMMultiplier(16), role="adder")

    def test_describe_carries_frontier_metadata(self):
        info = adder_point(TruncatedAdder(16, 12)).describe()
        assert info["axis"] == AXIS_SIZED
        assert info["word_length"] == 12
        assert info["design"] == "sized:ADDt(16,12)"


class TestDesignSpace(object):
    def test_deduplicates_by_key(self):
        space = DesignSpace([adder_point(TruncatedAdder(16, 10)),
                             adder_point(TruncatedAdder(16, 10)),
                             adder_point(TruncatedAdder(16, 8))])
        assert len(space) == 2

    def test_composition_preserves_order(self):
        space = sized_adder_axis(16, word_lengths=[12, 10]) \
            + adder_axis([ACAAdder(16, 8)])
        assert space.labels() == ["sized:ADDt(16,12)", "sized:ADDt(16,10)",
                                  "approximate:ACA(16,8)"]

    def test_subset_by_axis(self):
        space = joint_adder_space(16, reduced=True)
        sized = space.subset(AXIS_SIZED)
        approx = space.subset(AXIS_APPROXIMATE)
        assert len(sized) + len(approx) == len(space)
        assert sized.axes() == [AXIS_SIZED]

    def test_sized_axis_from_fxp_formats(self):
        formats = [FxpFormat.for_word_length(w) for w in (14, 10)]
        space = sized_adder_axis(16, formats=formats)
        assert [p.adder.name for p in space] == ["ADDt(16,14)", "ADDt(16,10)"]

    def test_sized_multiplier_axis(self):
        space = sized_multiplier_axis(16, word_lengths=[8])
        point = next(iter(space))
        assert point.multiplier.name == "MULt(16,8)"
        assert point.role == "multiplier"
        assert point.adder is not None  # sizing-propagated exact adder

    def test_operator_axis_roles(self):
        space = operator_axis([ExactAdder(16), AAMMultiplier(16)])
        roles = [p.role for p in space]
        assert roles == ["operator", "operator"]

    def test_multiplier_axis_explicit_pair(self):
        space = multiplier_axis([AAMMultiplier(16)], pair=ExactAdder(16))
        point = next(iter(space))
        assert point.adder.name == "ADD(16)"

    def test_unhashable_config_values_dedup_by_content(self):
        image = np.zeros((4, 4))
        first = adder_point(ExactAdder(16), config={"image": image})
        second = adder_point(ExactAdder(16), config={"image": image.copy()})
        other = adder_point(ExactAdder(16), config={"image": image + 1})
        space = DesignSpace([first, second, other])
        assert len(space) == 2

    def test_table_multiplier_spaces_pair_per_operand_width(self, small_image,
                                                           point_cloud):
        from repro.experiments import (
            fft_multiplier_comparison,
            hevc_multiplier_table,
            kmeans_multiplier_table,
        )

        multipliers = [TruncatedMultiplier(8, 8), TruncatedMultiplier(16, 16)]
        studies = {
            "Study.multipliers": Study().multipliers(multipliers),
            "Table II": fft_multiplier_comparison(multipliers=multipliers),
            "Table IV": hevc_multiplier_table(image=small_image,
                                              multipliers=multipliers),
            "Table VI": kmeans_multiplier_table(clouds=[point_cloud],
                                                multipliers=multipliers),
        }
        assert [exact_pair_point(m).adder.name for m in multipliers] \
            == ["ADD(8)", "ADD(16)"]
        for source, study in studies.items():
            assert [p.adder.name for p in study._points] \
                == ["ADD(8)", "ADD(16)"], source

    def test_inject_pair_feeds_partner_into_simulation(self):
        def study(inject):
            return (Study()
                    .workload("fft", size=16, frames=2)
                    .design_space(adder_axis([TruncatedAdder(16, 10)],
                                             pair=TruncatedMultiplier(16, 8),
                                             inject_pair=inject)))

        charged, injected = study(False), study(True)
        assert charged.point_keys()[0]["multiplier"] is None
        assert injected.point_keys()[0]["multiplier"] == "MULt(16,8)"
        assert charged.run().rows[0]["psnr_db"] \
            != injected.run().rows[0]["psnr_db"]


class TestParetoFront(object):
    def _rows(self):
        # (quality maximised, cost minimised); rows 1, 3 and 4 are on the
        # front; row 2 is dominated by row 1; row 5 duplicates row 3.
        return [
            {"q": 10.0, "c": 1.0},
            {"q": 9.0, "c": 1.5},
            {"q": 20.0, "c": 3.0},
            {"q": 30.0, "c": 9.0},
            {"q": 20.0, "c": 3.0},
        ]

    def test_front_contents(self):
        front = ParetoFront.from_rows(self._rows(), quality="q", cost="c")
        assert front.evaluated == 5
        assert [(r.quality, r.cost) for r in front.records] == \
            [(10.0, 1.0), (20.0, 3.0), (20.0, 3.0), (30.0, 9.0)]

    def test_order_invariance(self):
        rows = self._rows()
        reference = ParetoFront.from_rows(rows, quality="q", cost="c")
        rng = np.random.default_rng(3)
        for _ in range(10):
            order = rng.permutation(len(rows))
            shuffled = ParetoFront(quality="q", cost="c")
            for index in order:
                shuffled.update(rows[index], int(index))
            assert shuffled.to_dict() == reference.to_dict()

    def test_minimised_quality_sense(self):
        rows = [{"q": 1.0, "c": 5.0}, {"q": 2.0, "c": 1.0}, {"q": 3.0, "c": 0.5}]
        front = ParetoFront.from_rows(rows, quality="q", cost="c",
                                      maximize_quality=False)
        assert [(r.quality, r.cost) for r in front.records] == \
            [(3.0, 0.5), (2.0, 1.0), (1.0, 5.0)]

    def test_nan_rows_never_enter(self):
        front = ParetoFront(quality="q", cost="c")
        assert not front.update({"q": float("nan"), "c": 1.0}, 0)
        assert not front.update({"c": 1.0}, 1)  # missing quality column
        assert len(front) == 0 and front.evaluated == 2

    def test_serialisation_round_trip(self):
        front = ParetoFront.from_rows(self._rows(), quality="q", cost="c")
        clone = ParetoFront.from_dict(front.to_dict())
        assert clone == front
        assert clone.evaluated == front.evaluated


class TestJointFrontiers(object):
    @pytest.fixture(scope="class")
    def energy_model(self):
        return DatapathEnergyModel(hardware_samples=300)

    @pytest.fixture(scope="class")
    def fft_result(self, energy_model):
        return fft_joint_frontier(size=16, frames=2, reduced=True) \
            .energy(energy_model).run()

    def test_fft_front_contains_both_axes(self, fft_result):
        front = fft_result.fronts["psnr_db_vs_total_energy_pj"]
        assert len(front) >= 2
        axes = {row["axis"] for row in front.rows}
        assert axes == {AXIS_SIZED, AXIS_APPROXIMATE}

    def test_fft_front_energy_is_sizing_propagated(self, fft_result):
        # Every sized row must be charged for the *data-sized* multiplier,
        # every approximate row for the full-width one (the hidden cost).
        for row in fft_result.rows:
            if row["axis"] == AXIS_SIZED:
                assert row["multiplier"] == \
                    f"MULt({row['word_length']},{row['word_length']})"
            else:
                assert row["multiplier"] == "MULt(16,16)"

    def test_fft_serial_and_parallel_fronts_identical(self, energy_model):
        serial = fft_joint_frontier(size=16, frames=2, reduced=True) \
            .energy(energy_model).run(workers=1)
        parallel = fft_joint_frontier(size=16, frames=2, reduced=True) \
            .energy(energy_model).run(workers=4)
        assert serial.rows == parallel.rows
        key = "psnr_db_vs_total_energy_pj"
        assert serial.fronts[key].to_dict() == parallel.fronts[key].to_dict()

    def test_jpeg_joint_frontier_compares_both_axes(self, energy_model):
        result = jpeg_joint_frontier(image_size=48, reduced=True) \
            .energy(energy_model).run()
        # The joint comparison sweeps both populations ...
        assert {row["axis"] for row in result.rows} == \
            {AXIS_SIZED, AXIS_APPROXIMATE}
        front = result.fronts["mssim_vs_total_energy_pj"]
        assert len(front) >= 2
        # ... and reproduces the paper's headline finding: at every quality
        # level the frontier is carried by careful sizing — the approximate
        # adders are dominated (their full-width multiplier is the hidden
        # cost), so no approximate point beats the sized front.
        sized_rows = [row for row in front.rows if row["axis"] == AXIS_SIZED]
        assert sized_rows, "the sized axis must reach the JPEG front"

    def test_front_survives_result_serialisation(self, fft_result, tmp_path):
        from repro.core import ExperimentResult

        path = fft_result.save_json(tmp_path / "frontier.json")
        loaded = ExperimentResult.load_json(path)
        key = "psnr_db_vs_total_energy_pj"
        assert loaded.fronts[key] == fft_result.fronts[key]

    def test_front_matches_offline_extraction(self, fft_result):
        key = "psnr_db_vs_total_energy_pj"
        offline = ParetoFront.from_result(fft_result, "psnr_db",
                                          "total_energy_pj")
        assert offline.to_dict() == fft_result.fronts[key].to_dict()


class TestWordLengthConfigAxis(object):
    def test_per_point_config_overrides(self):
        # Two design points differing only in the workload word length: the
        # narrower datapath must lose quality (and the space keeps both).
        points = [
            DesignPoint(adder=ExactAdder(16),
                        multiplier=TruncatedMultiplier(16, 16),
                        axis="sized", word_length=16, inject_pair=True),
            DesignPoint(adder=ExactAdder(12),
                        multiplier=TruncatedMultiplier(12, 12),
                        axis="sized", word_length=12, inject_pair=True,
                        config=(("data_width", 12),)),
        ]
        result = (Study()
                  .workload("fft", size=16, frames=2)
                  .design_space(points)
                  .seed(3)
                  .run())
        wide, narrow = result.rows
        assert wide["psnr_db"] > narrow["psnr_db"] + 5.0
