"""Tests for the workload plugin API and the fluent Study pipeline."""
import hashlib
import json

import numpy as np
import pytest

import repro
from repro.core import (
    MODEL_VERSION,
    DatapathEnergyModel,
    Study,
    key_digest,
    parse_spec,
    unique_by_name,
)
from repro.core.exploration import sweep_truncated_adders
from repro.operators.adders import ACAAdder, TruncatedAdder
from repro.operators.multipliers import TruncatedMultiplier
from repro.workloads import (
    CharacterizationWorkload,
    FftWorkload,
    OperatorMap,
    Workload,
    WorkloadResult,
    create_workload,
    parse_workload,
    register_workload,
    registered_workloads,
)


class TestSpecParsing(object):
    def test_positional_and_keyword_arguments(self):
        name, args, kwargs = parse_spec("ACA(16, prediction_bits=12)")
        assert name == "ACA"
        assert args == [16]
        assert kwargs == {"prediction_bits": 12}

    def test_value_types(self):
        _, args, kwargs = parse_spec("x(2, 0.5, flag=true, other=false, w=none)")
        assert args == [2, 0.5]
        assert kwargs == {"flag": True, "other": False, "w": None}

    def test_malformed_argument_names_token(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_spec("ACA(16, bogus)")

    def test_positional_after_keyword_rejected(self):
        with pytest.raises(ValueError, match="positional"):
            parse_spec("ACA(a=1, 16)")

    def test_operator_kwargs_round_trip(self):
        from repro.core import parse_operator

        assert parse_operator("ACA(16, prediction_bits=12)").name == "ACA(16,12)"

    def test_operator_bad_kwarg_is_value_error(self):
        from repro.core import parse_operator

        with pytest.raises(ValueError, match="ACA"):
            parse_operator("ACA(16, no_such_parameter=3)")


class TestWorkloadRegistry(object):
    def test_builtins_registered(self):
        names = registered_workloads()
        for name in ("fft", "jpeg", "hevc", "kmeans", "characterization"):
            assert name in names

    def test_spec_round_trip(self):
        workload = parse_workload("fft(1024, frames=2)")
        assert isinstance(workload, FftWorkload)
        assert workload.size == 1024
        assert workload.frames == 2
        config = workload.default_config()
        assert config["size"] == 1024 and config["frames"] == 2

    def test_keyword_only_spec(self):
        workload = parse_workload("jpeg(size=96, quality=75)")
        assert workload.default_config()["size"] == 96
        assert workload.default_config()["quality"] == 75

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="no_such_workload"):
            create_workload("no_such_workload")

    @pytest.mark.parametrize("overrides", [{"no_such_key": 1},
                                           {"fused": False}],
                             ids=["no_such_key", "fused"])
    @pytest.mark.parametrize("name", ["fft", "jpeg", "hevc", "kmeans"])
    def test_unknown_config_key_rejected(self, name, overrides):
        workload = parse_workload(name)
        (key,) = overrides
        with pytest.raises(ValueError, match=key):
            workload.merged_config(overrides)

    def test_custom_workload_plugin(self):
        class CountOnly(Workload):
            name = "count_only"

            def default_config(self):
                return {"ops": 3}

            def run(self, operators, config, rng):
                from repro.core import OperationCounts

                return WorkloadResult(
                    metrics={"quality": 1.0},
                    counts=OperationCounts(additions=int(config["ops"])))

        register_workload("count_only", CountOnly)
        try:
            result = (Study().workload("count_only").config(ops=5)
                      .adders([TruncatedAdder(16, 10)])
                      .energy(DatapathEnergyModel(hardware_samples=200))
                      .run())
            assert result.rows[0]["additions"] == 5
        finally:
            import repro.workloads.registry as registry

            registry._REGISTRY.pop("count_only", None)


class TestStudy(object):
    def _study(self, seed=0):
        return (Study()
                .workload("fft(32, frames=2)")
                .adders(["ADDt(16,10)", "ACA(16,8)"])
                .energy(DatapathEnergyModel(hardware_samples=200))
                .seed(seed))

    def test_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            Study().adders([TruncatedAdder(16, 10)]).run()

    def test_seed_determinism(self):
        first = self._study(seed=7).run()
        second = self._study(seed=7).run()
        assert first.rows == second.rows
        different = self._study(seed=8).run()
        assert [r["psnr_db"] for r in different.rows] \
            != [r["psnr_db"] for r in first.rows]

    def test_serial_and_parallel_results_identical(self):
        serial = self._study().run(workers=1)
        parallel = self._study().run(workers=2)
        assert serial.rows == parallel.rows
        assert serial.columns == parallel.columns

    def test_shared_characterization_cache(self, monkeypatch):
        import repro.core.datapath as datapath

        calls = []
        original = datapath.characterize_hardware

        def counting(operator, **kwargs):
            calls.append(operator.name)
            return original(operator, **kwargs)

        monkeypatch.setattr(datapath, "characterize_hardware", counting)
        model = DatapathEnergyModel(hardware_samples=200)
        # The same adder appears twice: the cache must characterise each
        # distinct operator exactly once across the whole sweep.
        (Study().workload("fft(32, frames=1)")
         .adders([TruncatedAdder(16, 10), TruncatedAdder(16, 10),
                  ACAAdder(16, 8)])
         .energy(model).run())
        assert len(calls) == len(set(calls))
        assert set(model._cache) == set(calls)

    def test_string_specs_and_default_rows(self):
        result = (Study().workload("kmeans(runs=1, points_per_run=300, iterations=3)")
                  .multipliers([TruncatedMultiplier(16, 16)])
                  .energy(DatapathEnergyModel(hardware_samples=200))
                  .run())
        row = result.rows[0]
        assert row["workload"] == "kmeans"
        assert row["multiplier"] == "MULt(16,16)"
        assert 0.0 <= row["success_rate"] <= 1.0
        assert row["total_energy_pj"] > 0.0

    def test_axis_type_mismatch(self):
        with pytest.raises(TypeError, match="not an adder"):
            (Study().workload("fft")
             .adders([TruncatedMultiplier(16, 16)]).run())
        with pytest.raises(TypeError, match="not a multiplier"):
            (Study().workload("fft")
             .multipliers([TruncatedAdder(16, 10)]).run())

    def test_characterization_workload_via_study(self):
        result = (Study()
                  .workload(CharacterizationWorkload(error_samples=5_000,
                                                     hardware_samples=200))
                  .operators(["ADDt(16,10)"])
                  .run())
        row = result.rows[0]
        assert row["operator"] == "ADDt(16,10)"
        assert row["pdp_pj"] > 0.0

    def test_run_bundle(self):
        bundle = (Study().workload("fft(32, frames=1)")
                  .adders(["ADDt(16,10)"])
                  .energy(DatapathEnergyModel(hardware_samples=200))
                  .experiment("bundle_test")
                  .run_bundle())
        assert "bundle_test" in bundle.results

    def test_workload_run_is_pure(self):
        """The same workload object gives identical results on repeat runs."""
        workload = FftWorkload(size=32, frames=2)
        operators = OperatorMap(swept=TruncatedAdder(16, 10),
                                adder=TruncatedAdder(16, 10))
        config = workload.merged_config({})
        config["seed"] = 3
        first = workload.run(operators, config, np.random.default_rng(3))
        second = workload.run(operators, config, np.random.default_rng(3))
        assert first.metrics == second.metrics
        assert first.counts.additions == second.counts.additions


#: Columns every default row carries from its design point, on top of the
#: columns the operator-list sweeps emitted before they became design points.
DESIGN_COLUMNS = ("design", "axis", "word_length")


def operator_list_studies():
    """One ``adders``, one ``multipliers`` and one mixed ``operators`` sweep."""
    energy = DatapathEnergyModel(hardware_samples=200)
    return {
        "adders": (Study().workload("fft(32, frames=2)")
                   .adders(["ADDt(16,10)", "ACA(16,8)", "ETAIV(16,4)",
                            "ADDr(16,12)"])
                   .energy(energy).seed(3)),
        "multipliers": (Study()
                        .workload("kmeans(runs=1, points_per_run=300, "
                                  "iterations=3)")
                        .multipliers(["MULt(16,16)", "MULt(16,8)", "AAM(16)"])
                        .energy(energy).seed(5)),
        "operators": (Study().workload("fft(32, frames=2)")
                      .operators(["ADDt(16,10)", "MULt(16,8)", "ACA(16,8)",
                                  "MULt(12,12)"])
                      .energy(energy).seed(1)),
    }


#: SHA-256 over the store-key digests of each sweep's points (the model
#: version field left out), recorded before the operator-list sweeps were
#: built from design points: a filled store stays warm across the change.
KEY_DIGESTS = {
    "adders": "c030b5f7fee6cc758d2c6c4880ece74408921b1bb776884c4aa2d89e9a71db90",
    "multipliers": "4146028e09e584bc4ee622ac51c1ebd9ce1f589e010c8332e5adfdef47e8bcc6",
    "operators": "2a92384a025da36c426ac246e7c3e5305792de70c6070e1b899fda6910fb636e",
}

#: SHA-256 of each sweep's rows as ordered (column, value) pairs with the
#: DESIGN_COLUMNS left out, recorded at the same point: values and column
#: order are unchanged.
ROW_DIGESTS = {
    "adders": "42db86d475d6bcef1d85de40e54e24a0680570939d51f306f930d0ff445f876a",
    "multipliers": "772a96beeeb9e3ad7ef2b1f9357078be5a6def0b3b8d39e1e4cff4fb3a371dd4",
    "operators": "5227579d4ee05df1c78d2938382e61b44acf51cf49d99dd07380fed54940d8d8",
}


#: SHA-256 over the full store-key digests of all three sweeps (model
#: version field included) and the ``MODEL_VERSION`` it was recorded
#: under.  A change that moves ``ROW_DIGESTS`` must bump the version, which
#: moves this digest: filled stores go cold exactly when results change.
PINNED_SWEEP_KEYS = {
    "version": 1,
    "sha256": "84736ab519fa959dda3d8fbca207078985da94ecd5da07737ab27fd05cb16be9",
}


class TestOperatorListSweeps(object):
    """``adders``/``multipliers``/``operators`` build one design point per
    operator with the paper's pairing, keeping keys and rows stable."""

    @pytest.mark.parametrize("name", sorted(KEY_DIGESTS))
    def test_point_keys_match_pinned_digest(self, name):
        keys = operator_list_studies()[name].point_keys()
        assert all(key["model"] == MODEL_VERSION for key in keys)
        text = "".join(
            key_digest("sweep", {field: value for field, value in key.items()
                                 if field != "model"})
            for key in keys)
        assert hashlib.sha256(text.encode()).hexdigest() == KEY_DIGESTS[name]

    def test_full_keys_match_pinned_model_version(self):
        assert MODEL_VERSION == PINNED_SWEEP_KEYS["version"]
        text = "".join(key_digest("sweep", key)
                       for name in sorted(KEY_DIGESTS)
                       for key in operator_list_studies()[name].point_keys())
        assert hashlib.sha256(text.encode()).hexdigest() \
            == PINNED_SWEEP_KEYS["sha256"]

    def test_release_without_model_bump_keeps_store_warm(
            self, tmp_path, monkeypatch):
        def study():
            return (Study().workload("fft(32, frames=1)")
                    .adders(["ADDt(16,10)", "ACA(16,8)"]).store(tmp_path))

        cold = study().run()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        warm = study().run()
        assert warm.metadata["store_hits"] == 2
        assert warm.rows == cold.rows

    @pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
    def test_rows_match_pinned_digest(self, name):
        rows = operator_list_studies()[name].run().rows
        for row in rows:
            assert list(row)[2:5] == list(DESIGN_COLUMNS)
        stripped = [[(column, value) for column, value in row.items()
                     if column not in DESIGN_COLUMNS] for row in rows]
        text = json.dumps(stripped)
        assert hashlib.sha256(text.encode()).hexdigest() == ROW_DIGESTS[name]

    def test_pairing_follows_the_operator_type(self):
        points = (Study().workload("fft")
                  .operators(["ADDt(16,10)", "AAM(16)"])._points)
        assert [(p.role, p.adder.name, p.multiplier.name) for p in points] \
            == [("adder", "ADDt(16,10)", "MULt(10,10)"),
                ("multiplier", "ADD(16)", "AAM(16)")]

    def test_duplicates_are_kept(self):
        result = (Study().workload("fft(32, frames=1)")
                  .adders(["ADDt(16,10)", "ADDt(16,10)"]).run())
        assert len(result.rows) == 2
        assert result.rows[0] == result.rows[1]


class TestSweepDeduplication(object):
    def test_unique_by_name(self):
        operators = sweep_truncated_adders(16, [10, 8]) \
            + sweep_truncated_adders(16, [10, 6])
        unique = unique_by_name(operators)
        assert [op.name for op in unique] \
            == ["ADDt(16,10)", "ADDt(16,8)", "ADDt(16,6)"]

    def test_default_adder_sweep_has_no_duplicates(self):
        from repro.core import default_adder_sweep

        names = [op.name for op in default_adder_sweep()]
        assert len(names) == len(set(names))

    def test_composed_sweep_cannot_double_charge(self):
        from repro.core import default_adder_sweep

        # Composing the default sweep with itself must not grow it.
        once = default_adder_sweep()
        twice = unique_by_name(list(once) + list(default_adder_sweep()))
        assert [op.name for op in twice] == [op.name for op in once]
