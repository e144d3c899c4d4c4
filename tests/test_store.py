"""Tests for the persistent result store and result serialisation round-trips."""
import json
from dataclasses import replace

import numpy as np
import pytest

from repro import Study
from repro.core import DatapathEnergyModel, ExperimentResult, ResultStore
from repro.core.designspace import adder_axis, adder_point
from repro.core.store import STORE_VERSION, StoreKey, canonical_key, key_digest
from repro.hardware.report import HardwareReport
from repro.operators.adders import TruncatedAdder


class TestCanonicalKeys(object):
    def test_arrays_fingerprint_by_content(self):
        a = np.arange(6).reshape(2, 3)
        b = np.arange(6).reshape(2, 3)
        assert canonical_key(a) == canonical_key(b)
        assert canonical_key(a) != canonical_key(b.T)

    def test_dict_order_is_irrelevant(self):
        assert key_digest("k", {"a": 1, "b": 2}) == key_digest("k", {"b": 2, "a": 1})

    def test_numpy_scalars_unwrap(self):
        assert canonical_key(np.int64(3)) == 3
        assert canonical_key(np.float64(0.5)) == 0.5

    def test_dataclasses_canonicalise_by_field(self):
        from repro.apps.kmeans import generate_point_cloud

        one = canonical_key(generate_point_cloud(50, 3, seed=1))
        two = canonical_key(generate_point_cloud(50, 3, seed=1))
        other = canonical_key(generate_point_cloud(50, 3, seed=2))
        assert one == two
        assert one != other


    def test_sweep_key_digest_is_pinned(self):
        # Recorded before keys were canonicalised once per point: the
        # digest names the record file, so a change here strands every
        # filled store.
        key = {"model": 1, "workload": "fft", "seed": 3,
               "swept": "ADDt(16,12)", "adder": "ADDt(16,12)",
               "multiplier": None,
               "config": {"size": 16, "frames": 4, "data_width": 16,
                          "seed": 3,
                          "stage_adders": ["ADDt(16,12)", "ACA(16,8)"],
                          "image": np.arange(6, dtype=np.int64).reshape(2, 3),
                          "scale": np.float64(0.5),
                          "pair": (1, 2.5, None, True)}}
        assert key_digest("sweep", key) == \
            "7ad193a3c08892098c0c5e2e04e5b6302f29e6a7"
        record = StoreKey.of("sweep", key)
        assert record.digest == key_digest("sweep", key)
        assert record.canonical == canonical_key(key)


def _count_canonicalisations(monkeypatch, *modules):
    """Record every top-level ``canonical_key`` entry made via ``modules``
    (nested calls of one canonicalisation are not counted)."""
    import repro.core.store as store_module

    real = store_module.canonical_key
    depth = [0]
    calls = []

    def counting(value):
        if depth[0] == 0:
            calls.append(value)
        depth[0] += 1
        try:
            return real(value)
        finally:
            depth[0] -= 1

    for module in (store_module, *modules):
        monkeypatch.setattr(module, "canonical_key", counting)
    return calls


class TestKeysComputedOnce(object):
    def test_design_point_key_is_computed_once_per_point(self, monkeypatch):
        point = adder_point(TruncatedAdder(16, 12),
                            config={"frames": 1, "grid": np.arange(3)})
        calls = _count_canonicalisations(monkeypatch)
        first = point.key
        assert point.key is first
        assert len(calls) == 1
        # An equal but distinct point computes its own key.
        twin = replace(point)
        assert twin == point and twin is not point
        assert twin.key == first
        assert len(calls) == 2

    def test_cold_study_canonicalises_each_sweep_key_once(self, tmp_path,
                                                          monkeypatch):
        import repro.core.study as study_module

        adders = [TruncatedAdder(16, 12), TruncatedAdder(16, 10)]
        points = [adder_point(adder) for adder in adders]
        points.append(adder_point(adders[1], config={"frames": 1}))
        study = (Study().workload("fft", size=16, frames=2)
                 .design_space(points).seed(11).store(tmp_path))
        calls = _count_canonicalisations(monkeypatch, study_module)
        cold = study.run()
        # One for the shared merged config, one for the point that
        # overrides it; the probe and the save on the miss reuse them.
        assert len(calls) == 2
        store = ResultStore(tmp_path)
        assert store.entry_count("sweep") == 3
        for key in study.point_keys():
            assert store.path_for("sweep", key).is_file()
        del calls[:]
        warm = study.run()
        assert len(calls) == 2
        assert warm.metadata["store_hits"] == 3
        assert warm.rows == cold.rows


class TestPointKeysFromSharedCanonicalForm(object):
    """``Study._store_key`` reuses the shared canonical config and
    canonicalises only a point's overrides; its keys must equal (and
    serialise like) a full canonicalisation, or filled stores go cold."""

    @staticmethod
    def _assert_keys_match(study):
        config, seed = study._merged_config(study._workload)
        _, tasks = study._resolved_tasks(study._workload, config, seed)
        shared = canonical_key(config)
        overriding = 0
        for _, task in tasks:
            fast = study._store_key(task, config, shared)
            full = StoreKey.of("sweep", study._sweep_key(task))
            assert fast == full
            assert json.dumps(fast.canonical) == json.dumps(full.canonical)
            overriding += task[2] is not config
        assert overriding  # the override path is exercised

    def test_per_stage_fft_genomes(self):
        from repro.search.genes import per_stage_fft_space

        genes = per_stage_fft_space(size=16)
        genomes = [(0, 1, 2, 3), (5, 5, 5, 5), (11, 0, 7, 2)]
        self._assert_keys_match(
            Study().workload("fft", size=16, frames=2)
            .design_space([genes.to_point(genome) for genome in genomes]))

    def test_per_pass_dct_genomes(self):
        from repro.search.genes import per_pass_dct_space

        genes = per_pass_dct_space()
        self._assert_keys_match(
            Study().workload("jpeg", size=32)
            .design_space([genes.to_point(genome)
                           for genome in [(0, 1), (4, 4), (10, 2)]]))

    def test_halving_rung_density_overlay(self):
        from repro.search import get_target
        from repro.search.evaluator import SearchEvaluator

        target = get_target("fft_joint")
        study = target.study(reduced=True)
        evaluator = SearchEvaluator(target.study(reduced=True))
        points = list(target.space())[:4]
        self._assert_keys_match(study.design_space(
            points + [evaluator._with_density(point, {"frames": 1})
                      for point in points]))

    def test_jpeg_config_holding_the_stimulus_image(self):
        from repro.experiments import jpeg_adder_sweep

        study = jpeg_adder_sweep(image_size=32, reduced=True)
        adder = TruncatedAdder(16, 12)
        self._assert_keys_match(study.design_space([
            adder_point(adder),
            adder_point(adder, config={"quality": 50}),
            adder_point(adder, config={"image": np.zeros((16, 16),
                                                         dtype=np.uint8)}),
        ]))


class TestSuiteReadsEachRecordOnce(object):
    """A reduced run executes each sweep once, however many experiments
    view it: one probe read per sweep record and hardware operator."""

    def test_reduced_suite_loads_and_saves(self, tmp_path, monkeypatch):
        from collections import Counter

        from repro.experiments import run_all

        loads, saves, saved = Counter(), Counter(), Counter()
        real_load, real_save = ResultStore.load_key, ResultStore.save_key

        def load_key(store, record):
            loads[record.kind] += 1
            return real_load(store, record)

        def save_key(store, record, payload):
            saves[record.kind] += 1
            saved[record.kind, record.digest] += 1
            return real_save(store, record, payload)

        monkeypatch.setattr(ResultStore, "load_key", load_key)
        monkeypatch.setattr(ResultStore, "save_key", save_key)
        monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
        cold = run_all(reduced=True, store=tmp_path)
        assert saves["sweep"] == 222
        assert set(saved.values()) == {1}  # each record saved once
        for sweep, view in (("fig5_fft_adders", "fft_joint_frontier"),
                            ("fig6_jpeg", "jpeg_joint_frontier")):
            # A view reports the store hits of the sweep it views.
            assert cold.get(view).metadata["store_hits"] == \
                cold.get(sweep).metadata["store_hits"] == 0
        loads.clear()
        saves.clear()
        warm = run_all(reduced=True, store=tmp_path)
        assert dict(loads) == {"sweep": 222, "hardware": 56}
        assert not saves
        assert warm.get("jpeg_joint_frontier").metadata["store_hits"] == \
            len(warm.get("fig6_jpeg").rows)


class TestResultStore(object):
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = {"operator": "ADDt(16,10)", "samples": 100}
        assert store.load("hardware", key) is None
        store.save("hardware", key, {"pdp_pj": 1.5})
        assert store.load("hardware", key) == {"pdp_pj": 1.5}
        assert store.contains("hardware", key)
        assert store.entry_count("hardware") == 1

    def test_corrupt_file_is_clean_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = {"x": 1}
        path = store.save("sweep", key, {"metrics": {"m": 1.0}})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load("sweep", key) is None

    def test_partial_and_garbage_files_are_clean_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        key = {"x": 2}
        path = store.path_for("sweep", key)
        path.parent.mkdir(parents=True)
        for garbage in ("", "{", "null", "[1, 2]", '{"store_version": 999}'):
            path.write_text(garbage)
            assert store.load("sweep", key) is None

    def test_undecodable_bytes_are_clean_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        key = {"x": 5}
        path = store.save("sweep", key, {"metrics": {"m": 1.0}})
        valid = path.read_bytes()
        for garbage in (b"\xff\xfe\xfa", valid[:1] + b"\xff" + valid[1:]):
            path.write_bytes(garbage)
            assert store.load("sweep", key) is None
        path.write_bytes(valid)
        assert store.load("sweep", key) == {"metrics": {"m": 1.0}}

    def test_key_mismatch_is_clean_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("sweep", {"x": 3}, {"metrics": {}})
        # Move the record under another key's digest: the embedded key no
        # longer matches, so the (hypothetical) collision reads as a miss.
        store.path_for("sweep", {"x": 3}).rename(store.path_for("sweep", {"x": 4}))
        assert store.load("sweep", {"x": 4}) is None

    def test_wrong_version_is_clean_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = {"x": 5}
        path = store.save("sweep", key, {"metrics": {}})
        document = json.loads(path.read_text())
        assert document["store_version"] == STORE_VERSION
        document["store_version"] = STORE_VERSION + 1
        path.write_text(json.dumps(document))
        assert store.load("sweep", key) is None

    def test_unserialisable_payload_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.save("sweep", {"x": 6}, {"payload": object()}) is None
        assert store.entry_count() == 0

    def test_each_load_and_save_canonicalises_the_key_once(self, tmp_path,
                                                          monkeypatch):
        import repro.core.store as store_module

        real = store_module.canonical_key
        depth = [0]
        top_level_calls = []

        def counting(value):
            if depth[0] == 0:
                top_level_calls.append(value)
            depth[0] += 1
            try:
                return real(value)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(store_module, "canonical_key", counting)
        store = ResultStore(tmp_path)
        key = {"operator": "ADDt(16,10)", "grid": np.arange(4)}
        store.save("sweep", key, {"metrics": {}})
        assert len(top_level_calls) == 1
        assert store.load("sweep", key) == {"metrics": {}}
        assert len(top_level_calls) == 2


class TestHardwareReportRoundTrip(object):
    def test_round_trip(self):
        report = HardwareReport(
            operator="ADDt(16,10)", family="adder", area_um2=10.0,
            delay_ns=0.5, power_mw=0.2, leakage_mw=0.01, frequency_hz=1e8,
            gate_histogram={"XOR2": 3}, params={"k": 10}, calibrated=True)
        clone = HardwareReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.pdp_pj == report.pdp_pj

    def test_malformed_payload_is_none(self):
        assert HardwareReport.from_dict({}) is None
        assert HardwareReport.from_dict({"operator": "x"}) is None


class TestEnergyModelStore(object):
    def test_characterisation_persists_across_models(self, tmp_path):
        store = ResultStore(tmp_path)
        adder = TruncatedAdder(16, 10)
        first = DatapathEnergyModel(hardware_samples=200, store=store)
        report = first.report_for(adder)
        assert store.entry_count("hardware") == 1
        # A fresh model (fresh in-process cache) must hit the store and
        # reproduce the exact report without re-characterising.
        second = DatapathEnergyModel(hardware_samples=200, store=store)
        assert second.report_for(adder) == report

    def test_different_sample_counts_do_not_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        adder = TruncatedAdder(16, 10)
        DatapathEnergyModel(hardware_samples=200, store=store).report_for(adder)
        DatapathEnergyModel(hardware_samples=300, store=store).report_for(adder)
        assert store.entry_count("hardware") == 2


class TestStudyStore(object):
    def _study(self, store):
        return (Study()
                .workload("fft", size=16, frames=2)
                .design_space(adder_axis([TruncatedAdder(16, 12),
                                          TruncatedAdder(16, 10)]))
                .energy(DatapathEnergyModel(hardware_samples=200))
                .seed(11)
                .store(store))

    def test_warm_run_is_bit_identical(self, tmp_path):
        cold = self._study(tmp_path).run()
        assert cold.metadata["store_hits"] == 0
        warm = self._study(tmp_path).run()
        assert warm.metadata["store_hits"] == 2
        assert warm.rows == cold.rows

    def test_different_seed_misses(self, tmp_path):
        self._study(tmp_path).run()
        other = self._study(tmp_path).seed(12).run()
        assert other.metadata["store_hits"] == 0

    def test_shared_energy_model_is_not_captured_by_a_store(self, tmp_path):
        # A store-less model offered a study's store must come back
        # store-less, so a later study can offer its own directory.
        model = DatapathEnergyModel(hardware_samples=200)
        (Study()
         .workload("fft", size=16, frames=2)
         .design_space(adder_axis([TruncatedAdder(16, 12)]))
         .energy(model)
         .seed(11)
         .store(tmp_path / "a")
         .run())
        assert model.store is None
        assert ResultStore(tmp_path / "a").entry_count("hardware") >= 1

    def test_corrupt_sweep_record_recomputes(self, tmp_path):
        cold = self._study(tmp_path).run()
        store = ResultStore(tmp_path)
        for record in (tmp_path / "sweep").glob("*.json"):
            record.write_text("not json at all")
        again = self._study(tmp_path).run()
        assert again.metadata["store_hits"] == 0
        assert again.rows == cold.rows
        assert store.entry_count("sweep") == 2  # rewritten atomically


class TestExperimentResultJson(object):
    def _result(self):
        result = ExperimentResult(
            experiment="demo", description="round trip",
            columns=["name", "value", "vector"])
        result.add_row(name="a", value=np.float64(1.5),
                       vector=np.array([1, 2, 3]))
        result.add_row(name="b", value=np.int32(7), vector=np.array([4.5]))
        return result

    def test_numpy_scalars_and_arrays_round_trip(self, tmp_path):
        path = self._result().save_json(tmp_path / "demo.json")
        loaded = ExperimentResult.load_json(path)
        assert loaded.column("value") == [1.5, 7]
        assert loaded.column("vector") == [[1, 2, 3], [4.5]]
        assert loaded.experiment == "demo"

    def test_python_round_trip_is_identity(self, tmp_path):
        result = ExperimentResult(
            experiment="plain", description="no numpy",
            columns=["x", "y"], metadata={"seed": 3})
        result.add_row(x=1, y=0.25)
        path = result.save_json(tmp_path / "plain.json")
        loaded = ExperimentResult.load_json(path)
        assert loaded.to_dict() == result.to_dict()

    def test_unserialisable_cell_raises(self, tmp_path):
        result = ExperimentResult(experiment="bad", description="",
                                  columns=["x"])
        result.add_row(x=object())
        with pytest.raises(TypeError):
            result.save_json(tmp_path / "bad.json")


class TestStoreStatsAndConcurrency(object):
    """`stats()` and the in-process lock added for the evaluation server."""

    def test_stats_counts_records_bytes_and_outcomes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        empty = store.stats()
        assert empty["records"] == 0
        assert empty["bytes"] == 0
        assert empty["hits"] == empty["misses"] == empty["saves"] == 0
        assert empty["directory"] == str(tmp_path / "store")

        store.load("sweep", {"missing": 1})
        store.save("sweep", {"point": 1}, {"value": 42})
        store.load("sweep", {"point": 1})
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["bytes"] > 0
        assert stats["misses"] == 1
        assert stats["saves"] == 1
        assert stats["hits"] == 1

    def test_counters_are_per_instance_not_per_directory(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        first.save("sweep", {"point": 1}, {"value": 1})
        second = ResultStore(tmp_path / "store")
        assert second.stats()["saves"] == 0
        assert second.stats()["records"] == 1  # the disk footprint is shared

    def test_contains_counts_as_a_load_outcome(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert not store.contains("sweep", {"point": 1})
        store.save("sweep", {"point": 1}, {"value": 1})
        assert store.contains("sweep", {"point": 1})
        stats = store.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_concurrent_same_process_writers_and_readers(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "store")
        errors = []

        def worker(index):
            try:
                for round_ in range(10):
                    key = {"point": index, "round": round_}
                    store.save("sweep", key, {"value": index * 100 + round_})
                    loaded = store.load("sweep", key)
                    assert loaded == {"value": index * 100 + round_}
                    # Hammer one shared key from every thread too.
                    store.save("sweep", {"shared": True}, {"writer": index})
                    shared = store.load("sweep", {"shared": True})
                    assert set(shared) == {"writer"}
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = store.stats()
        assert stats["records"] == 8 * 10 + 1
        assert stats["saves"] == 8 * 10 * 2
        assert stats["hits"] == 8 * 10 * 2
        # No temporary files survive the concurrent writes.
        leftovers = [path for path in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []


class TestAbsorb(object):
    """Fan-in for sharded and fleet runs: idempotent, conflict-counting."""

    def _seed(self, directory, count, offset=0):
        store = ResultStore(directory)
        for index in range(count):
            store.save("sweep", {"point": index + offset}, {"value": index})
        return store

    def test_absorb_copies_new_records_only(self, tmp_path):
        source = self._seed(tmp_path / "source", 3)
        target = ResultStore(tmp_path / "target")
        assert target.absorb(source) == 3
        assert target.entry_count("sweep") == 3
        assert target.load("sweep", {"point": 1}) == {"value": 1}
        # Re-absorbing the same source is idempotent: zero copied.
        assert target.absorb(source) == 0
        stats = target.stats()
        assert stats["absorbed"] == 3
        assert stats["conflicts"] == 0

    def test_absorb_accepts_paths_and_missing_sources(self, tmp_path):
        self._seed(tmp_path / "source", 2)
        target = ResultStore(tmp_path / "target")
        assert target.absorb(tmp_path / "source") == 2  # a path, not a store
        assert target.absorb(tmp_path / "nowhere") == 0
        assert target.absorb(None) == 0

    def test_byte_different_record_counts_as_conflict(self, tmp_path):
        source = self._seed(tmp_path / "source", 1)
        target = ResultStore(tmp_path / "target")
        # Same digest path, different bytes: the reclaimed-task signature.
        path = source.path_for("sweep", {"point": 0})
        clone = target.directory / "sweep" / path.name
        clone.parent.mkdir(parents=True)
        clone.write_text(path.read_text() + "\n")
        assert target.absorb(source) == 0  # first copy wins
        stats = target.stats()
        assert stats["conflicts"] == 1
        assert stats["absorbed"] == 0
        assert clone.read_text().endswith("\n")  # untouched

    def test_concurrent_overlapping_absorbs_are_idempotent(self, tmp_path):
        import threading

        sources = [self._seed(tmp_path / f"source{i}", 20) for i in range(4)]
        target = ResultStore(tmp_path / "target")
        errors = []

        def absorb_all():
            try:
                for source in sources:
                    target.absorb(source)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=absorb_all) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every source holds the same 20 records, absorbed exactly once.
        assert target.entry_count("sweep") == 20
        stats = target.stats()
        assert stats["absorbed"] == 20
        assert stats["conflicts"] == 0
        assert list(tmp_path.rglob("*.tmp")) == []


class TestDurableWrites(object):
    def test_fsync_path_produces_valid_records(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_FSYNC", raising=False)
        store = ResultStore(tmp_path / "store")
        store.save("sweep", {"point": 1}, {"value": 9})
        assert store.load("sweep", {"point": 1}) == {"value": 9}

    def test_fsync_opt_out_still_writes_atomically(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
        store = ResultStore(tmp_path / "store")
        store.save("sweep", {"point": 2}, {"value": 10})
        assert store.load("sweep", {"point": 2}) == {"value": 10}
        assert list((tmp_path / "store").rglob("*.tmp")) == []


class TestScrub(object):
    """`scrub()` finds what load() only tolerates: corrupt records."""

    def seeded(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save("sweep", {"x": 1}, {"value": 1})
        store.save("sweep", {"x": 2}, {"value": 2})
        store.save("hardware", {"op": "ADD(16)"}, {"pdp_pj": 1.0})
        return store

    def test_clean_store_scrubs_clean(self, tmp_path):
        report = self.seeded(tmp_path).scrub()
        assert report["scanned"] == 3
        assert report["valid"] == 3
        assert report["corrupt"] == report["quarantined"] == 0
        assert report["reasons"] == {}

    def test_reasons_classify_each_corruption(self, tmp_path):
        store = self.seeded(tmp_path)
        records = sorted(store._record_files("sweep"))
        # Truncate one record, garbage another, misfile a third.
        records[0].write_text(records[0].read_text()[:20])
        records[1].write_text('"not an object"')
        stray = store.directory / "sweep" / ("0" * 64 + ".json")
        stray.write_text(json.dumps({
            "store_version": STORE_VERSION, "kind": "sweep",
            "key": {"x": 3}, "payload": {"value": 3}}))
        report = store.scrub()
        assert report["scanned"] == 4
        assert report["valid"] == 1
        assert report["corrupt"] == 3
        assert report["reasons"]["invalid_json"] == 1
        assert report["reasons"]["not_an_object"] == 1
        assert report["reasons"]["digest_mismatch"] == 1

    def test_dry_run_moves_nothing(self, tmp_path):
        store = self.seeded(tmp_path)
        record = next(iter(store._record_files("sweep")))
        record.write_text("{torn")
        report = store.scrub(quarantine=False)
        assert report["corrupt"] == 1
        assert report["quarantined"] == 0
        assert record.exists()
        assert store.entry_count() == 3

    def test_quarantined_records_leave_every_walk(self, tmp_path):
        store = self.seeded(tmp_path)
        record = next(iter(store._record_files("sweep")))
        record.write_text("{torn")
        store.scrub()
        assert not record.exists()
        assert store.entry_count() == 2
        assert store.stats()["records"] == 2
        assert store.stats()["quarantined"] == 1
        # The forensic bytes survive, structure preserved.
        moved = store.directory / "quarantine" / "sweep" / record.name
        assert moved.read_text() == "{torn"
        # absorb() never copies a quarantined record onward.
        other = ResultStore(tmp_path / "other")
        other.absorb(store)
        assert other.entry_count() == 2
        assert other.scrub()["corrupt"] == 0

    def test_version_and_kind_mismatches_are_corrupt(self, tmp_path):
        store = self.seeded(tmp_path)
        records = sorted(store._record_files("sweep"))
        old = json.loads(records[0].read_text())
        old["store_version"] = STORE_VERSION - 1
        records[0].write_text(json.dumps(old))
        misfiled = json.loads(records[1].read_text())
        misfiled["kind"] = "hardware"
        records[1].write_text(json.dumps(misfiled))
        report = store.scrub(quarantine=False)
        assert report["reasons"]["version_mismatch"] == 1
        # A rewritten kind changes the digest the key should map to.
        assert report["corrupt"] == 2
