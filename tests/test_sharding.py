"""Shard determinism, shard/merge bit-identity and resume-after-kill.

The contracts under test are the ones the fan-out/fan-in CI workflow (and
any distributed execution) relies on:

* the round-robin partition of a design space / study sweep is a *disjoint
  cover* of the point set for any shard count, stable across runs;
* merging shard results reproduces the unsharded rows, Pareto fronts and
  metadata bit-identically, and rejects incomplete or overlapping shards;
* a run killed mid-sweep and restarted against the same store recomputes
  nothing (every completed point is served from disk) and emits rows
  bit-identical to an uninterrupted run.
"""
import os

import pytest

from repro.core import DatapathEnergyModel, ResultStore
from repro.core.designspace import joint_adder_space
from repro.core.results import ExperimentResult, ResultBundle
from repro.core.study import Study, parse_shard, resolve_workers
from repro.experiments import merge_run, run_all

# Two cheap experiments exercising both a plain table (no fronts) and the
# headline frontier (incremental Pareto front, design-space metadata).
EXPERIMENTS = ["table3_hevc_adders", "fft_joint_frontier"]


def tiny_study(shard=None, store=None):
    study = (Study()
             .workload("fft", size=16, data_width=16, frames=1)
             .design_space(joint_adder_space(16, reduced=True))
             .energy(DatapathEnergyModel(hardware_samples=200))
             .pareto(quality="psnr_db", cost="total_energy_pj"))
    if shard is not None:
        study.shard(shard)
    if store is not None:
        study.store(store)
    return study


# --------------------------------------------------------------------------- #
# Registry completeness
# --------------------------------------------------------------------------- #
def test_experiment_registry_covers_the_whole_suite():
    """The absolute expected set: a relative golden/shard comparison cannot
    catch an experiment dropping out of the registry, so pin it here."""
    from repro.experiments import experiment_names

    assert experiment_names() == [
        "fig3_fig4_adders", "table1_multipliers", "fig5_fft_adders",
        "table2_fft_multipliers", "fft_joint_frontier", "fig6_jpeg",
        "jpeg_joint_frontier", "table3_hevc_adders",
        "table4_hevc_multipliers", "table5_kmeans_adders",
        "table6_kmeans_multipliers", "fft_heterogeneous_search",
        "ablation_compensation", "ablation_rounding_mode",
    ]
    assert experiment_names(include_ablations=False) == \
        experiment_names()[:-2]


# --------------------------------------------------------------------------- #
# Partition properties
# --------------------------------------------------------------------------- #
def test_design_space_shards_are_disjoint_cover_for_any_count():
    space = joint_adder_space(16, reduced=True)
    keys = [point.key for point in space]
    for count in range(1, len(space) + 2):
        shards = [space.shard(index, count) for index in range(count)]
        shard_keys = [point.key for shard in shards for point in shard]
        # Disjoint: no key appears in two shards; cover: union is the space.
        assert len(shard_keys) == len(space)
        assert sorted(map(str, shard_keys)) == sorted(map(str, keys))
        # Stable: re-sharding yields the identical partition.
        again = [space.shard(index, count).labels() for index in range(count)]
        assert again == [shard.labels() for shard in shards]


def test_design_space_shard_validates_bounds():
    space = joint_adder_space(16, reduced=True)
    with pytest.raises(ValueError):
        space.shard(2, 2)
    with pytest.raises(ValueError):
        space.shard(0, 0)
    with pytest.raises(ValueError):
        space.shard(-1, 3)


def test_parse_shard_specs():
    assert parse_shard(None) is None
    assert parse_shard("0/4") == (0, 4)
    assert parse_shard((3, 5)) == (3, 5)
    for bad in ["4/4", "x/2", "1", "1/2/3", (2, 1)]:
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_study_shard_metadata_records_global_indices():
    total = len(joint_adder_space(16, reduced=True))
    result = tiny_study(shard=(1, 3)).run()
    shard = result.metadata["shard"]
    assert shard["index"] == 1 and shard["count"] == 3
    assert shard["sweep_points"] == total
    assert shard["sweep_indices"] == [i for i in range(total) if i % 3 == 1]
    assert len(result.rows) == len(shard["sweep_indices"])


# --------------------------------------------------------------------------- #
# Merge bit-identity
# --------------------------------------------------------------------------- #
def test_merged_shards_bit_identical_to_unsharded_study():
    full = tiny_study().run()
    parts = [tiny_study(shard=(index, 3)).run() for index in range(3)]
    merged = ExperimentResult.merge_shards(parts)
    assert merged.rows == full.rows
    assert merged.metadata == full.metadata
    assert {key: front.to_dict() for key, front in merged.fronts.items()} \
        == {key: front.to_dict() for key, front in full.fronts.items()}


def test_merge_rejects_missing_and_overlapping_shards():
    parts = [tiny_study(shard=(index, 3)).run() for index in range(3)]
    with pytest.raises(ValueError, match="do not cover"):
        ExperimentResult.merge_shards(parts[:2])
    with pytest.raises(ValueError, match="more than one shard"):
        ExperimentResult.merge_shards(parts + [parts[0]])
    with pytest.raises(ValueError, match="different experiments"):
        other = ExperimentResult(experiment="other", description="",
                                 columns=list(parts[0].columns))
        ExperimentResult.merge_shards([parts[0], other])


def test_run_all_shard_merge_round_trip(tmp_path):
    """The acceptance path: sharded CLI-style runs fold back bit-identically."""
    golden = run_all(reduced=True, experiments=EXPERIMENTS)
    for index in range(2):
        run_all(output_dir=tmp_path / f"shard{index}", reduced=True,
                shard=f"{index}/2", experiments=EXPERIMENTS,
                store=tmp_path / f"shard{index}" / ".repro_store")
    merged = merge_run([tmp_path / "shard0", tmp_path / "shard1"],
                       output_dir=tmp_path / "merged",
                       store=tmp_path / "merged_store")
    assert set(merged.results) == set(golden.results)
    assert len(golden.get("fft_joint_frontier")
               .fronts["psnr_db_vs_total_energy_pj"]) >= 2
    for name in golden.results:
        golden_result, merged_result = golden.get(name), merged.get(name)
        assert merged_result.rows == golden_result.rows, name
        assert {k: f.to_dict() for k, f in merged_result.fronts.items()} \
            == {k: f.to_dict() for k, f in golden_result.fronts.items()}, name
    # The merged artifacts round-trip from disk with the same content.
    reloaded = ResultBundle.load_dir(tmp_path / "merged")
    assert {name: result.rows for name, result in reloaded.results.items()} \
        == {name: result.rows for name, result in golden.results.items()}
    # The shard stores were folded into one.
    assert ResultStore(tmp_path / "merged_store").entry_count() > 0


# --------------------------------------------------------------------------- #
# Resume after a kill
# --------------------------------------------------------------------------- #
def test_resume_from_partial_store_recomputes_nothing_completed(tmp_path):
    store = ResultStore(tmp_path / "store")
    # "Kill" a run after only shard 0 of 2 completed: the store now holds
    # exactly the first half of the sweep's structural keys.
    partial = tiny_study(shard=(0, 2), store=store).run()
    assert partial.metadata["store_hits"] == 0
    completed = len(partial.rows)

    # The restarted (unsharded) run serves every completed point from the
    # store — zero recomputation — and the remainder fresh.
    resumed = tiny_study(store=store).run()
    assert resumed.metadata["store_hits"] == completed

    # Rows are bit-identical to an uninterrupted run without any store.
    uninterrupted = tiny_study().run()
    assert resumed.rows == uninterrupted.rows
    assert resumed.fronts["psnr_db_vs_total_energy_pj"].to_dict() \
        == uninterrupted.fronts["psnr_db_vs_total_energy_pj"].to_dict()

    # A second warm run recomputes nothing at all.
    warm = tiny_study(store=store).run()
    assert warm.metadata["store_hits"] == len(warm.rows)
    assert warm.rows == uninterrupted.rows


def test_store_absorb_is_idempotent_and_additive(tmp_path):
    a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
    a.save("sweep", {"x": 1}, {"value": 1})
    b.save("sweep", {"x": 2}, {"value": 2})
    b.save("sweep", {"x": 1}, {"value": 999})  # loser: 'a' already has x=1
    merged = ResultStore(tmp_path / "merged")
    assert merged.absorb(a) == 1
    assert merged.absorb(b) == 1  # x=1 already present, only x=2 copied
    assert merged.load("sweep", {"x": 1}) == {"value": 1}
    assert merged.load("sweep", {"x": 2}) == {"value": 2}
    assert merged.absorb(a) == 0
    assert merged.absorb(tmp_path / "does-not-exist") == 0


# --------------------------------------------------------------------------- #
# Worker resolution (the run_all(workers=) hardening)
# --------------------------------------------------------------------------- #
def test_resolve_workers_caps_at_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    cpus = os.cpu_count() or 1
    assert resolve_workers(10_000) == cpus
    assert resolve_workers(1) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(None) == 1


def test_resolve_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(1) == 3
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers(8) == 1
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    with pytest.warns(RuntimeWarning):
        assert resolve_workers(1) == 1


# --------------------------------------------------------------------------- #
# Serial-fallback warning discipline
# --------------------------------------------------------------------------- #
class TestSerialFallbackWarning(object):
    """Pool failure warns, whether or not the request was auto-capped."""

    def _study(self):
        return (Study().workload("fft", size=16, frames=1)
                .adders(["ADDt(16,10)", "ACA(16,8)"]))

    def _break_pool(self, monkeypatch):
        import concurrent.futures

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this environment")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            broken_pool)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def test_pool_failure_warns_by_default(self, monkeypatch):
        self._break_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # request not capped
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = self._study().run(workers=2)
        assert len(result.rows) == 2

    def test_auto_capped_request_fallback_warns(self, monkeypatch):
        self._break_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # 64 capped to 2
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = self._study().run(workers=64)
        assert len(result.rows) == 2
