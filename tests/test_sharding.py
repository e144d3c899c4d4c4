"""Shard determinism, shard/merge bit-identity and resume-after-kill.

The contracts under test are the ones the fan-out/fan-in CI workflow (and
any distributed execution) relies on:

* the round-robin partition of a study sweep is a *disjoint cover* of the
  point set for any shard count, stable across runs;
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
from repro.core.study import Study, SweepRun, parse_shard, resolve_workers
from repro.experiments import merge_run, run_all
from repro.search import get_target

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


def test_run_config_reaches_every_sweep(monkeypatch, tmp_path):
    """Every registered sweep runs under the whole run configuration."""
    from repro.core.backends import DirectBackend
    from repro.experiments import EXPERIMENTS, RunConfig

    ran = []

    def record(study, workers=1, probed=None, pool=None):
        ran.append((study, workers, pool))
        return SweepRun([])

    monkeypatch.setattr(Study, "execute", record)
    cfg = RunConfig(reduced=True, workers=3, backend=DirectBackend(),
                    store=ResultStore(tmp_path / "store"), shard=(1, 3),
                    energy_model=DatapathEnergyModel(hardware_samples=200),
                    pool=object())  # stands in for the run's process pool
    for name, spec in EXPERIMENTS.items():
        if name == "fft_heterogeneous_search":
            continue  # drives Study.search with its own arguments
        ran.clear()
        spec.build(cfg, {})  # no sweep executed yet in this run
        assert len(ran) == 1, name
        study, workers, pool = ran[0]
        assert study._experiment == name
        assert study._backend is cfg.backend, name
        assert study._store is cfg.store, name
        assert study._shard == cfg.shard, name
        assert study._energy_model is cfg.energy_model, name
        assert workers == cfg.workers, name
        assert pool is cfg.pool, name


# --------------------------------------------------------------------------- #
# Partition properties
# --------------------------------------------------------------------------- #
def test_study_shards_are_disjoint_cover_for_any_count():
    keys = [str(key) for key in tiny_study().point_keys()]
    for count in range(1, len(keys) + 2):
        shards = [[str(key) for key in tiny_study(shard=(index, count))
                   .point_keys()] for index in range(count)]
        # Disjoint: no key appears in two shards; cover: union is the sweep.
        assert sorted(key for shard in shards for key in shard) \
            == sorted(keys)
        # Round-robin: shard i holds exactly the points j with j % n == i.
        assert shards == [keys[index::count] for index in range(count)]


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


def test_merge_rejects_shards_of_different_densities(tmp_path):
    """A reduced and a full shard of one experiment are not one run."""
    experiment = ["table3_hevc_adders"]
    parts = [run_all(output_dir=tmp_path / "reduced", reduced=True,
                     shard="0/2", experiments=experiment),
             run_all(output_dir=tmp_path / "full", reduced=False,
                     shard="1/2", experiments=experiment)]
    # The manifests disagree on `reduced` ...
    with pytest.raises(ValueError, match="different configurations"):
        merge_run([tmp_path / "reduced", tmp_path / "full"])
    # ... and without manifests the results' metadata still differ.
    with pytest.raises(ValueError, match="different runs"):
        merge_run(parts)


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
def test_resolve_workers_caps_at_cpu_count():
    cpus = os.cpu_count() or 1
    assert resolve_workers(10_000) == cpus
    assert resolve_workers(1) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(None) == 1


@pytest.fixture
def opened_pools(monkeypatch):
    """Every ``ProcessPoolExecutor`` constructed, on a 2-CPU host."""
    import concurrent.futures

    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return opened


class TestOnePoolPerRun(object):
    """A run or a search opens one process pool for all of its sweeps."""

    EXPERIMENTS = ["table1_multipliers", "fig5_fft_adders",
                   "table3_hevc_adders", "fft_heterogeneous_search"]

    def test_run_all_opens_one_pool(self, opened_pools):
        pooled = run_all(reduced=True, workers=2, experiments=self.EXPERIMENTS)
        assert opened_pools == [{"max_workers": 2}]
        serial = run_all(reduced=True, workers=1, experiments=self.EXPERIMENTS)
        assert len(opened_pools) == 1  # one worker opens none
        for name in self.EXPERIMENTS:
            assert pooled.results[name].rows == serial.results[name].rows

    def test_search_opens_one_pool(self, opened_pools):
        def search(workers):
            target = get_target("fft_joint")
            return target.study(reduced=True).search(
                target.strategy("halving", seed=7), workers=workers)

        pooled = search(2)
        assert len(pooled.rounds) > 1  # several batches, one pool
        assert opened_pools == [{"max_workers": 2}]
        serial = search(1)
        assert len(opened_pools) == 1
        assert pooled.to_dict() == serial.to_dict()

    def test_gated_search_command_opens_one_pool(self, opened_pools, capsys):
        # The search and its exhaustive reference share the pool.
        from repro.cli import main

        status = main(["search", "fft_joint", "--strategy", "halving",
                       "--seed", "7", "--reduced", "--workers", "2",
                       "--gate-exhaustive"])
        capsys.readouterr()
        assert status == 0
        assert opened_pools == [{"max_workers": 2}]


# --------------------------------------------------------------------------- #
# Experiments viewing one sweep
# --------------------------------------------------------------------------- #
class TestSweepViews(object):
    """The joint frontiers view the Figure 5 and Figure 6 sweeps."""

    VIEWS = ["fft_joint_frontier", "jpeg_joint_frontier"]

    @staticmethod
    def _assert_same(left, right, names):
        for name in names:
            a, b = left.get(name), right.get(name)
            assert a.rows == b.rows, name
            assert {k: f.to_dict() for k, f in a.fronts.items()} \
                == {k: f.to_dict() for k, f in b.fronts.items()}, name
            assert a.metadata == b.metadata, name

    def test_views_alone_equal_the_whole_suite(self):
        from repro.experiments import EXPERIMENTS

        assert [EXPERIMENTS[name].sweep for name in self.VIEWS] == \
            ["fig5_fft_adders", "fig6_jpeg"]
        alone = run_all(reduced=True, experiments=self.VIEWS)
        assert sorted(alone.results) == sorted(self.VIEWS)
        self._assert_same(alone, run_all(reduced=True), self.VIEWS)

    def test_sharded_views_merge_to_the_unsharded_run(self):
        names = self.VIEWS + ["fig5_fft_adders", "fig6_jpeg"]
        whole = run_all(reduced=True, experiments=names)
        parts = [run_all(reduced=True, shard=(index, 2), experiments=names)
                 for index in range(2)]
        for part in parts:
            # Both views of a sweep cover the same shard of its points.
            for sweep, view in (("fig5_fft_adders", "fft_joint_frontier"),
                                ("fig6_jpeg", "jpeg_joint_frontier")):
                assert part.get(sweep).metadata["shard"] == \
                    part.get(view).metadata["shard"]
        self._assert_same(merge_run(parts), whole, names)


# --------------------------------------------------------------------------- #
# Serial-fallback warning discipline
# --------------------------------------------------------------------------- #
class TestSerialFallbackWarning(object):
    """Pool failure warns, whether or not the request was auto-capped; a
    pool that breaks mid-sweep leaves its unfinished chunks to the parent."""

    def _study(self):
        return (Study().workload("fft", size=16, frames=1)
                .adders(["ADDt(16,10)", "ACA(16,8)"]))

    def _break_pool(self, monkeypatch):
        import concurrent.futures

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this environment")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            broken_pool)

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

    ADDERS = ["ADDt(16,10)", "ACA(16,8)", "ETAIV(16,4)", "ADDt(16,12)",
              "ACA(16,10)", "ADDt(16,8)"]

    def test_pool_broken_on_second_chunk_runs_the_rest_in_process(
            self, monkeypatch, tmp_path):
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import study as study_module

        def study(store):
            return (Study().workload("fft", size=16, frames=1)
                    .adders(self.ADDERS).store(store))

        serial = study(tmp_path / "serial").run(workers=1)
        pool_ran, parent_ran, saved = [], [], []
        in_pool = [False]

        class BreaksOnSecondChunk(object):
            """Runs its first chunk; every later one finds it broken."""

            def __init__(self, max_workers):
                self.chunks = 0

            def submit(self, fn, tasks):
                self.chunks += 1
                future = concurrent.futures.Future()
                if self.chunks >= 2:
                    future.set_exception(BrokenProcessPool("a worker died"))
                    return future
                in_pool[0] = True
                future.set_result(fn(tasks))
                in_pool[0] = False
                return future

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        execute_points = study_module._execute_points

        def recording_execute_points(tasks):
            names = [operators.swept.name for _, operators, _, _ in tasks]
            (pool_ran if in_pool[0] else parent_ran).extend(names)
            return execute_points(tasks)

        save_key = ResultStore.save_key

        def recording_save_key(store, key, payload):
            saved.append(key.digest)
            return save_key(store, key, payload)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            BreaksOnSecondChunk)
        monkeypatch.setattr(study_module, "_execute_points",
                            recording_execute_points)
        monkeypatch.setattr(ResultStore, "save_key", recording_save_key)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            pooled = study(tmp_path / "pooled").run(workers=3)
        assert pooled.rows == serial.rows
        # Chunks of 2: the pool ran the first, the parent the two it broke
        # on (and the first again only if the break was seen before it).
        assert pool_ran == self.ADDERS[:2]
        assert set(self.ADDERS[2:]) <= set(parent_ran)
        assert set(pool_ran) | set(parent_ran) == set(self.ADDERS)
        assert len(saved) == len(set(saved)) == len(self.ADDERS)
