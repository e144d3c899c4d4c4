"""K-means points sharing their exact reference fits.

``KmeansWorkload.run_many`` fits the exact fixed-point run once per cloud
for every task on the same clouds, word length, iterations and backend.
Each candidate keeps its own fit, so the results must equal the
one-point-at-a-time evaluation (``tests/oracles.py``) byte for byte.
"""
import copy
import json
import os

import numpy as np
import pytest

from oracles import seed_kmeans_workload_run
from repro.apps.kmeans import (
    FixedPointKMeans,
    exact_reference_labels,
    generate_point_cloud,
)
from repro.core import ApproxContext
from repro.core.registry import parse_operator
from repro.experiments.kmeans_study import (
    TABLE5_ADDERS,
    TABLE6_MULTIPLIERS,
    default_point_clouds,
    kmeans_adder_table,
)
from repro.experiments.runner import RunConfig
from repro.metrics import clustering
from repro.workloads import KmeansWorkload, OperatorMap
from repro.workloads import kmeans as kmeans_workload
from test_fft_batching import CountingBackend

CLOUDS = tuple(generate_point_cloud(240, 5, seed=seed) for seed in (21, 22))

#: Adders and multipliers per data width; the repeated names are parsed
#: separately, so they are equal operators in distinct objects.
OPERATORS = {
    16: (["ADDt(16,11)", "ACA(16,8)", "ADDt(16,11)", "ETAIV(16,4)"],
         ["MULt(16,4)", "AAM(16)", "MULt(16,4)"]),
    12: (["ADDt(12,8)", "ACA(12,6)", "ADDt(12,8)"],
         ["MULt(12,6)"]),
}


def operator_maps(width, backend="direct"):
    adders, multipliers = OPERATORS[width]
    maps = [OperatorMap(swept=op, adder=op, backend=backend)
            for op in map(parse_operator, adders)]
    maps += [OperatorMap(swept=op, multiplier=op, backend=backend)
             for op in map(parse_operator, multipliers)]
    return maps


def make_tasks(workload, entries):
    tasks = []
    for operators, overrides in entries:
        config = workload.merged_config(overrides)
        config.setdefault("seed", 0)
        tasks.append((operators, config, np.random.default_rng(0)))
    return tasks


def as_bytes(result):
    return json.dumps({"metrics": dict(result.metrics),
                       "counts": [result.counts.additions,
                                  result.counts.multiplications],
                       "details": dict(result.details)}, sort_keys=True)


def assert_matches_oracle(workload, tasks):
    batched = workload.run_many(tasks)
    assert len(batched) == len(tasks)
    for got, (operators, config, _) in zip(batched, tasks):
        assert as_bytes(got) == as_bytes(
            seed_kmeans_workload_run(operators, config))
    return batched


class TestRunManyMatchesOracle(object):
    @pytest.mark.parametrize("seeds", [(0,), (3, 0)])
    @pytest.mark.parametrize("source", ["explicit", "generated"])
    def test_mixed_widths_and_operators(self, source, seeds):
        workload = KmeansWorkload(runs=2, points_per_run=240, clusters=5,
                                  iterations=3)
        base = {"clouds": CLOUDS} if source == "explicit" else {}
        entries = [(operators, {**base, "data_width": width, "seed": seed})
                   for seed in seeds for width in (16, 12)
                   for operators in operator_maps(width)]
        batched = assert_matches_oracle(workload, make_tasks(workload, entries))
        # Equal operators on equal inputs give equal results.
        assert as_bytes(batched[0]) == as_bytes(batched[2])

    def test_plugin_backend_fits_each_reference_once(self):
        workload = KmeansWorkload(iterations=3)
        backend = CountingBackend()
        entries = [(operators, {"clouds": CLOUDS})
                   for operators in operator_maps(16, backend)]
        tasks = make_tasks(workload, entries)
        assert_matches_oracle(workload, tasks)

        backend.calls = 0
        workload.run_many(tasks)
        batched = backend.calls
        backend.calls = 0
        for task in tasks:
            workload.run(*task)
        # Every fit makes the same calls: one at a time, each task fits a
        # reference and a candidate per cloud; batched, the references
        # are fitted once.
        fits = len(tasks) * len(CLOUDS)
        assert batched * 2 * fits == backend.calls * (fits + len(CLOUDS))

    def test_run_is_run_many_of_one(self):
        workload = KmeansWorkload(iterations=3)
        [task] = make_tasks(workload, [(operator_maps(16)[1],
                                        {"clouds": CLOUDS})])
        assert as_bytes(workload.run(*task)) \
            == as_bytes(seed_kmeans_workload_run(task[0], task[1]))


class TestSharedReferences(object):
    @pytest.fixture
    def reference_fits(self, monkeypatch):
        calls = []

        def counted(cloud, data_width, iterations, backend=None):
            calls.append(data_width)
            return exact_reference_labels(cloud, data_width, iterations,
                                          backend=backend)

        monkeypatch.setattr(kmeans_workload, "exact_reference_labels", counted)
        return calls

    def test_clouds_compared_by_content(self, reference_fits):
        workload = KmeansWorkload(iterations=2)
        copies = copy.deepcopy(CLOUDS)
        assert copies[0].points is not CLOUDS[0].points
        maps = operator_maps(16)
        workload.run_many(make_tasks(workload, [
            (maps[0], {"clouds": CLOUDS}), (maps[1], {"clouds": copies}),
            (maps[4], {"clouds": CLOUDS})]))
        assert len(reference_fits) == len(CLOUDS)

    def test_one_reference_per_width_iterations_and_backend(
            self, reference_fits):
        workload = KmeansWorkload(iterations=2)
        maps = operator_maps(16)
        other = operator_maps(16, CountingBackend())[0]
        workload.run_many(make_tasks(workload, [
            (maps[0], {"clouds": CLOUDS}),
            (maps[1], {"clouds": CLOUDS, "iterations": 3}),
            (operator_maps(12)[0], {"clouds": CLOUDS, "data_width": 12}),
            (other, {"clouds": CLOUDS}),
            (maps[2], {"clouds": CLOUDS[:1]}),
            (maps[3], {"clouds": CLOUDS[1:] + (generate_point_cloud(
                240, 5, seed=23),)}),
        ]))
        # Four distinct (width, iterations, backend) settings over the two
        # clouds; the later tasks reuse both clouds' references and fit
        # only their one new cloud.
        assert len(reference_fits) == 4 * len(CLOUDS) + 1


class TestEmptySweepRejected(object):
    def test_zero_runs_names_the_key(self):
        workload = KmeansWorkload()
        [task] = make_tasks(workload, [(operator_maps(16)[0], {"runs": 0})])
        with pytest.raises(ValueError, match="runs=0"):
            workload.run(*task)

    def test_empty_clouds_names_the_key(self):
        workload = KmeansWorkload()
        [task] = make_tasks(workload, [(operator_maps(16)[0], {"clouds": ()})])
        with pytest.raises(ValueError, match=r"clouds=\(\)"):
            workload.run(*task)


def test_serial_batch_matches_process_pool(monkeypatch):
    def table(workers):
        return kmeans_adder_table(runs=2, points_per_run=300,
                                  iterations=3).run(workers=workers)

    serial = table(1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any host
    assert serial.rows == table(2).rows


def table_fits(clouds, iterations=8):
    """``(operator, reference, labels, clusters)`` per Table V/VI fit.

    Each cloud's exact labels and every candidate fit, at the tables'
    default 8 iterations.
    """
    contexts = ([(adder, ApproxContext(adder=adder)) for adder in TABLE5_ADDERS]
                + [(multiplier, ApproxContext(multiplier=multiplier))
                   for multiplier in TABLE6_MULTIPLIERS])
    for cloud in clouds:
        clusters = cloud.centers.shape[0]
        reference = exact_reference_labels(cloud, 16, iterations)
        for operator, context in contexts:
            labels, _, _ = FixedPointKMeans(
                clusters=clusters, iterations=iterations,
                context=context).fit(cloud.points, cloud.centers)
            yield operator, reference, labels, clusters


def test_success_rate_does_not_depend_on_scipy():
    """Cloud 0 of the full-density Table V scored by an exact matching.

    Greedy label matching (the old fallback without SciPy) scored
    ADDt(16,8) at 0.8744 and ETAIV(16,2) at 0.7252; the maximum
    matching, which SciPy's Hungarian solver also finds, gives these.
    """
    full = RunConfig(reduced=False)
    [cloud] = default_point_clouds(1, full.kmeans_points)
    rates = {operator.name: clustering.success_rate(reference, labels, clusters)
             for operator, reference, labels, clusters in table_fits([cloud])}
    assert rates["ADDt(16,8)"] == 0.877
    assert rates["ETAIV(16,2)"] == 0.726


def test_assignment_optimum_matches_scipy_on_full_tables():
    """The matcher's total equals SciPy's on every full-density fit."""
    optimize = pytest.importorskip("scipy.optimize")
    full = RunConfig(reduced=False)
    clouds = default_point_clouds(full.kmeans_runs, full.kmeans_points)
    for _, reference, labels, clusters in table_fits(clouds):
        matrix = clustering.confusion_matrix(reference, labels, clusters)
        rows, cols = optimize.linear_sum_assignment(-matrix)
        optimum = int(matrix[rows, cols].sum())
        matched = clustering._max_weight_assignment(matrix)
        assert sorted(matched) == list(range(clusters))
        assert int(matrix[matched, range(clusters)].sum()) == optimum
        assert clustering.success_rate(reference, labels, clusters) \
            == optimum / reference.size
