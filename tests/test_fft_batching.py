"""Stacked FFT execution: frames and candidates batched into one forward.

``FixedPointFFT.forward`` takes a ``(rows, size)`` stack whose rows may run
different datapaths, and ``FftWorkload.run_many`` stacks every candidate
that shares a stimulus into one such pass.  Both must reproduce the
one-frame, one-candidate evaluation (``tests/oracles.py``) bit for bit:
codes, PSNR, operation counts and details.
"""
import json
import os

import numpy as np
import pytest

from oracles import seed_fft_forward, seed_fft_workload_run
from repro.apps.fft import FixedPointFFT, random_q15_signal
from repro.core import ApproxContext
from repro.core.backends import DirectBackend
from repro.core.designspace import adder_point
from repro.core.registry import parse_operator
from repro.core.study import Study
from repro.experiments import run_all
from repro.experiments.fft_study import fft_adder_sweep
from repro.experiments.search_study import fft_heterogeneous_search
from repro.workloads import FftWorkload, OperatorMap

ADDERS = ["ADDt(16,10)", "ACA(16,8)", "ETAIV(16,4)"]
MULTIPLIERS = ["MULt(16,8)", "AAM(16)", "ABM(16)"]


class CountingBackend(DirectBackend):
    """Plug-in backend counting its calls and elements."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0
        self.elements = 0

    def execute(self, operator, a, b):
        self.calls += 1
        self.elements += np.broadcast(np.asarray(a), np.asarray(b)).size
        return super().execute(operator, a, b)


def frames_of(size, count, seed=0):
    return np.stack([random_q15_signal(size, seed=seed + frame)
                     for frame in range(count)])


# --------------------------------------------------------------------- #
# FixedPointFFT.forward on a stack
# --------------------------------------------------------------------- #
class TestStackedForward(object):
    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("frames", [1, 2, 8])
    def test_stack_equals_per_frame_forward(self, size, frames):
        def context():
            return ApproxContext(adder="ACA(16,8)", multiplier="AAM(16)")

        stack = frames_of(size, frames)
        imag = frames_of(size, frames, seed=50) >> 2
        stacked = FixedPointFFT(size, context=context()).forward(stack, imag)
        assert stacked.real.shape == stacked.imag.shape == (frames, size)
        additions = multiplications = 0
        for row in range(frames):
            single = FixedPointFFT(size, context=context()).forward(
                stack[row], imag[row])
            assert np.array_equal(stacked.real[row], single.real)
            assert np.array_equal(stacked.imag[row], single.imag)
            additions += single.counts.additions
            multiplications += single.counts.multiplications
        assert (stacked.counts.additions, stacked.counts.multiplications) \
            == (additions, multiplications)

    def test_input_arrays_are_not_written(self):
        stack = frames_of(32, 3)
        kept = stack.copy()
        FixedPointFFT(32).forward(stack, stack)
        assert np.array_equal(stack, kept)

    def test_row_contexts_match_the_seed_oracle_and_charge_their_rows(self):
        fft = FixedPointFFT(32)
        a = ApproxContext(adder="ADDt(16,10)")
        b = ApproxContext(adder="ACA(16,8)", multiplier="MULt(16,8)")
        genome = [ApproxContext(adder=name) for name in
                  ("ADD(16)", "ETAIV(16,4)", "ADD(16)", "ACA(16,6)",
                   "ADDr(16,12)")]
        rows = [a, b, genome, a]
        stack = frames_of(32, len(rows))
        result = fft.forward(stack, row_contexts=rows)
        per_frame = fft.operation_counts()
        for row, datapath in enumerate(rows):
            oracle = seed_fft_forward(fft, datapath, stack[row])
            assert np.array_equal(result.real[row], oracle.real)
            assert np.array_equal(result.imag[row], oracle.imag)
        # Each context was charged for its own rows only (and the oracle
        # charged the same amount again).
        assert a.counts.additions == 2 * 2 * per_frame.additions
        assert b.counts.multiplications == 2 * per_frame.multiplications
        assert result.counts.additions == len(rows) * per_frame.additions
        assert result.counts.multiplications \
            == len(rows) * per_frame.multiplications

    def test_one_backend_call_per_distinct_operator_per_stage(self):
        backend = CountingBackend()
        fft = FixedPointFFT(32)

        def ctx(adder=None, multiplier=None):
            return ApproxContext(adder=adder, multiplier=multiplier,
                                 backend=backend)

        # Separately parsed operators with equal names share their calls.
        adders = [ctx("ADDt(16,10)"), ctx("ACA(16,8)"), ctx("ADDt(16,10)"),
                  ctx("ETAIV(16,4)")]
        fft.forward(frames_of(32, 4), row_contexts=adders)
        assert backend.calls == fft.stages * (4 * 1 + 6 * 3)

        backend.calls = 0
        multipliers = [ctx(multiplier="AAM(16)"), ctx(multiplier="MULt(16,8)"),
                       ctx(multiplier="AAM(16)")]
        fft.forward(frames_of(32, 3), row_contexts=multipliers)
        assert backend.calls == fft.stages * (4 * 2 + 6 * 1)

        backend.calls = 0
        fft.forward(frames_of(32, 8), row_contexts=[ctx()] * 8)
        assert backend.calls == fft.stages * 10

    def test_malformed_row_contexts_rejected(self):
        fft = FixedPointFFT(32)
        with pytest.raises(ValueError, match="row contexts"):
            fft.forward(frames_of(32, 2), row_contexts=[ApproxContext()])
        with pytest.raises(ValueError, match="stage contexts"):
            fft.forward(frames_of(32, 1),
                        row_contexts=[[ApproxContext()] * 3])
        with pytest.raises(ValueError, match="word length"):
            fft.forward(frames_of(32, 1),
                        row_contexts=[ApproxContext(data_width=12)])


# --------------------------------------------------------------------- #
# FftWorkload.run_many against the per-frame, per-candidate oracle
# --------------------------------------------------------------------- #
def adder_sweep(backend="direct"):
    return [(OperatorMap(swept=op, adder=op, backend=backend), {})
            for op in map(parse_operator, ADDERS)]


def multiplier_sweep():
    return [(OperatorMap(swept=op, multiplier=op), {})
            for op in map(parse_operator, MULTIPLIERS)]


def genomes(stages, distinct):
    pool = ["ADD(16)", "ADDt(16,14)", "ADDt(16,10)", "ADDr(16,12)",
            "ACA(16,6)", "ACA(16,10)", "ETAIV(16,4)", "RCAApx(16,8,1)"]
    swept = parse_operator("ADD(16)")
    if distinct:
        rows = [tuple(pool[(start + stage) % len(pool)]
                      for stage in range(stages)) for start in (0, 3)]
    else:
        rows = [tuple(pool[2] if stage % 2 else pool[4]
                      for stage in range(stages)),
                (pool[1],) * stages,
                tuple(pool[stage % 3] for stage in range(stages))]
    return [(OperatorMap(swept=swept), {"stage_adders": genome})
            for genome in rows]


def run_both(entries, **config):
    workload = FftWorkload()
    tasks = []
    for operators, overrides in entries:
        merged = workload.merged_config({**config, **overrides})
        merged.setdefault("seed", 0)
        tasks.append((operators, merged, np.random.default_rng(0)))
    batched = workload.run_many(tasks)
    oracle = [seed_fft_workload_run(operators, merged)
              for operators, merged, _ in tasks]
    return batched, oracle


def as_bytes(result):
    return json.dumps({"metrics": dict(result.metrics),
                       "counts": [result.counts.additions,
                                  result.counts.multiplications],
                       "details": dict(result.details)}, sort_keys=True)


def assert_byte_equal(batched, oracle):
    assert len(batched) == len(oracle)
    for got, want in zip(batched, oracle):
        assert as_bytes(got) == as_bytes(want)


class TestRunManyMatchesOracle(object):
    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("frames", [1, 2, 8])
    @pytest.mark.parametrize("sweep", ["adders", "multipliers",
                                       "genomes_repeated",
                                       "genomes_distinct"])
    def test_sweep(self, sweep, size, frames):
        stages = FixedPointFFT(size).stages
        entries = {"adders": adder_sweep,
                   "multipliers": multiplier_sweep,
                   "genomes_repeated": lambda: genomes(stages, False),
                   "genomes_distinct": lambda: genomes(stages, True)}[sweep]()
        assert_byte_equal(*run_both(entries, size=size, data_width=16,
                                    frames=frames, seed=3))

    def test_batch_mixing_stimulus_seeds_and_configs(self):
        workload = FftWorkload()
        adder = parse_operator("ACA(16,8)")
        homogeneous = OperatorMap(swept=adder, adder=adder)
        heterogeneous = OperatorMap(swept=parse_operator("ADD(16)"))
        configs = [
            (homogeneous, {"size": 32, "frames": 2, "seed": 0}),
            (heterogeneous, {"size": 64, "frames": 1, "seed": 4,
                             "stage_adders": ("ACA(16,6)",) * 6}),
            (homogeneous, {"size": 32, "frames": 2, "seed": 1}),
            (homogeneous, {"size": 64, "frames": 2, "seed": 4,
                           "amplitude": 0.25}),
            (homogeneous, {"size": 32, "frames": 2, "seed": 0}),
            (heterogeneous, {"size": 64, "frames": 1, "seed": 4,
                             "stage_adders": ("ADD(16)",) * 6}),
        ]
        tasks = [(operators, workload.merged_config(config),
                  np.random.default_rng(0)) for operators, config in configs]
        batched = workload.run_many(tasks)
        oracle = [seed_fft_workload_run(operators, config)
                  for operators, config, _ in tasks]
        assert_byte_equal(batched, oracle)
        assert as_bytes(batched[0]) == as_bytes(batched[4])

    def test_plugin_backend(self):
        backend = CountingBackend()
        batched, oracle = run_both(adder_sweep(backend), size=32, frames=2)
        assert_byte_equal(batched, oracle)
        assert backend.calls > 0

    def test_run_is_run_many_of_one(self):
        workload = FftWorkload()
        operators, _ = adder_sweep()[1]
        config = workload.merged_config({"frames": 2, "seed": 5})
        single = workload.run(operators, config, np.random.default_rng(0))
        assert as_bytes(single) == as_bytes(
            seed_fft_workload_run(operators, config))

    def test_injected_adder_with_stage_adders_rejected(self):
        workload = FftWorkload()
        adder = parse_operator("ADD(16)")
        config = workload.merged_config(
            {"stage_adders": ("ADD(16)",) * 5, "seed": 0})
        with pytest.raises(ValueError, match="stage_adders"):
            workload.run_many([(OperatorMap(swept=adder, adder=adder), config,
                                np.random.default_rng(0))])


# --------------------------------------------------------------------- #
# One in-process chunk versus contiguous chunks on a process pool
# --------------------------------------------------------------------- #
def fronts_of(result):
    return {key: front.to_dict() for key, front in result.fronts.items()}


def registry_run(name):
    """``build`` of a registry experiment at reduced density, on the
    run-wide pool that ``run_all`` shares between its sweeps."""
    return lambda workers: run_all(reduced=True, workers=workers,
                                   experiments=[name]).results[name]


def split_groups(workload, adders, group, config):
    """``build`` of a 6-point sweep: the first 4 points share one stimulus,
    the last 2 run under ``config``.  Three workers cut it into chunks of
    2, so the chunk boundary at index 2 splits the first group."""
    def build(workers):
        points = [adder_point(parse_operator(name),
                              config=config if index >= 4 else None)
                  for index, name in enumerate(adders)]
        return Study().workload(workload, **group).design_space(points) \
            .run(workers=workers)
    return build


@pytest.mark.parametrize("build", [
    lambda workers: fft_heterogeneous_search(reduced=True, workers=workers),
    lambda workers: fft_adder_sweep(reduced=True, frames=4).run(workers=workers),
    registry_run("table5_kmeans_adders"),
    registry_run("fig6_jpeg"),
    split_groups("fft", ["ADDt(16,10)", "ACA(16,8)", "ETAIV(16,4)",
                         "ADDt(16,12)", "ACA(16,10)", "ADDt(16,8)"],
                 {"size": 32, "frames": 2}, {"frames": 3}),
    split_groups("kmeans", ["ADDt(16,11)", "ACA(16,8)", "ETAIV(16,4)",
                            "ADDt(16,9)", "ACA(16,10)", "ADDt(16,13)"],
                 {"runs": 2, "points_per_run": 240, "iterations": 3},
                 {"points_per_run": 200}),
], ids=["fft_heterogeneous_search", "fig5_fft_adders", "table5_kmeans_adders",
        "fig6_jpeg", "fft_split_stimulus", "kmeans_split_clouds"])
def test_serial_batch_matches_process_pool(build, monkeypatch):
    """Rows, fronts and every point's metrics, counts and details agree."""
    outcomes = Study._outcomes
    seen = []

    def recording(self, *args):
        for index, result, fresh in outcomes(self, *args):
            seen.append((index, as_bytes(result)))
            yield index, result, fresh

    monkeypatch.setattr(Study, "_outcomes", recording)
    serial = build(1)
    serial_outcomes, seen[:] = sorted(seen), []
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # a pool on any host
    pooled = build(3)
    assert serial.rows == pooled.rows
    assert fronts_of(serial) == fronts_of(pooled)
    assert serial_outcomes == sorted(seen)
