#!/usr/bin/env python3
"""Wall-clock benchmark of the execution backends, emitting ``BENCH_perf.json``.

Three representative 16-bit studies run on each
:class:`~repro.core.backends.ExecutionBackend`:

* ``jpeg16`` — the JPEG multiplier comparison (data-sized ``MULt`` against
  the approximate AAM / ABM / Booth multipliers) over a 10-frame synthetic
  sequence, the setup where the ``"lut"`` backend's constant-coefficient
  tables carry the DCT's hot loop.
* ``fft16`` — the FFT-1024 data-sized adder sweep, where the sum-indexed
  adder tables carry the butterfly additions and the stage-fused kernel
  turns the O(N log N) per-twiddle Python calls into ten batched calls per
  stage.
* ``fft2048_fused`` — a larger stage-fused FFT study (FFT-2048), showing
  the fusion + coefficient-bank machinery at scale.

Each study is timed six ways: with the **pre-fusion reference execution**
(seed-style per-constant loops on the ``"direct"`` backend, ``direct_s``),
with the stage-fused kernels on ``"direct"`` (``direct_fused_s``, the
baseline every table-tier speedup is stated against), with a cold and a
warm ``"lut"`` backend running fused (``lut_cold_s`` / ``lut_warm_s``;
``speedup_cold`` / ``speedup_warm`` are fused direct over each), and with a
cold and a warm ``"compiled"`` backend (``compiled_cold_s`` /
``compiled_warm_s``; ``compiled_vs_lut`` is the warm-on-warm ratio).
``fusion_speedup`` is the pre-fusion time over the fused one.  The emitted
records are asserted bit-identical across all six runs before any number is
written.

Two further sections measure the machinery underneath the studies:

* the **jpeg16 multiplier kernel microbench** (``kernel_*`` fields on the
  jpeg16 study) times the warm coefficient-bank serve — the DCT's hot
  call shape — on ``"lut"`` against ``"compiled"``, isolating the
  multiplier-kernel speedup from the study's fixed per-frame workload
  (colour transforms, quantisation, PSNR) which dominates full-study wall
  clock and caps ``compiled_vs_lut`` near parity;
* the ``tables`` section times a cold table build (arena purged) against a
  warm cross-process arena attach of the same tables;
* the ``search`` section (``search_vs_sweep``) runs the seeded
  successive-halving driver on the CI-gated ``fft_joint`` target at full
  stimulus density and the exhaustive sweep of the same space, recording
  the evaluation-cost advantage (exhaustive evaluations over the search's
  full-density cost units, floor ``1/0.35``) and the recall (1.0 when the
  searched front is exactly the exhaustive front — the floor, since
  anything less is a correctness failure, not a slowdown).

Run with::

    PYTHONPATH=src python benchmarks/perf_bench.py [--output BENCH_perf.json]

``--check`` reads the *recorded* floors of each study from the baseline JSON
(``--baseline``, defaulting to the output path before it is overwritten) and
exits non-zero on any regression: ``floor_speedup`` gates the cold LUT
speedup over fused direct and ``fusion_floor`` gates the stage-fused direct
speedup (see the ``STUDIES`` table for the floors that document a tolerance
rather than a required win).  This is the regression gate the CI workflow
runs on every push.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import Study, __version__
from repro.core import clear_table_cache, parse_operator
from repro.core.backends import CompiledBackend, LutBackend

#: The benchmarked studies: name -> (workload spec, sweep axis, operator
#: specs, conservative speedup floors enforced by ``--check``).
#:
#: ``floor_speedup`` gates the cold LUT speedup over fused direct.  On jpeg16
#: the multiplier value tables still win (~2.2x); on the FFT studies the
#: closed-form adders make fused direct the faster path (lut 0.3-0.5x on
#: ~30 ms single shots), so those floors only catch a collapse of the table
#: tier.  ``fusion_floor``
#: gates ``fusion_speedup`` (stage-fused direct over the seed-style loops):
#: the FFT studies are dispatch-bound, so fusion must stay a multiple; the
#: jpeg16 study is bound by the multiplier models themselves, so fusion can
#: only reach parity there (0.89-1.13x measured) — its floor documents the
#: accepted tolerance band around 1.0x rather than a required win.  ``kernel_floor`` gates the
#: warm compiled-over-lut bank serve of the jpeg16 microbench (~2x).
STUDIES = {
    "jpeg16": {
        "workload": "jpeg(size=192, quality=90, frames=10)",
        "axis": "multipliers",
        "operators": ["MULt(16,16)", "AAM(16)", "ABM(16)", "BOOTH(16)"],
        "description": "16-bit JPEG study: DCT multiplier comparison over a "
                       "10-frame synthetic sequence",
        "floor_speedup": 1.5,
        "fusion_floor": 0.75,
        "kernel_floor": 1.5,
    },
    "fft16": {
        "workload": "fft(1024, frames=2)",
        "axis": "adders",
        "operators": ["ADDt(16,14)", "ADDt(16,12)", "ADDt(16,10)",
                      "ADDt(16,8)", "ADDr(16,12)", "ADDr(16,10)"],
        "description": "16-bit FFT-1024 study: data-sized adder sweep, "
                       "stage-fused",
        "floor_speedup": 0.15,
        "fusion_floor": 3.0,
    },
    "fft2048_fused": {
        "workload": "fft(2048, frames=2)",
        "axis": "adders",
        "operators": ["ADDt(16,12)", "ADDt(16,10)", "ADDr(16,10)"],
        "description": "16-bit FFT-2048 study: stage-fused adder sweep at "
                       "scale",
        "floor_speedup": 0.15,
        "fusion_floor": 3.0,
    },
}

SEED = 7


def build_study(spec: dict, backend: str, fused: bool = True) -> Study:
    study = Study().workload(spec["workload"]).seed(SEED).backend(backend)
    getattr(study, spec["axis"])(spec["operators"])
    if not fused:
        study.config(fused=False)
    return study


def time_study(spec: dict, backend: str, cold: bool, fused: bool = True):
    """Run one study once; returns (wall seconds, result rows)."""
    if cold:
        clear_table_cache()
    start = time.perf_counter()
    result = build_study(spec, backend, fused=fused).run()
    return time.perf_counter() - start, result.rows


def bench_study(name: str, spec: dict) -> dict:
    direct_s, direct_rows = time_study(spec, "direct", cold=True, fused=False)
    direct_fused_s, fused_rows = time_study(spec, "direct", cold=True)
    lut_cold_s, lut_rows = time_study(spec, "lut", cold=True)
    lut_warm_s, lut_warm_rows = time_study(spec, "lut", cold=False)
    compiled_cold_s, compiled_rows = time_study(spec, "compiled", cold=True)
    compiled_warm_s, compiled_warm_rows = time_study(spec, "compiled",
                                                     cold=False)
    identical = (direct_rows == fused_rows == lut_rows == lut_warm_rows
                 == compiled_rows == compiled_warm_rows)
    if not identical:
        raise AssertionError(
            f"{name}: stage-fused / lut / compiled records differ from the "
            f"seed-style direct reference")
    record = {
        "description": spec["description"],
        "workload": spec["workload"],
        "sweep": list(spec["operators"]),
        "seed": SEED,
        "direct_s": round(direct_s, 4),
        "direct_fused_s": round(direct_fused_s, 4),
        "lut_cold_s": round(lut_cold_s, 4),
        "lut_warm_s": round(lut_warm_s, 4),
        "compiled_cold_s": round(compiled_cold_s, 4),
        "compiled_warm_s": round(compiled_warm_s, 4),
        "speedup_cold": round(direct_fused_s / lut_cold_s, 2),
        "speedup_warm": round(direct_fused_s / lut_warm_s, 2),
        "fusion_speedup": round(direct_s / direct_fused_s, 2),
        "compiled_vs_lut": round(lut_warm_s / compiled_warm_s, 2),
        "floor_speedup": spec["floor_speedup"],
        "fusion_floor": spec["fusion_floor"],
        "identical_records": identical,
    }
    print(f"{name}: direct {direct_s:6.2f}s | fused {direct_fused_s:6.2f}s "
          f"({record['fusion_speedup']:.2f}x) | lut cold {lut_cold_s:6.2f}s "
          f"({record['speedup_cold']:.2f}x) | lut warm {lut_warm_s:6.2f}s "
          f"({record['speedup_warm']:.2f}x) | compiled warm "
          f"{compiled_warm_s:6.2f}s ({record['compiled_vs_lut']:.2f}x vs "
          f"lut) | records identical")
    return record


def bench_multiplier_kernels(spec: dict, reps: int = 7) -> dict:
    """Warm coefficient-bank microbench: compiled vs lut on the DCT shape.

    Times exactly the call the jpeg16 study's hot loop makes — a
    ``(blocks, 8, 8, 1)`` coefficient block against the stacked ``(8, 8)``
    DCT basis bank, flagged ``bank=True`` as the DCT passes it — on warm
    ``"lut"`` and warm ``"compiled"`` backends.
    This isolates the multiplier-serve speedup that the full-study numbers
    blur behind the fixed per-frame workload, and it is where the compiled
    tier's ``kernel_floor`` is enforced.
    """
    rng = np.random.default_rng(SEED)
    a = rng.integers(-20000, 20001, size=(24, 24, 8, 8, 1), dtype=np.int64)
    bank = rng.integers(-30000, 30001, size=(1, 1, 1, 8, 8), dtype=np.int64)
    operators = [parse_operator(text) for text in spec["operators"]]
    lut, compiled = LutBackend(), CompiledBackend()

    clear_table_cache()
    for operator in operators:  # build tables + fault in pages before timing
        reference = lut.execute(operator, a, bank, bank=True)
        mirrored = compiled.execute(operator, a, bank, bank=True)
        if not np.array_equal(reference, mirrored):
            raise AssertionError(
                f"kernel microbench: compiled result differs from lut for "
                f"{operator.name}")

    def best(backend) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            for operator in operators:
                backend.execute(operator, a, bank, bank=True)
            times.append(time.perf_counter() - start)
        return min(times)

    lut_s, compiled_s = best(lut), best(compiled)
    record = {
        "kernel_lut_s": round(lut_s, 4),
        "kernel_compiled_s": round(compiled_s, 4),
        "kernel_speedup": round(lut_s / compiled_s, 2),
        "kernel_floor": spec["kernel_floor"],
    }
    print(f"jpeg16 kernels: lut {lut_s * 1e3:6.1f}ms | compiled "
          f"{compiled_s * 1e3:6.1f}ms ({record['kernel_speedup']:.2f}x) | "
          f"bit-identical")
    return record


#: Operators whose tables the ``tables`` benchmark builds: four data-sized
#: adder sum tables (1 MiB each) plus three 8-bit multiplier pair tables.
TABLE_OPERATORS = ["ADDt(16,14)", "ADDt(16,12)", "ADDt(16,10)", "ADDt(16,8)",
                   "AAM(8)", "ABM(8)", "BOOTH(8)"]

TABLES_ATTACH_FLOOR = 3.0


def bench_tables() -> dict:
    """Cold table build against warm cross-process arena attach."""
    operators = [parse_operator(text) for text in TABLE_OPERATORS]
    lut = LutBackend()
    a = np.arange(-120, 120, dtype=np.int64)
    b = a[::-1].copy()

    def touch() -> None:
        for operator in operators:
            lut.execute(operator, a, b)

    clear_table_cache()  # purges the arena: the genuinely cold path
    start = time.perf_counter()
    touch()
    cold_build_s = time.perf_counter() - start

    # Drop the in-process cache but keep the segments: the attach path a
    # second worker (or the next run) takes.
    attach_s = None
    for _ in range(5):
        clear_table_cache(purge_arena=False)
        start = time.perf_counter()
        touch()
        elapsed = time.perf_counter() - start
        attach_s = elapsed if attach_s is None else min(attach_s, elapsed)
    clear_table_cache()

    record = {
        "description": "LUT construction: cold build vs shared-memory "
                       "arena attach of the same tables",
        "operators": list(TABLE_OPERATORS),
        "cold_build_s": round(cold_build_s, 4),
        "attach_s": round(attach_s, 4),
        "attach_speedup": round(cold_build_s / attach_s, 2),
        "attach_floor": TABLES_ATTACH_FLOOR,
    }
    print(f"tables: cold build {cold_build_s * 1e3:6.1f}ms | arena attach "
          f"{attach_s * 1e3:6.1f}ms ({record['attach_speedup']:.2f}x)")
    return record


#: ``eval_advantage`` floor of the ``search_vs_sweep`` study: the CI gate
#: requires the search to spend at most 35% of the exhaustive cost, i.e.
#: an advantage of at least 1/0.35.
SEARCH_ADVANTAGE_FLOOR = 2.85

SEARCH_RECALL_FLOOR = 1.0


def bench_search() -> dict:
    """Seeded halving search against the exhaustive sweep it must match.

    Same target, seed and full stimulus density as the CI recall gate
    (``repro search fft_joint --strategy halving --seed 7 --full``), so the
    advantage and recall recorded here are the gated numbers, with wall
    clocks alongside them.
    """
    from repro.search import get_target, search_row

    target = get_target("fft_joint")

    clear_table_cache()
    start = time.perf_counter()
    outcome = target.study(reduced=False).search(
        target.strategy("halving", seed=SEED))
    search_s = time.perf_counter() - start

    start = time.perf_counter()
    exhaustive = (target.study(reduced=False)
                  .design_space(target.space())
                  .rows(search_row)
                  .run())
    exhaustive_s = time.perf_counter() - start

    reference = exhaustive.front(target.quality, target.cost)
    recall = 1.0 if outcome.front.rows == reference.rows else 0.0
    record = {
        "description": "search_vs_sweep: successive halving on the CI-gated "
                       "fft_joint space vs the exhaustive sweep, full "
                       "stimulus density",
        "target": target.name,
        "strategy": "halving",
        "seed": SEED,
        "space_size": outcome.space_size,
        "search_evaluations": outcome.evaluations,
        "search_cost_units": round(outcome.cost_units, 4),
        "exhaustive_evaluations": len(exhaustive.rows),
        "search_s": round(search_s, 4),
        "exhaustive_s": round(exhaustive_s, 4),
        "eval_advantage": round(len(exhaustive.rows) / outcome.cost_units, 2),
        "front_points": len(outcome.front.records),
        "recall": recall,
        "advantage_floor": SEARCH_ADVANTAGE_FLOOR,
        "recall_floor": SEARCH_RECALL_FLOOR,
    }
    print(f"search: halving {search_s:6.2f}s "
          f"({record['search_cost_units']} cost units) | exhaustive "
          f"{exhaustive_s:6.2f}s ({record['exhaustive_evaluations']} evals) "
          f"| advantage {record['eval_advantage']:.2f}x | recall "
          f"{recall:.0%}")
    return record


def load_floors(path: Path) -> dict:
    """Recorded per-study speedup floors from an earlier BENCH_perf.json.

    Returns ``{study: {metric: floor}}`` where ``metric`` is the measured
    field the floor gates (``speedup_cold`` for ``floor_speedup``,
    ``fusion_speedup`` for ``fusion_floor``).
    """
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    recorded = dict(payload.get("studies", {}))
    if "tables" in payload:
        recorded["tables"] = payload["tables"]
    if "search" in payload:
        recorded["search"] = payload["search"]
    floors = {}
    for name, study in recorded.items():
        gates = {}
        if "floor_speedup" in study:
            gates["speedup_cold"] = study["floor_speedup"]
        if "fusion_floor" in study:
            gates["fusion_speedup"] = study["fusion_floor"]
        if "kernel_floor" in study:
            gates["kernel_speedup"] = study["kernel_floor"]
        if "attach_floor" in study:
            gates["attach_speedup"] = study["attach_floor"]
        if "advantage_floor" in study:
            gates["eval_advantage"] = study["advantage_floor"]
        if "recall_floor" in study:
            gates["recall"] = study["recall_floor"]
        if gates:
            floors[name] = gates
    return floors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="path of the emitted JSON (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="fail when a measured cold LUT speedup falls "
                             "below the floor recorded in the baseline JSON")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON holding the floors for --check "
                             "(default: the --output path, read before "
                             "overwriting)")
    parser.add_argument("--min-jpeg-speedup", type=float, default=0.0,
                        help="fail unless the cold LUT speedup on the jpeg16 "
                             "study reaches this factor (default: report only)")
    args = parser.parse_args(argv)

    floors = load_floors(Path(args.baseline or args.output)) \
        if args.check else {}

    payload = {
        "script": "benchmarks/perf_bench.py",
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "studies": {name: bench_study(name, spec)
                    for name, spec in STUDIES.items()},
    }
    payload["studies"]["jpeg16"].update(
        bench_multiplier_kernels(STUDIES["jpeg16"]))
    payload["tables"] = bench_tables()
    payload["search"] = bench_search()
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = False
    if args.check:
        if not floors:
            # A missing or floorless baseline must not turn the gate green.
            print("FAIL: --check found no recorded floors in "
                  f"{args.baseline or args.output}; the regression gate "
                  f"has nothing to enforce", file=sys.stderr)
            failed = True
        measured_sections = dict(payload["studies"], tables=payload["tables"],
                                 search=payload["search"])
        for name, gates in floors.items():
            study = measured_sections.get(name)
            if study is None:
                print(f"FAIL: baseline floor for {name!r} matches no "
                      f"measured study (renamed or removed?)",
                      file=sys.stderr)
                failed = True
                continue
            for metric, floor in gates.items():
                measured = study[metric]
                if measured < floor:
                    print(f"FAIL: {name} {metric} {measured:.2f}x regressed "
                          f"below the recorded floor {floor:.2f}x",
                          file=sys.stderr)
                    failed = True

    jpeg_speedup = payload["studies"]["jpeg16"]["speedup_cold"]
    if args.min_jpeg_speedup and jpeg_speedup < args.min_jpeg_speedup:
        print(f"FAIL: jpeg16 cold speedup {jpeg_speedup:.2f}x is below the "
              f"required {args.min_jpeg_speedup:.2f}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
