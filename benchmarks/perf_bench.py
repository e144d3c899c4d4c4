#!/usr/bin/env python3
"""Wall-clock benchmark of kernel fusion and adaptive search, emitting
``BENCH_perf.json``.

Three representative 16-bit studies run on the ``"direct"`` backend:

* ``jpeg16`` — the JPEG multiplier comparison (data-sized ``MULt`` against
  the approximate AAM / ABM / Booth multipliers) over a 10-frame synthetic
  sequence; bound by the multiplier models themselves.
* ``fft16`` — the FFT-1024 data-sized adder sweep, where the stage-fused
  kernel turns the O(N log N) per-twiddle Python calls into ten batched
  calls per stage.
* ``fft2048_fused`` — a larger stage-fused FFT study (FFT-2048), showing
  the fusion at scale.

Each study is timed twice: with the **seed-style per-constant loops**
(``fused=False``, ``direct_s``) and with the stage-fused kernels
(``direct_fused_s``); ``fusion_speedup`` is the first over the second.  The
emitted records are asserted bit-identical across both runs before any
number is written.

The ``search`` section (``search_vs_sweep``) runs the seeded
successive-halving driver on the CI-gated ``fft_joint`` target at full
stimulus density and the exhaustive sweep of the same space, recording the
evaluation-cost advantage (exhaustive evaluations over the search's
full-density cost units, floor ``1/0.35``) and the recall (1.0 when the
searched front is exactly the exhaustive front — the floor, since anything
less is a correctness failure, not a slowdown).

Run with::

    PYTHONPATH=src python benchmarks/perf_bench.py [--output BENCH_perf.json]

``--check`` reads the *recorded* floors from the baseline JSON
(``--baseline``, defaulting to the output path before it is overwritten)
and exits non-zero on any regression: ``fusion_floor`` gates each study's
``fusion_speedup`` (see the ``STUDIES`` table for the floor that documents
a tolerance rather than a required win), ``advantage_floor`` and
``recall_floor`` gate the search section.  This is the regression gate the
CI workflow runs on every push.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro import Study, __version__

#: The benchmarked studies: name -> (workload spec, sweep axis, operator
#: specs, the ``fusion_speedup`` floor enforced by ``--check``).
#:
#: The FFT studies are dispatch-bound, so fusion must stay a multiple; the
#: jpeg16 study is bound by the multiplier models themselves, so fusion can
#: only reach parity there (0.86-1.13x measured) — its floor documents the
#: accepted tolerance band around 1.0x rather than a required win.
STUDIES = {
    "jpeg16": {
        "workload": "jpeg(size=192, quality=90, frames=10)",
        "axis": "multipliers",
        "operators": ["MULt(16,16)", "AAM(16)", "ABM(16)", "BOOTH(16)"],
        "description": "16-bit JPEG study: DCT multiplier comparison over a "
                       "10-frame synthetic sequence",
        "fusion_floor": 0.75,
    },
    "fft16": {
        "workload": "fft(1024, frames=2)",
        "axis": "adders",
        "operators": ["ADDt(16,14)", "ADDt(16,12)", "ADDt(16,10)",
                      "ADDt(16,8)", "ADDr(16,12)", "ADDr(16,10)"],
        "description": "16-bit FFT-1024 study: data-sized adder sweep, "
                       "stage-fused",
        "fusion_floor": 3.0,
    },
    "fft2048_fused": {
        "workload": "fft(2048, frames=2)",
        "axis": "adders",
        "operators": ["ADDt(16,12)", "ADDt(16,10)", "ADDr(16,10)"],
        "description": "16-bit FFT-2048 study: stage-fused adder sweep at "
                       "scale",
        "fusion_floor": 3.0,
    },
}

SEED = 7


def build_study(spec: dict, fused: bool = True) -> Study:
    study = Study().workload(spec["workload"]).seed(SEED)
    getattr(study, spec["axis"])(spec["operators"])
    if not fused:
        study.config(fused=False)
    return study


def time_study(spec: dict, fused: bool = True):
    """Run one study once; returns (wall seconds, result rows)."""
    start = time.perf_counter()
    result = build_study(spec, fused=fused).run()
    return time.perf_counter() - start, result.rows


def bench_study(name: str, spec: dict) -> dict:
    direct_s, direct_rows = time_study(spec, fused=False)
    direct_fused_s, fused_rows = time_study(spec)
    identical = direct_rows == fused_rows
    if not identical:
        raise AssertionError(
            f"{name}: stage-fused records differ from the seed-style "
            f"reference")
    record = {
        "description": spec["description"],
        "workload": spec["workload"],
        "sweep": list(spec["operators"]),
        "seed": SEED,
        "direct_s": round(direct_s, 4),
        "direct_fused_s": round(direct_fused_s, 4),
        "fusion_speedup": round(direct_s / direct_fused_s, 2),
        "fusion_floor": spec["fusion_floor"],
        "identical_records": identical,
    }
    print(f"{name}: seed-style {direct_s:6.2f}s | fused "
          f"{direct_fused_s:6.2f}s ({record['fusion_speedup']:.2f}x) | "
          f"records identical")
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
    field the floor gates (``fusion_speedup`` for ``fusion_floor``,
    ``eval_advantage`` / ``recall`` for the search section's floors).
    """
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    recorded = dict(payload.get("studies", {}))
    if "search" in payload:
        recorded["search"] = payload["search"]
    floors = {}
    for name, study in recorded.items():
        gates = {}
        if "fusion_floor" in study:
            gates["fusion_speedup"] = study["fusion_floor"]
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
                        help="fail when a measured speedup falls below the "
                             "floor recorded in the baseline JSON")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON holding the floors for --check "
                             "(default: the --output path, read before "
                             "overwriting)")
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
        measured_sections = dict(payload["studies"], search=payload["search"])
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
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
