#!/usr/bin/env python3
"""Wall-clock benchmark of adaptive search, emitting ``BENCH_perf.json``.

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
and exits non-zero on any regression: ``advantage_floor`` and
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

from repro import __version__

SEED = 7

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
    """Recorded search floors from an earlier BENCH_perf.json.

    Returns ``{metric: floor}`` where ``metric`` is the measured field of
    the search section the floor gates (``eval_advantage`` for
    ``advantage_floor``, ``recall`` for ``recall_floor``).
    """
    if not path.exists():
        return {}
    search = json.loads(path.read_text()).get("search", {})
    return {metric: search[floor] for metric, floor in
            (("eval_advantage", "advantage_floor"),
             ("recall", "recall_floor")) if floor in search}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="path of the emitted JSON (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="fail when a measured search metric falls below "
                             "the floor recorded in the baseline JSON")
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
        "search": bench_search(),
    }
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
        for metric, floor in floors.items():
            measured = payload["search"][metric]
            if measured < floor:
                print(f"FAIL: search {metric} {measured:.2f}x regressed "
                      f"below the recorded floor {floor:.2f}x",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
