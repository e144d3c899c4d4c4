"""The ``suite_reduced`` workload: ``repro run --reduced --store``.

Driver side (imported by ``run.py``): :func:`run_iteration` starts this
file as a fresh child process with a fresh store, and :func:`setup_probe`
times one more child start.  Every suite process is pinned to one core,
the one :func:`probed_cpus` names for the host prober.

Child side (one iteration; prints one JSON line)::

    python perfbench/suite_reduced.py STORE LAUNCHED [--trace | --setup-only]

``LAUNCHED`` is the driver's ``time.time()`` just before it started the
child, so ``setup_s`` covers interpreter start plus the entry point's
imports.  A request is the call a caller waits on: ``run_all(reduced=True,
store=STORE)`` on its default ``direct`` backend with one worker.  It runs
once against the fresh store (cold; its time is ``wall_s``) and is then
replayed :data:`REPLAYS` times against the filled store (warm).  A warm
replay is what re-running ``repro run --reduced --store`` on a complete
store costs: the README's resume path after an interrupted run finished,
and a run on a store that ``merge --store`` filled from every shard.  Every
pass is checked experiment by experiment against the digests recorded in
``expected.json``.  The experiment registry pins every stimulus seed, so
the workload does not depend on ``--seed``.  Timed samples are
``[time.time() at start, seconds]`` pairs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from common import last_json_line, load_expected, peak_rss_mb, result_digest
from host_probe import pin_to

#: Warm replays per iteration (~0.15 s each on the reference host).
REPLAYS = 20
#: Kill a child (or a set-up probe) that runs longer than this.
CHILD_TIMEOUT_S = 100.0
PROBE_TIMEOUT_S = 20.0


def planned_attempts() -> int:
    """Checks one iteration makes: every experiment on every pass, plus the
    cold-arena check; a broken iteration counts all of them as failed."""
    from repro.experiments import experiment_names

    return len(experiment_names()) * (REPLAYS + 1) + 1


def probed_cpus() -> List[int]:
    """The core every suite process runs on: the first one allowed."""
    return [min(os.sched_getaffinity(0))]


def _child_command(store: Path, *options: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), str(store),
            repr(time.time()), *options]


def setup_probe(env: Dict[str, str], workdir: Path) -> List[float]:
    """One extra child start (launch to imports done) in a fresh directory."""
    completed = subprocess.run(
        _child_command(workdir / "store", "--setup-only"), env=env,
        cwd=workdir, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True, preexec_fn=pin_to(probed_cpus()[0]))
    return last_json_line(completed.stdout)["setup"]


def run_iteration(env: Dict[str, str], workdir: Path, seed: int,
                  iteration: int, traced: bool) -> dict:
    options = ["--trace"] if traced else []
    completed = subprocess.run(_child_command(workdir / "store", *options),
                               env=env, cwd=workdir, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S,
                               preexec_fn=pin_to(probed_cpus()[0]))
    record = last_json_line(completed.stdout)
    if completed.returncode or record is None:
        raise RuntimeError(f"suite child exited {completed.returncode}: "
                           f"{completed.stderr[-2000:]}")
    # One cold request; busy time is every request, checks left out.
    record["wall"] = record["cold"][0]
    record["busy"] = record["cold"] + record["warm"]
    record["requests"] = len(record["busy"])
    return record


class Outcomes:
    """Checked outcomes of one iteration: ``attempted``/``failed`` plus the
    first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


def run_suite(store: str, outcomes: Outcomes) -> dict:
    from repro.experiments import experiment_names, run_all

    expected = load_expected()
    names = experiment_names()
    digests = {}
    samples = {"cold": [], "warm": []}
    for phase, passes in (("cold", 1), ("warm", REPLAYS)):
        for _ in range(passes):
            started_at = time.time()
            started = time.perf_counter()
            try:
                bundle = run_all(reduced=True, store=store)
            except Exception:  # noqa: BLE001 - counted, then reported
                for name in names:
                    outcomes.check(False, traceback.format_exc(limit=3))
                continue
            samples[phase].append([started_at,
                                   time.perf_counter() - started])
            for name in names:
                digest = result_digest(bundle.get(name)) \
                    if name in bundle.results else None
                digests.setdefault(name, digest)
                outcomes.check(digest == expected.get(name),
                               f"{phase} {name}: digest {digest} differs "
                               f"from the recorded one")
    return {**samples, "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("launched", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after the imports, reporting setup_s")
    args = parser.parse_args()

    import repro.experiments  # noqa: F401
    from repro.core.backends import cache_stats, clear_table_cache

    setup = [args.launched, time.time() - args.launched]
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0
    clear_table_cache(purge_arena=True)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()
    outcomes = Outcomes()
    record = run_suite(args.store, outcomes)
    stats = cache_stats()
    record.update({
        "setup": setup,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.messages,
        "peak_rss_mb": peak_rss_mb(),
        "table_cache": {
            "hits": stats["hits"], "misses": stats["misses"],
            "arena": {key: stats["arena"][key]
                      for key in ("builds", "attaches")}},
        "trace": recorder.snapshot() if recorder is not None else None,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
