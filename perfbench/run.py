#!/usr/bin/env python3
"""The repository benchmark: user-facing paths timed end to end, by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``suite_reduced`` — ``repro run --reduced --store`` (``run_all`` on its
  default ``direct`` backend, one worker, fresh store), then warm replays
  against the filled store; checked against recorded per-experiment
  digests (:mod:`suite_reduced`).  The experiment registry pins every
  stimulus seed, so the workload does not depend on ``--seed``.
* ``serve_mixed`` — seeded closed-loop ``evaluate`` traffic against
  ``python -m repro serve`` on its defaults (:mod:`serve_mixed`).

Each iteration is a fresh process (the server, or a suite child) with a
fresh store, after the shared-memory table arena is purged; an iteration
whose program attached to an arena segment it did not build fails its
cold-start check.  Iterations repeat until ``--seconds`` is used up (see
:data:`MIN_ITERATIONS`) while :mod:`host_probe` samples the speed of the
cores the workload runs on; every time is scaled to the reference host
speed by the samples taken around it.  With ``--trace 0``
the last stdout line carries the end-to-end metrics, each a median over
iterations.  ``--trace 1`` alternates traced and untraced iterations,
prints the per-layer self-time table (with the untraced remainder) and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced ``wall_s``).  An environment block precedes the result on
stdout; a full record (unscaled samples, per-iteration figures and the
probers' samples) goes to ``.bench_work/results/``.

``--record`` re-records the suite digests (after an intended change of
results) instead of benchmarking.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List

import common
import host_probe
import serve_mixed
import spans
import suite_reduced

WORKLOADS = {"suite_reduced": suite_reduced, "serve_mixed": serve_mixed}
#: What ``--seed`` changes, recorded in the environment block.
SEED_EFFECT = {
    "suite_reduced": "none: the experiment registry pins every stimulus "
                     "seed",
    "serve_mixed": "the 4 stimulus seeds and both clients' request order",
}
#: Iterations start while they are expected to end within ``--seconds``.
#: Until MIN_ITERATIONS have run they may end up to OVERRUN x ``--seconds``,
#: so a slow machine shortens the median rather than stretching the run;
#: a traced run always gets one traced and one untraced iteration.
MIN_ITERATIONS = 3
OVERRUN = 1.1
#: No iteration starts that could end after this many seconds, so a run
#: ends within 180 s even when the program hangs.
HARD_LIMIT_S = 150.0
#: Extra set-ups per iteration, so ``setup_s`` is a median of several.
SETUP_PROBES = 1

#: ``(name, unit)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "frac"), ("warm_p50_ms", "ms"),
              ("warm_p99_ms", "ms"), ("cold_p50_ms", "ms"),
              ("throughput_rps", "1/s"))


def run_iteration(env: Dict[str, str], run_dir: Path, workload: str,
                  seed: int, index: int, traced: bool,
                  probes: int = 0) -> dict:
    module = WORKLOADS[workload]
    workdir = run_dir / f"iteration-{index}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    wall_started = time.time()
    try:
        setups = []
        for probe in range(probes):
            probe_dir = workdir / f"probe-{probe}"
            probe_dir.mkdir()
            setups.append(module.setup_probe(env, probe_dir))
        record = module.run_iteration(env, workdir, seed, index, traced)
        record["setups"] = [*setups, record["setup"]]
        attaches = record["table_cache"]["arena"]["attaches"]
        record["attempted"] += 1
        if attaches:
            record["failed"] += 1
            record["failures"].append(
                f"attached {attaches} arena segment(s) built before the "
                f"iteration: its start state was not cold")
    except Exception:  # noqa: BLE001 - a broken iteration is a failure
        planned = module.planned_attempts()
        record = {"attempted": planned, "failed": planned,
                  "failures": [traceback.format_exc(limit=5)],
                  "broken": True}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["traced"] = traced
    record["duration_s"] = time.perf_counter() - started
    record["span"] = (wall_started, time.time())
    return record


def end_to_end(iterations: List[dict],
               prober: host_probe.HostProbe) -> Dict[str, float]:
    """End-to-end metrics from the untraced, unbroken iterations.

    Every timed ``[start, seconds]`` sample is first scaled to the
    reference host speed (:meth:`host_probe.HostProbe.scale`).  Each metric
    is then the median over iterations of that iteration's own figure (its
    wall clock, or a percentile of its requests), so one iteration that
    ran through a slow spell of the machine does not move the result;
    ``setup_s`` is the median of every set-up the run made.
    """
    runs = [it for it in iterations
            if not it["traced"] and not it.get("broken")]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)

    def scaled(samples: List[List[float]]) -> List[float]:
        return [seconds * prober.scale(start, seconds)
                for start, seconds in samples]

    for it in runs:
        warm = scaled(it["warm"])
        it["figures"] = {
            "wall_s": scaled([it["wall"]])[0],
            "peak_rss_mb": it["peak_rss_mb"],
            "warm_p50_ms": common.median(warm) * 1000.0,
            "warm_p99_ms": common.percentile(warm, 0.99) * 1000.0,
            "cold_p50_ms": common.median(scaled(it["cold"])) * 1000.0,
            "throughput_rps": it["requests"] / sum(scaled(it["busy"])),
        }
    metrics = {name: common.median([it["figures"][name] for it in runs])
               for name, _ in END_TO_END
               if name not in ("setup_s", "ok_frac")}
    metrics["setup_s"] = common.median([seconds for it in runs
                                        for seconds in scaled(it["setups"])])
    metrics["ok_frac"] = 1.0 - failed / attempted
    return metrics


def per_layer(iterations: List[dict]) -> Dict[str, object]:
    """Per-layer metrics (medians over traced iterations) plus the table;
    seconds are scaled to the reference host speed by each iteration's
    mean ``scale``."""
    traced = [it for it in iterations if it["traced"] and not it.get("broken")]
    untraced = [it for it in iterations
                if not it["traced"] and not it.get("broken")]
    units = dict(spans.PER_LAYER)
    samples: Dict[str, List[float]] = {}
    layers: Dict[str, List[float]] = {}
    for it in traced:
        metrics = spans.layer_metrics(it["trace"], it["table_cache"],
                                      it.get("batching", {}),
                                      it.get("shed", 0))
        own = spans.layer_self_times(it["trace"])
        busy_s = sum(seconds for _, seconds in it["busy"])
        metrics["trace.remainder_s"] = busy_s - sum(own.values())
        own["untraced remainder"] = metrics["trace.remainder_s"]
        own["(traced work)"] = busy_s
        for name, value in metrics.items():
            scale = it["scale"] if units.get(name) == "s" else 1.0
            samples.setdefault(name, []).append(value * scale)
        for name, value in own.items():
            layers.setdefault(name, []).append(value * it["scale"])
    values = {name: common.median(samples.get(name, []))
              for name in units}
    if traced and untraced:
        values["trace.overhead_s"] = (
            common.median([it["wall"][1] * it["scale"] for it in traced])
            - common.median([it["wall"][1] * it["scale"]
                             for it in untraced]))
    return {"metrics": values,
            "table": {name: common.median(seconds)
                      for name, seconds in layers.items()}}


def print_layer_table(table: Dict[str, float], overhead: float) -> None:
    work = table.get("(traced work)", 0.0)
    print(f"{'layer (self time)':<24}{'seconds':>12}{'share':>9}")
    for name, seconds in table.items():
        share = seconds / work if work else 0.0
        print(f"{name:<24}{seconds:>12.4f}{share:>9.1%}")
    print(f"{'tracing overhead':<24}{overhead:>12.4f}  "
          f"(traced minus untraced wall_s)")


def environment(workload: str, seed: int) -> Dict[str, object]:
    import importlib.metadata
    import importlib.util

    import numpy
    import repro
    from repro.cli import build_parser
    from repro.core.backends import describe_backends

    parser = build_parser()
    git = None
    if (common.ROOT / ".git").exists():
        completed = subprocess.run(["git", "rev-parse", "HEAD"],
                                   cwd=common.ROOT, capture_output=True,
                                   text=True, timeout=30)
        git = completed.stdout.strip() or None
    numba = importlib.metadata.version("numba") \
        if importlib.util.find_spec("numba") else None
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": common.DEFAULT_SEED,
        "seed_effect": SEED_EFFECT[workload],
        "repro": repro.__version__,
        "git_sha": git,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": numba,
        "engine": {backend["name"]: backend.get("engine")
                   for backend in describe_backends()
                   if backend.get("engine")},
        "default_backends": {command: parser.parse_args([command]).backend
                             for command in ("run", "search", "serve")},
        "nproc": os.cpu_count(),
        "loadavg_before": common.loadavg(),
        "host_reference_s": host_probe.REFERENCE_S,
    }


def record_digests(env: Dict[str, str], run_dir: Path) -> int:
    record = run_iteration(env, run_dir, "suite_reduced",
                           common.DEFAULT_SEED, 0, False)
    if record.get("broken"):
        print(record["failures"][0], file=sys.stderr)
        return 1
    path = common.BENCH_DIR / "expected.json"
    path.write_text(json.dumps({"digests": record["digests"]}, indent=2,
                               sort_keys=True) + "\n")
    print(f"recorded {len(record['digests'])} digests in {path}",
          file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="suite_reduced")
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the suite digests and exit")
    args = parser.parse_args()

    common.require_source()
    env = common.pin_environment()
    run_dir = common.WORK / f"run-{os.getpid()}"
    try:
        if args.record:
            return record_digests(env, run_dir)
        info = environment(args.workload, args.seed)
        started = time.perf_counter()
        iterations: List[dict] = []
        prober = host_probe.HostProbe(
            env, run_dir / "host-probe",
            WORKLOADS[args.workload].probed_cpus())
        try:
            while True:
                traced = bool(args.trace) and len(iterations) % 2 == 0
                record = run_iteration(
                    env, run_dir, args.workload, args.seed,
                    len(iterations), traced,
                    probes=0 if args.trace else SETUP_PROBES)
                iterations.append(record)
                expected_end = time.perf_counter() - started \
                    + max(it["duration_s"] for it in iterations)
                if expected_end > HARD_LIMIT_S:
                    break
                if len(iterations) < 1 + args.trace:
                    continue
                if expected_end > args.seconds * (
                        1.0 if len(iterations) >= MIN_ITERATIONS
                        else OVERRUN):
                    break
        finally:
            prober.stop()
        for index, it in enumerate(iterations):
            start, end = it["span"]
            it["scale"] = prober.scale(start, end - start)
            if it["scale"] is None:
                raise RuntimeError(f"the host prober took no sample during "
                                   f"iteration {index}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # The arena purge attached shared memory, which started the
        # multiprocessing resource tracker; stop it and wait for it.
        resource_tracker._resource_tracker._stop()

    info["loadavg_after"] = common.loadavg()
    info["iterations"] = len(iterations)
    info["host_scale"] = [round(it["scale"], 4) for it in iterations]
    info["arena"] = [it.get("table_cache", {}).get("arena")
                     for it in iterations]
    failures = [message for it in iterations for message in it["failures"]]
    for message in failures[:5]:
        print(f"FAIL: {message}", file=sys.stderr)

    units = dict(spans.PER_LAYER) if args.trace else dict(END_TO_END)
    if args.trace:
        layered = per_layer(iterations)
        values = layered["metrics"]
        print_layer_table(layered["table"], values["trace.overhead_s"])
    else:
        values = end_to_end(iterations, prober)
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}

    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{stamp}-{os.getpid()}.json").write_text(json.dumps(
                   {"environment": info, "result": result,
                    "host_probe": prober.samples,
                    "iterations": [{key: value for key, value in it.items()
                                    if key not in ("cold", "warm", "trace")}
                                   for it in iterations]},
                   indent=1, default=str))
    print(json.dumps({"environment": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
