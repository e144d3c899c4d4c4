#!/usr/bin/env python3
"""Load test of the evaluation server, emitting ``BENCH_serve.json``.

The server exists to amortise cold costs — interpreter start, NumPy import,
hardware characterisation — across requests.  This bench measures exactly
that amortisation:

* **cold one-shot baseline** — the same single design point evaluated in a
  fresh ``python`` subprocess (the ``python -m repro``-style cost a user
  pays without a server), timed end to end including interpreter start;
* **cold server pass** — each operator's first evaluation against the
  server (characterisation and the store record are built here);
* **warm concurrent pass** — ``--clients`` threads each issue
  ``--requests`` evaluations of already-recorded points, giving the warm
  latency distribution (p50/p95/p99) and throughput.

The headline figure is ``warm_advantage``: the cold one-shot wall clock
divided by the warm server p50.  A long-lived server must answer a warm
query at least ``warm_advantage_floor`` (5x) faster than a cold one-shot
process — ``--check`` reads the recorded floor from the baseline JSON
(``--baseline``, defaulting to the output path before it is overwritten)
and exits non-zero below it.

Run against a self-booted in-process server (the default)::

    PYTHONPATH=src python benchmarks/serve_bench.py --reduced

or against an already-running one::

    PYTHONPATH=src python benchmarks/serve_bench.py --url http://127.0.0.1:8023

Every warm response is asserted bit-identical to the cold response of the
same point before any number is written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro import __version__
from repro.server import EvalServer, ServerUnavailable, query

#: Fixed sweep of data-sized and approximate 16-bit adders: enough distinct
#: operators for a meaningful cold pass, cheap enough for CI.
OPERATORS = ["ADD(16)", "ADDt(16,12)", "ADDt(16,10)", "ACA(16,8)",
             "ETAII(16,4)", "ETAIV(16,4)"]

SEED = 0

#: The warm server must beat a cold one-shot process by this factor (p50).
WARM_ADVANTAGE_FLOOR = 5.0


def workload_params(reduced: bool) -> dict:
    if reduced:
        return {"workload": "fft", "config": {"size": 64, "frames": 2}}
    return {"workload": "fft", "config": {"size": 256, "frames": 4}}


def percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def evaluate_params(base: dict, operator: str) -> dict:
    return {"workload": base["workload"], "config": base["config"],
            "adder": operator, "seed": SEED}


def timed_query(url: str, action: str, params: dict) -> tuple:
    start = time.perf_counter()
    envelope = query(url, action, params, timeout=300.0)
    elapsed = time.perf_counter() - start
    if envelope.get("status") != "ok":
        raise RuntimeError(f"server returned an error envelope: {envelope}")
    return elapsed, envelope["result"]


def cold_oneshot_seconds(base: dict, operator: str) -> float:
    """Wall clock of the same point in a fresh process, no server.

    Includes interpreter start and imports — the true cost of a one-shot
    ``python -m repro``-style evaluation on a cold machine state.
    """
    source_root = Path(repro.__file__).resolve().parents[1]
    code = (
        "from repro.core.study import Study\n"
        f"study = Study().workload({base['workload']!r}, "
        f"**{base['config']!r})\n"
        f"study.adders([{operator!r}]).seed({SEED})\n"
        "assert study.run().rows\n"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(source_root)})
    return time.perf_counter() - start


def warm_pass(url: str, base: dict, expected_rows: dict,
              clients: int, requests_per_client: int) -> dict:
    """Concurrent warm queries; returns the latency distribution."""
    latencies: list = []
    failures: list = []
    lock = threading.Lock()

    def client(index: int) -> None:
        try:
            for request in range(requests_per_client):
                operator = OPERATORS[(index + request) % len(OPERATORS)]
                elapsed, result = timed_query(
                    url, "evaluate", evaluate_params(base, operator))
                if result["row"] != expected_rows[operator]:
                    raise AssertionError(
                        f"warm row for {operator} differs from its cold row")
                if not result["cached"]:
                    raise AssertionError(
                        f"warm query for {operator} missed the store")
                with lock:
                    latencies.append(elapsed)
        except Exception as error:  # noqa: BLE001 - reported, then fatal
            with lock:
                failures.append(f"client {index}: {error}")

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if failures:
        raise RuntimeError("; ".join(failures[:3]))
    return {
        "requests": len(latencies),
        "seconds": round(seconds, 4),
        "throughput_rps": round(len(latencies) / seconds, 2),
        "p50_s": round(percentile(latencies, 0.50), 6),
        "p95_s": round(percentile(latencies, 0.95), 6),
        "p99_s": round(percentile(latencies, 0.99), 6),
        "mean_s": round(sum(latencies) / len(latencies), 6),
    }


def bench(url: str, reduced: bool, clients: int,
          requests_per_client: int) -> dict:
    base = workload_params(reduced)

    cold = {}
    expected_rows = {}
    cold_start = time.perf_counter()
    for operator in OPERATORS:
        elapsed, result = timed_query(url, "evaluate",
                                      evaluate_params(base, operator))
        cold[operator] = round(elapsed, 4)
        expected_rows[operator] = result["row"]
    cold_total = time.perf_counter() - cold_start

    warm = warm_pass(url, base, expected_rows, clients, requests_per_client)
    oneshot_s = cold_oneshot_seconds(base, OPERATORS[0])
    status = query(url, "status")["result"]

    return {
        **base,
        "operators": list(OPERATORS),
        "seed": SEED,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "cold": {"per_operator_s": cold, "total_s": round(cold_total, 4)},
        "warm": warm,
        "cold_oneshot_s": round(oneshot_s, 4),
        "warm_advantage": round(oneshot_s / warm["p50_s"], 2),
        "warm_advantage_floor": WARM_ADVANTAGE_FLOOR,
        "server": {
            "version": status.get("version"),
            "workers": status.get("workers"),
            "batching": status.get("batching"),
            "store": status.get("store"),
        },
    }


def load_floors(path: Path) -> dict:
    """Recorded gates from an earlier BENCH_serve.json: {metric: floor}."""
    if not path.exists():
        return {}
    recorded = json.loads(path.read_text())
    floors = {}
    if "warm_advantage_floor" in recorded:
        floors["warm_advantage"] = recorded["warm_advantage_floor"]
    return floors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="base URL of a running server (default: boot "
                             "an in-process server with a temporary store)")
    parser.add_argument("--output", default="BENCH_serve.json",
                        help="path of the emitted JSON (default: %(default)s)")
    parser.add_argument("--reduced", dest="reduced", action="store_true",
                        default=True,
                        help="CI-scale workload and client counts "
                             "(the default)")
    parser.add_argument("--full", dest="reduced", action="store_false",
                        help="the larger workload and client counts")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent warm-pass clients (default: 4 "
                             "reduced, 8 full)")
    parser.add_argument("--requests", type=int, default=None,
                        help="warm requests per client (default: 25 "
                             "reduced, 50 full)")
    parser.add_argument("--check", action="store_true",
                        help="fail when warm_advantage falls below the "
                             "floor recorded in the baseline JSON")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON holding the floors for --check "
                             "(default: the --output path, read before "
                             "overwriting)")
    args = parser.parse_args(argv)

    clients = args.clients or (4 if args.reduced else 8)
    requests_per_client = args.requests or (25 if args.reduced else 50)
    floors = load_floors(Path(args.baseline or args.output)) \
        if args.check else {}

    if args.url is not None:
        try:
            results = bench(args.url, args.reduced, clients,
                            requests_per_client)
        except ServerUnavailable as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
    else:
        with tempfile.TemporaryDirectory(prefix="serve_bench_") as tmp:
            with EvalServer(store=str(Path(tmp) / "store")) as server:
                results = bench(server.url, args.reduced, clients,
                                requests_per_client)

    payload = {
        "script": "benchmarks/serve_bench.py",
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "reduced": args.reduced,
        **results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
    warm = results["warm"]
    print(f"cold server pass: {results['cold']['total_s']:.2f}s over "
          f"{len(OPERATORS)} operators")
    print(f"warm pass: {warm['requests']} requests from {clients} clients "
          f"in {warm['seconds']:.2f}s ({warm['throughput_rps']:.0f} rps); "
          f"p50 {warm['p50_s'] * 1000:.1f}ms p95 {warm['p95_s'] * 1000:.1f}ms "
          f"p99 {warm['p99_s'] * 1000:.1f}ms")
    print(f"cold one-shot process: {results['cold_oneshot_s']:.2f}s -> "
          f"warm advantage {results['warm_advantage']:.0f}x "
          f"(floor {WARM_ADVANTAGE_FLOOR:.0f}x)")
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
            measured = payload[metric]
            if measured < floor:
                print(f"FAIL: {metric} {measured:.2f}x regressed below the "
                      f"recorded floor {floor:.2f}x", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
