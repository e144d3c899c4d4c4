"""The ``serve_mixed`` workload: seeded evaluate traffic against a server.

One iteration starts ``python -m repro serve`` on its defaults (backend
``lut``, 4 compute slots, 20 ms batch window) with a fresh store, after
purging the shared-memory table arena, and drives it with a closed loop of
:data:`CLIENTS` threads: each sends its next request only after the
previous reply, the way ``repro query`` and scripts call the server.  The
requests cover 48 distinct points, ``fft(size=256, frames=2)`` x 12 sized
and approximate 16-bit adders x 4 stimulus seeds drawn from the benchmark
seed, so after each point's first touch (cold: computed, stored, possibly
coalesced by the batcher) every repeat is a store hit (warm).

The loop opens with one request per adder from a single client, which
builds each sized adder's LUT table once.  Two threads building the same
table at once race in ``repro.core.table_arena.get_or_build``: the losing
``SharedMemory`` handle is dropped, its mapping closes under the NumPy
views already handed out (they do not pin it), and the server later reads
unmapped memory and dies of SIGSEGV.  The other 36 cold points still
arrive concurrently.

Checks: every reply is an ``ok`` envelope, every row equals its point's
cold row, and :data:`SAMPLE_CHECKS` points equal an in-process ``Study``
run on the ``direct`` backend (made after the server stopped, untimed).
The server and the clients use every core, so the host prober runs on
each (:func:`probed_cpus`).  Timed samples are ``[time.time() at start,
seconds]`` pairs.
"""
from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import BENCH_DIR, peak_rss_mb, wire

ADDERS = ("ADD(16)", "ADDt(16,14)", "ADDt(16,12)", "ADDt(16,10)",
          "ADDr(16,12)", "ADDr(16,8)", "ACA(16,8)", "ACA(16,12)",
          "ETAII(16,4)", "ETAII(16,8)", "ETAIV(16,4)", "RCAApx(16,6)")
CONFIG = {"size": 256, "frames": 2}
STIMULUS_SEEDS = 4
#: Closed-loop clients (the container's CPU count).
CLIENTS = 2
#: Requests per iteration: ~1950 warm replies, so p99 has ~19 samples
#: beyond it.
REQUESTS = 2000
SAMPLE_CHECKS = 2
#: Longest wait for the server to bind, and then to answer ``status``.
STARTUP_TIMEOUT_S = 30.0
#: Per-request timeout, and the time after which no request is sent (the
#: rest count as failed), so a hung server cannot stall the run.
REQUEST_TIMEOUT_S = 15.0
DRIVE_LIMIT_S = 60.0

Point = Tuple[str, int]


def probed_cpus() -> List[int]:
    """Every core the server and the clients may run on."""
    return sorted(os.sched_getaffinity(0))


def planned_attempts() -> int:
    """Checks one iteration makes: every request, the sampled in-process
    runs and the cold-arena check; a broken iteration counts all of them
    as failed."""
    return REQUESTS + SAMPLE_CHECKS + 1


def request_plan(seed: int
                 ) -> Tuple[List[Point], List[int], List[List[int]]]:
    """The distinct points, the single-client prelude (one point per adder)
    and each client's request sequence, as point indices."""
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 10_000), STIMULUS_SEEDS)
    points = [(adder, stimulus) for stimulus in seeds for adder in ADDERS]
    prelude = list(range(len(ADDERS)))
    per_client = (REQUESTS - len(prelude)) // CLIENTS
    streams = [[rng.randrange(len(points)) for _ in range(per_client)]
               for _ in range(CLIENTS)]
    return points, prelude, streams


def evaluate_params(point: Point) -> Dict[str, object]:
    adder, stimulus = point
    return {"workload": "fft", "config": dict(CONFIG), "adder": adder,
            "seed": stimulus}


def _wait_for_url(server: subprocess.Popen, log: Path) -> str:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        match = re.search(r"serving on (http://\S+)", log.read_text())
        if match:
            return match.group(1)
        if server.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(f"server did not start: {log.read_text()[-2000:]}")


def _wait_for_status(url: str) -> None:
    from repro.server import ServerUnavailable, query

    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            if query(url, "status", timeout=5.0,
                     retries=0).get("status") == "ok":
                return
        except ServerUnavailable:
            pass
        time.sleep(0.002)
    raise RuntimeError(f"no status answer from {url}")


def _drive(url: str, points: List[Point], prelude: List[int],
           streams: List[List[int]]) -> Tuple[List[float], List[tuple]]:
    """Run the prelude, then the closed loop; returns the wall-clock sample
    and the replies ``(point, sample, envelope)``."""
    from repro.server import ServerUnavailable, query

    replies: List[List[tuple]] = [[] for _ in range(len(streams) + 1)]
    deadline = time.monotonic() + DRIVE_LIMIT_S

    def client(index: int, stream: List[int]) -> None:
        for point in stream:
            started_at = time.time()
            started = time.perf_counter()
            if time.monotonic() > deadline:
                envelope: Optional[dict] = {
                    "status": "error", "message": "not sent: the server "
                    f"took over {DRIVE_LIMIT_S:g}s for the stream"}
            else:
                try:
                    envelope = query(url, "evaluate",
                                     evaluate_params(points[point]),
                                     timeout=REQUEST_TIMEOUT_S, retries=0)
                except ServerUnavailable as error:
                    envelope = {"status": "error", "message": str(error)}
            replies[index].append(
                (point, [started_at, time.perf_counter() - started],
                 envelope))

    threads = [threading.Thread(target=client, args=(index, stream))
               for index, stream in enumerate(streams, start=1)]
    started_at = time.time()
    started = time.perf_counter()
    client(0, prelude)
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = [started_at, time.perf_counter() - started]
    return wall, [reply for replies_of in replies for reply in replies_of]


def _sample_rows(points: List[Point], chosen: List[int]
                 ) -> Dict[int, object]:
    from repro.core.datapath import DatapathEnergyModel
    from repro.core.study import Study

    rows = {}
    for index in chosen:
        adder, stimulus = points[index]
        study = (Study().workload("fft", **CONFIG).seed(stimulus)
                 .backend("direct").adders([adder])
                 .energy(DatapathEnergyModel()))
        rows[index] = wire(study.run().rows[0])
    return rows


class Server:
    """A ``repro serve`` subprocess on its defaults with a fresh store;
    its ``setup`` sample runs from launch to the first answered
    ``status``."""

    def __init__(self, env: Dict[str, str], workdir: Path,
                 trace_out: Optional[Path] = None) -> None:
        serve_args = ["serve", "--port", "0", "--store",
                      str(workdir / "store")]
        command = [sys.executable, "-m", "repro", *serve_args]
        if trace_out is not None:
            command = [sys.executable, str(BENCH_DIR / "serve_shim.py"),
                       str(trace_out), *serve_args]
        self.log = workdir / "server.log"
        self.out = workdir / "server.json"
        with open(self.log, "w") as err, open(self.out, "w") as stdout:
            launched_at = time.time()
            launched = time.perf_counter()
            self.process = subprocess.Popen(command, env=env, cwd=workdir,
                                            stdout=stdout, stderr=err)
        try:
            self.url = _wait_for_url(self.process, self.log)
            _wait_for_status(self.url)
        except BaseException:
            self.stop()
            raise
        self.setup = [launched_at, time.perf_counter() - launched]

    def stop(self) -> Dict[str, object]:
        """SIGTERM (the server drains), wait; returns its final status."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                self.process.wait(timeout=REQUEST_TIMEOUT_S)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        text = self.out.read_text()
        return json.loads(text) if text.strip() else {}


def setup_probe(env: Dict[str, str], workdir: Path) -> List[float]:
    """One server start on a fresh store, stopped right after ``status``."""
    server = Server(env, workdir)
    server.stop()
    return server.setup


def run_iteration(env: Dict[str, str], workdir: Path, seed: int,
                  iteration: int, traced: bool) -> dict:
    from repro.core.backends import clear_table_cache

    points, prelude, streams = request_plan(seed)
    trace_out = workdir / "trace.json" if traced else None
    clear_table_cache(purge_arena=True)
    try:
        server = Server(env, workdir, trace_out)
        try:
            wall, replies = _drive(server.url, points, prelude, streams)
            if server.process.poll() is not None:
                raise RuntimeError(f"the server exited with code "
                                   f"{server.process.returncode} during the "
                                   f"drive: {server.log.read_text()[-2000:]}")
            rss = peak_rss_mb(server.process.pid)
        finally:
            final = server.stop()
    finally:
        clear_table_cache(purge_arena=True)

    cold_rows: Dict[int, object] = {}
    for point, _, envelope in replies:
        if envelope.get("status") == "ok" \
                and not envelope["result"]["cached"]:
            cold_rows.setdefault(point, envelope["result"]["row"])
    failures: List[str] = []
    cold, warm = [], []
    for point, sample, envelope in replies:
        if envelope.get("status") != "ok":
            failures.append(f"{points[point]}: {envelope.get('message')}")
            continue
        result = envelope["result"]
        (warm if result["cached"] else cold).append(sample)
        if result["row"] != cold_rows.get(point):
            failures.append(f"{points[point]}: row differs from its cold row")

    rng = random.Random(seed * 1000 + iteration)
    chosen = rng.sample(sorted(cold_rows), min(SAMPLE_CHECKS, len(cold_rows)))
    for index, row in _sample_rows(points, chosen).items():
        if row != cold_rows[index]:
            failures.append(f"{points[index]}: served row differs from an "
                            f"in-process Study run")

    table_cache = final["table_cache"]
    return {
        "setup": server.setup,
        "wall": wall,
        "cold": cold,
        "warm": warm,
        # The clients overlap, so busy time is the drive's wall clock.
        "busy": [wall],
        "requests": len(replies),
        "attempted": len(replies) + len(chosen),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": rss,
        "table_cache": {"hits": table_cache["hits"],
                        "misses": table_cache["misses"],
                        "arena": {key: table_cache["arena"][key]
                                  for key in ("builds", "attaches")}},
        "batching": final["batching"],
        "shed": final["shed"],
        "trace": json.loads(trace_out.read_text()) if traced else None,
    }
