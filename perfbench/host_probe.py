"""Host-speed probers: time a fixed reference job while the benchmark runs.

    python perfbench/host_probe.py WORKDIR

On a shared machine each core of the host slows down and speeds up again
within seconds, by up to 2x, and the two cores do so independently:
reduced-suite runs of 3.8 s and 7.2 s came minutes apart, far more than
the differences a change to the program makes.  A prober runs pinned
to one core beside the workload and, with a pause of
:data:`PERIOD_S` between them, times reference jobs in CPU seconds of
its own thread, so waiting for the core the workload holds does not
count, but a slower core does.  The job uses no ``repro`` code, in the
program's proportions: a walk over a heap of small dictionaries larger
than the caches, JSON files read and parsed (the store's warm path), and
plain interpreter arithmetic.

On SIGTERM a prober prints ``[[wall_time, cpu_seconds], ...]`` as one
JSON line and exits.  :class:`HostProbe` runs one per probed core from
the driver, which scales every timed sample by :meth:`HostProbe.scale`:
``REFERENCE_S`` over the mean job time on the probed cores within
:data:`WINDOW_S` of the sample, i.e. to seconds on a host where the job
takes :data:`REFERENCE_S`.  On the reference host, scaling by a prober
on the same core cut the quartile spread (over median) of fresh-process
reduced-suite cold runs from 0.18 to 0.08; a prober on the other core
left it at 0.19.
"""
from __future__ import annotations

import bisect
import gc
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Pause after each reference job (a duty cycle of ~10% of one core).
PERIOD_S = 0.1
#: CPU seconds of one reference job on the reference host (2-core x86-64
#: container, Python 3.11, quiet).
REFERENCE_S = 0.0125
#: A sample is scaled by the jobs that ran within this many seconds of it.
WINDOW_S = 1.0
HEAP_ENTRIES = 200_000
WALK_STEPS = 10_000
FILES = 12
LOOP_STEPS = 8_000


class HostProbe:
    """One prober subprocess per core in ``cpus``, from construction until
    :meth:`stop`."""

    def __init__(self, env: dict, workdir: Path, cpus: Sequence[int]) -> None:
        self.processes = {}
        for cpu in cpus:
            probe_dir = workdir / f"cpu-{cpu}"
            probe_dir.mkdir(parents=True, exist_ok=True)
            self.processes[cpu] = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(probe_dir)], env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                preexec_fn=pin_to(cpu))
        self.samples: Dict[int, List[List[float]]] = {}
        self.stamps: Dict[int, List[float]] = {}
        self.prefix: Dict[int, List[float]] = {}

    def stop(self) -> None:
        """SIGTERM every prober, wait for each and keep its samples."""
        for process in self.processes.values():
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for cpu, process in self.processes.items():
            try:
                out, _ = process.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                out, _ = process.communicate()
            lines = out.strip().splitlines()
            samples = self.samples[cpu] = json.loads(lines[-1]) \
                if lines else []
            self.stamps[cpu] = [stamp for stamp, _ in samples]
            self.prefix[cpu] = [0.0]
            for _, seconds in samples:
                self.prefix[cpu].append(self.prefix[cpu][-1] + seconds)

    def scale(self, start: float, seconds: float) -> Optional[float]:
        """``REFERENCE_S`` over the mean job time near a sample that began
        at ``time.time()`` ``start``; ``None`` without jobs there."""
        total, count = 0.0, 0
        for cpu, stamps in self.stamps.items():
            low = bisect.bisect_left(stamps, start - WINDOW_S)
            high = bisect.bisect_right(stamps, start + seconds + WINDOW_S)
            total += self.prefix[cpu][high] - self.prefix[cpu][low]
            count += high - low
        return REFERENCE_S * count / total if count else None


def pin_to(cpu: int):
    """``preexec_fn`` that pins the new process to one core."""
    return lambda: os.sched_setaffinity(0, {cpu})


def _reference_job(heap: list, order: List[int], files: List[Path]) -> int:
    total = 0
    for index in order:
        total += heap[index]["v"][1]
    for path in files:
        total += len(json.loads(path.read_text())["rows"])
    for step in range(LOOP_STEPS):
        total += step * step % 7
    return total


def main() -> int:
    workdir = Path(sys.argv[1])
    rng = random.Random(0)
    heap = [{"k": index, "v": [index, index + 1]}
            for index in range(HEAP_ENTRIES)]
    order = [rng.randrange(HEAP_ENTRIES) for _ in range(WALK_STEPS)]
    files = []
    for index in range(FILES):
        path = workdir / f"record-{index}.json"
        path.write_text(json.dumps({"rows": [
            {"adder": f"ADD({step % 16})", "value": step * 0.5}
            for step in range(20)]}))
        files.append(path)

    gc.disable()  # a collection would time the heap, not the host
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    while not stopping:
        started = time.thread_time()
        _reference_job(heap, order, files)
        samples.append((time.time(), time.thread_time() - started))
        time.sleep(PERIOD_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
