"""Helpers shared by the benchmark's driver and its child processes.

Everything the benchmark writes lives under ``.bench_work/`` in the
checkout: per-run stores, the temporary directory handed to every child
process (which also holds the shared-memory table arena's registry, so
:func:`repro.core.backends.clear_table_cache` purges exactly the segments
the benchmark's own processes built or attached) and the per-run records.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TMP = WORK / "tmp"

#: Stimulus seed of CI's search gate and default benchmark seed.
DEFAULT_SEED = 7


def require_source() -> None:
    """Exit non-zero, printing no result, when the checkout has no package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run the benchmark from "
              f"a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)


def pin_environment() -> Dict[str, str]:
    """The environment of every benchmark process, pinned to the defaults.

    ``REPRO_*`` knobs (worker overrides, arena opt-out, cache limits, fault
    plans, fsync) are dropped so each entry point runs on its own defaults;
    the temporary directory moves into the checkout.  Also applied to this
    process, before anything reads :func:`tempfile.gettempdir`.
    """
    TMP.mkdir(parents=True, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    env["PYTHONHASHSEED"] = "0"
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = str(TMP)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR on next use
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return env


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def plain(value: object) -> object:
    """JSON fallback for NumPy scalars and arrays inside result rows."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot encode {type(value).__name__}")


def wire(value: object) -> object:
    """``value`` after the JSON round trip a server response makes."""
    return json.loads(json.dumps(value, default=plain))


def result_digest(result) -> str:
    """SHA-256 of an experiment's rows and Pareto fronts (not metadata,
    which records store hits and so differs between cold and warm runs)."""
    document = {"rows": result.rows,
                "fronts": {key: front.to_dict()
                           for key, front in sorted(result.fronts.items())}}
    text = json.dumps(document, sort_keys=True, default=plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for an empty sample (e.g. a run whose iterations all
    broke, which is reported as failed anyway)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def last_json_line(text: str) -> Optional[Dict[str, object]]:
    """The last line of ``text`` that parses as a JSON object."""
    for line in reversed(text.strip().splitlines()):
        try:
            document = json.loads(line)
        except ValueError:
            continue
        if isinstance(document, dict):
            return document
    return None


def load_expected() -> Mapping[str, str]:
    """Recorded per-experiment digests of the reduced suite (empty before
    the first ``--record``)."""
    path = BENCH_DIR / "expected.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["digests"]


def loadavg() -> List[float]:
    return [round(value, 2) for value in os.getloadavg()]
