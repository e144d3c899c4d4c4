"""``python -m repro serve`` with the benchmark's layer spans installed.

    python perfbench/serve_shim.py TRACE_OUT serve [serve options ...]

Wraps the server's layers (:func:`spans.install`), hands the remaining
arguments to the CLI entry point unchanged and, once the server has
drained after SIGTERM and the entry point returned, writes the span
snapshot to ``TRACE_OUT`` as JSON.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    recorder = spans.install()
    try:
        return cli_main(argv)
    finally:
        Path(trace_out).write_text(json.dumps(recorder.snapshot()))


if __name__ == "__main__":
    raise SystemExit(main())
