"""The package imports only the standard library and its declared dependencies.

An undeclared import either fails where it is not installed or, when it is
optional, makes results depend on the host.  A fresh interpreter imports the
public entry points; every top-level module that this loads must be part of
the standard library, ``repro`` itself, or listed under ``dependencies`` in
``pyproject.toml``.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENTRY_POINTS = ("repro", "repro.cli", "repro.experiments", "repro.server")

# Snapshot ``sys.modules`` before the imports: site hooks (``.pth`` files)
# may load third-party modules at start-up that the package never asks for.
# Modules without a spec were made in memory by an extension module, such
# as the shared runtime Cython-compiled numpy registers; they are skipped.
SCRIPT = """
import importlib, json, sys
before = set(sys.modules)
for name in {entry_points!r}:
    importlib.import_module(name)
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before
           if getattr(sys.modules[name], "__spec__", None) is not None}}
print(json.dumps(sorted(loaded)))
"""


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return {re.split(r"[<>=!~ \[;]", spec, maxsplit=1)[0].replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', block)}


def test_only_stdlib_and_declared_dependencies_are_imported():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(entry_points=ENTRY_POINTS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    loaded = set(json.loads(completed.stdout))
    assert "repro" in loaded
    assert "scipy" not in loaded
    # Python 3.9 has no list of standard-library modules to check against.
    if hasattr(sys, "stdlib_module_names"):
        allowed = (set(sys.stdlib_module_names) | {"repro"}
                   | declared_dependencies())
        assert sorted(loaded - allowed) == []
