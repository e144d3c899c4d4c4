"""Dashboard data model: what the report shows, divorced from how.

The renderer (:mod:`repro.report.render`) consumes one plain-dict model
assembled here from a merged result bundle plus the committed
``BENCH_*.json`` history — the schema/render split, so the model is
testable without parsing HTML and the renderer is swappable without
touching experiment code.

Model shape::

    {
      "title": ...,
      "repro": version,
      "generated": optional caller-supplied stamp,
      "summary": {"experiments", "rows", "fronts", "front_points"},
      "experiments": [
        {"name", "description", "rows", "columns",
         "search": {"strategy", "space_size", "evaluations", ...}|None,
         "fronts": [
           {"key", "quality", "cost", "evaluated",
            "points": [{"cost", "quality", "label"}],     # the front
            "cloud":  [{"cost", "quality", "label"}]}]},  # every row
      ],
      "bench": {"serve": {...}|None, "skipped": [path, ...]},
      "resilience": {"reclaims", "worker_errors",
                     "conflicts", "quarantined"}|None,
    }
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..core.results import ExperimentResult, ResultBundle

#: Row keys tried, in order, for a point's human-readable label.
LABEL_COLUMNS = ("operator", "adder", "multiplier", "name", "mode")


def point_label(row: Dict[str, object]) -> str:
    """A short identity for one sweep row (operator mnemonic, usually).

    A heterogeneous search row's ``genome`` — its whole per-stage operator
    assignment — *is* the identity, so it wins over the homogeneous
    columns (whose ``operator`` would misleadingly name only one stage).
    """
    genome = row.get("genome")
    if isinstance(genome, str) and genome:
        return genome
    parts = []
    for column in LABEL_COLUMNS:
        value = row.get(column)
        if isinstance(value, str) and value and value not in parts:
            parts.append(value)
    if "word_length" in row and row.get("word_length") is not None:
        parts.append(f"W={row['word_length']}")
    return " / ".join(parts[:2]) if parts else "point"


def _objective(row: Dict[str, object], column: str) -> Optional[float]:
    try:
        value = float(row[column])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError):
        return None
    return None if math.isnan(value) else value


def front_model(result: ExperimentResult) -> List[Dict[str, object]]:
    """Every attached Pareto front of one experiment, chart-ready."""
    fronts = []
    for key in sorted(result.fronts):
        front = result.fronts[key]
        cloud = []
        for row in result.rows:
            quality = _objective(row, front.quality_column)
            cost = _objective(row, front.cost_column)
            if quality is None or cost is None:
                continue
            cloud.append({"cost": cost, "quality": quality,
                          "label": point_label(row)})
        points = [{"cost": record.cost, "quality": record.quality,
                   "label": point_label(record.row)}
                  for record in front.records]
        fronts.append({
            "key": key,
            "quality": front.quality_column,
            "cost": front.cost_column,
            "maximize_quality": front.maximize_quality,
            "evaluated": front.evaluated,
            "points": points,
            "cloud": cloud,
        })
    return fronts


def _read_bench(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def bench_model(paths: Sequence[Union[str, Path]]) -> Dict[str, object]:
    """Pick the serve-bench trajectory out of the committed bench documents.

    Missing, malformed or non-serve files are reported, not fatal — the
    dashboard renders from whatever history exists.
    """
    serve = None
    skipped: List[str] = []
    for path in paths:
        document = _read_bench(path)
        if document is not None and ("serve" in str(document.get("script", ""))
                                     or "warm_advantage" in document):
            serve = {"path": str(path), **document}
        else:
            skipped.append(str(path))
    return {"serve": serve, "skipped": skipped}


def resilience_model(bundle_dir: Union[str, Path]
                     ) -> Optional[Dict[str, object]]:
    """The ``resilience.json`` a fleet harvest writes, or ``None``.

    The counters of what a run survived — lease reclaims of dead
    workers, worker-reported errors, store absorb conflicts, quarantined
    records.  A plain (non-fleet) run directory has no such file and
    the dashboard simply omits the section.
    """
    try:
        document = json.loads(
            (Path(bundle_dir) / "resilience.json").read_text())
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def dashboard_model(bundle: ResultBundle,
                    bench_paths: Sequence[Union[str, Path]] = (),
                    title: str = "repro results dashboard",
                    generated: Optional[str] = None,
                    resilience: Optional[Dict[str, object]] = None
                    ) -> Dict[str, object]:
    """Assemble the whole dashboard model from a merged bundle + history."""
    from .. import __version__

    experiments = []
    total_rows = 0
    total_fronts = 0
    total_front_points = 0
    for name in sorted(bundle.results):
        result = bundle.get(name)
        fronts = front_model(result)
        total_rows += len(result.rows)
        total_fronts += len(fronts)
        total_front_points += sum(len(front["points"]) for front in fronts)
        search = result.metadata.get("search")
        experiments.append({
            "name": name,
            "description": result.description,
            "rows": len(result.rows),
            "columns": list(result.columns),
            "search": dict(search) if isinstance(search, dict) else None,
            "fronts": fronts,
        })
    return {
        "title": title,
        "repro": __version__,
        "generated": generated,
        "summary": {
            "experiments": len(experiments),
            "rows": total_rows,
            "fronts": total_fronts,
            "front_points": total_front_points,
        },
        "experiments": experiments,
        "bench": bench_model(bench_paths),
        "resilience": resilience,
    }
