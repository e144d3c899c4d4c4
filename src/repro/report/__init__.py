"""Static results dashboard: merged bundle + bench history -> one HTML file.

``repro report`` renders a self-contained dashboard (inline CSS and SVG,
no scripts, no external fetches) from a merged run directory and the
committed ``BENCH_*.json`` history: per-app quality-versus-energy Pareto
fronts, the table experiments, and the evaluation-server benchmark
trajectory.  CI publishes it as an artifact on the merge path, so
every merge shows the frontier.

The model/render split lives in :mod:`repro.report.model` (what the
dashboard shows) and :mod:`repro.report.render` (how it is drawn).
"""
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..core.results import ResultBundle
from .model import (
    bench_model,
    dashboard_model,
    front_model,
    point_label,
    resilience_model,
)
from .render import render_dashboard

#: The bench history files the dashboard reads when none are named.
DEFAULT_BENCH_GLOB = "BENCH_*.json"


def generate_report(bundle_dir: Union[str, Path],
                    bench_paths: Optional[Sequence[Union[str, Path]]] = None,
                    output: Union[str, Path] = "report.html",
                    title: str = "repro results dashboard",
                    generated: Optional[str] = None) -> Dict[str, object]:
    """Render the dashboard; returns the ``repro report`` JSON document."""
    bundle = ResultBundle.load_dir(bundle_dir)
    if not bundle.results:
        raise ValueError(f"no experiment results found under {bundle_dir}")
    if bench_paths is None:
        bench_paths = sorted(Path.cwd().glob(DEFAULT_BENCH_GLOB))
    model = dashboard_model(bundle, bench_paths, title=title,
                            generated=generated,
                            resilience=resilience_model(bundle_dir))
    text = render_dashboard(model)
    target = Path(output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    bench = model["bench"]
    return {
        "bundle": str(bundle_dir),
        "output": str(target),
        "bytes": len(text.encode("utf-8")),
        "experiments": model["summary"]["experiments"],
        "fronts": model["summary"]["fronts"],
        "front_points": model["summary"]["front_points"],
        "bench": {
            "serve": bench["serve"]["path"] if bench["serve"] else None,
            "skipped": bench["skipped"],
        },
        "resilience": model["resilience"],
    }


__all__ = [
    "DEFAULT_BENCH_GLOB",
    "bench_model",
    "dashboard_model",
    "front_model",
    "generate_report",
    "point_label",
    "render_dashboard",
    "resilience_model",
]
