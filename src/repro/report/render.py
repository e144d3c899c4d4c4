"""Static HTML renderer for the results dashboard — stdlib only.

One self-contained document: inline CSS (light and dark from the same
validated palette), inline SVG charts, no script, no external fetches —
it opens from a CI artifact zip or a mailbox exactly as it opened on the
build machine.

Chart conventions (deliberate, not cosmetic):

* one axis pair per chart — quality up, cost right;
* the Pareto front is the single emphasised series (palette slot 1,
  blue, stepped line + markers); every evaluated point renders behind it
  as a recessive gray cloud, so the frontier reads against what it beat;
* every mark carries a native ``<title>`` tooltip, and every chart is
  followed by the front as a plain table — identity is never
  color-alone;
* text wears text tokens, never the series color.
"""
from __future__ import annotations

import html
import math
from typing import Dict, List, Optional, Sequence, Tuple

# Validated palette (reference instance): categorical slot 1 per mode,
# plus surfaces and text tokens.  The dark column is the same hue
# re-stepped for the dark surface, not a different palette.
_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e3e2de;
  --series-1: #2a78d6;
  --cloud: #b5b4af;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #262625;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #383835;
    --series-1: #3987e5;
    --cloud: #6a6965;
  }
}
body {
  margin: 0 auto; padding: 24px; max-width: 1080px;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 17px; margin: 32px 0 8px; }
h3 { font-size: 14px; margin: 16px 0 4px; font-weight: 600; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: 12px 18px; min-width: 120px;
}
.tile .value { font-size: 24px; font-weight: 650; display: block; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; margin: 8px 0 16px; font-size: 13px; }
th, td { text-align: right; padding: 4px 10px; }
th { color: var(--text-secondary); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
tbody tr { border-top: 1px solid var(--grid); }
.legend { color: var(--text-secondary); font-size: 12px; margin: 4px 0; }
.swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin: 0 4px 0 12px; vertical-align: baseline;
}
svg text { fill: var(--text-secondary); font-size: 11px; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
svg .gridline { stroke: var(--grid); stroke-width: 0.5; }
svg .front-line { stroke: var(--series-1); stroke-width: 2; fill: none; }
svg .front-dot { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
svg .cloud-dot { fill: var(--cloud); }
svg .pointlabel { fill: var(--text-primary); font-size: 11px; }
footer { color: var(--text-secondary); font-size: 12px; margin-top: 32px; }
"""


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return html.escape(str(value))


def _nice_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] (inclusive-ish)."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    raw = (hi - lo) / max(1, count - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = next(m * magnitude for m in (1.0, 2.0, 2.5, 5.0, 10.0)
                if m * magnitude >= raw)
    start = math.floor(lo / step) * step
    ticks = []
    tick = start
    while tick <= hi + step * 0.501:
        ticks.append(round(tick, 12))
        tick += step
    return ticks


def _scatter_svg(front: Dict[str, object], width: int = 560,
                 height: int = 320) -> str:
    """One quality-versus-cost chart: gray cloud + blue stepped frontier."""
    cloud: List[Dict[str, object]] = list(front.get("cloud", []))
    points: List[Dict[str, object]] = list(front.get("points", []))
    everything = cloud + points
    if not everything:
        return "<p class='legend'>no plottable points</p>"
    xs = [float(p["cost"]) for p in everything]
    ys = [float(p["quality"]) for p in everything]
    xticks = _nice_ticks(min(xs), max(xs))
    yticks = _nice_ticks(min(ys), max(ys))
    xlo, xhi = min(xticks + xs), max(xticks + xs)
    ylo, yhi = min(yticks + ys), max(yticks + ys)
    margin_l, margin_r, margin_t, margin_b = 64, 16, 12, 40
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def sx(v: float) -> float:
        return margin_l + (v - xlo) / (xhi - xlo or 1.0) * plot_w

    def sy(v: float) -> float:
        return margin_t + plot_h - (v - ylo) / (yhi - ylo or 1.0) * plot_h

    parts = [f"<svg viewBox='0 0 {width} {height}' role='img' "
             f"aria-label='{html.escape(str(front['key']))}'>"]
    for tick in xticks:
        x = sx(tick)
        parts.append(f"<line class='gridline' x1='{x:.1f}' y1='{margin_t}' "
                     f"x2='{x:.1f}' y2='{margin_t + plot_h}'/>")
        parts.append(f"<text x='{x:.1f}' y='{margin_t + plot_h + 16}' "
                     f"text-anchor='middle'>{_fmt(tick)}</text>")
    for tick in yticks:
        y = sy(tick)
        parts.append(f"<line class='gridline' x1='{margin_l}' y1='{y:.1f}' "
                     f"x2='{margin_l + plot_w}' y2='{y:.1f}'/>")
        parts.append(f"<text x='{margin_l - 6}' y='{y:.1f}' dy='0.32em' "
                     f"text-anchor='end'>{_fmt(tick)}</text>")
    parts.append(f"<line class='axis' x1='{margin_l}' y1='{margin_t + plot_h}'"
                 f" x2='{margin_l + plot_w}' y2='{margin_t + plot_h}'/>")
    parts.append(f"<line class='axis' x1='{margin_l}' y1='{margin_t}' "
                 f"x2='{margin_l}' y2='{margin_t + plot_h}'/>")
    parts.append(
        f"<text x='{margin_l + plot_w / 2:.1f}' y='{height - 6}' "
        f"text-anchor='middle'>{html.escape(str(front['cost']))}</text>")
    parts.append(
        f"<text x='14' y='{margin_t + plot_h / 2:.1f}' text-anchor='middle' "
        f"transform='rotate(-90 14 {margin_t + plot_h / 2:.1f})'>"
        f"{html.escape(str(front['quality']))}</text>")

    for point in cloud:
        parts.append(
            f"<circle class='cloud-dot' cx='{sx(float(point['cost'])):.1f}' "
            f"cy='{sy(float(point['quality'])):.1f}' r='3'>"
            f"<title>{html.escape(str(point['label']))}: "
            f"{_fmt(point['quality'])} at {_fmt(point['cost'])}</title>"
            f"</circle>")
    ordered = sorted(points, key=lambda p: (float(p["cost"]),
                                            float(p["quality"])))
    if len(ordered) > 1:
        steps = []
        previous: Optional[Tuple[float, float]] = None
        for point in ordered:
            x, y = sx(float(point["cost"])), sy(float(point["quality"]))
            if previous is None:
                steps.append(f"M {x:.1f} {y:.1f}")
            else:
                steps.append(f"L {x:.1f} {previous[1]:.1f} L {x:.1f} {y:.1f}")
            previous = (x, y)
        parts.append(f"<path class='front-line' d='{' '.join(steps)}'/>")
    label_budget = {0, len(ordered) - 1} if len(ordered) > 4 \
        else set(range(len(ordered)))
    for index, point in enumerate(ordered):
        x, y = sx(float(point["cost"])), sy(float(point["quality"]))
        parts.append(
            f"<circle class='front-dot' cx='{x:.1f}' cy='{y:.1f}' r='4'>"
            f"<title>{html.escape(str(point['label']))}: "
            f"{_fmt(point['quality'])} at {_fmt(point['cost'])}</title>"
            f"</circle>")
        if index in label_budget:
            anchor = "start" if index == 0 else "end"
            dx = 7 if anchor == "start" else -7
            parts.append(
                f"<text class='pointlabel' x='{x + dx:.1f}' y='{y - 7:.1f}' "
                f"text-anchor='{anchor}'>"
                f"{html.escape(str(point['label']))}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _front_table(front: Dict[str, object]) -> str:
    rows = [f"<tr><td>{html.escape(str(p['label']))}</td>"
            f"<td>{_fmt(p['quality'])}</td><td>{_fmt(p['cost'])}</td></tr>"
            for p in front["points"]]
    return (f"<table><thead><tr><th>front point</th>"
            f"<th>{html.escape(str(front['quality']))}</th>"
            f"<th>{html.escape(str(front['cost']))}</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>")


def _tiles(entries: Sequence[Tuple[str, object]]) -> str:
    tiles = [f"<div class='tile'><span class='value'>{_fmt(value)}</span>"
             f"<span class='label'>{html.escape(label)}</span></div>"
             for label, value in entries]
    return f"<div class='tiles'>{''.join(tiles)}</div>"


def _perf_section(perf: Optional[Dict[str, object]]) -> str:
    search = perf.get("search") if perf else None
    if not isinstance(search, dict):
        return "<p class='legend'>no committed perf history</p>"
    version = _fmt(perf.get("repro_version", "?"))
    return (f"<p class='legend'>from {_fmt(perf.get('path', '?'))} "
            f"(repro {version})</p>" + _tiles([
                ("search ÷ exhaustive evaluation advantage",
                 search.get("eval_advantage")),
                ("search recall", search.get("recall")),
                ("search (s)", search.get("search_s")),
                ("exhaustive sweep (s)", search.get("exhaustive_s")),
            ]))


def _serve_section(serve: Optional[Dict[str, object]]) -> str:
    if not serve:
        return "<p class='legend'>no committed serve history</p>"
    warm = serve.get("warm") if isinstance(serve.get("warm"), dict) else {}
    tiles = _tiles([
        ("warm ÷ cold-process advantage", serve.get("warm_advantage")),
        ("warm p50 (s)", warm.get("p50_s")),
        ("warm p95 (s)", warm.get("p95_s")),
        ("warm p99 (s)", warm.get("p99_s")),
        ("warm throughput (req/s)", warm.get("throughput_rps")),
    ])
    version = _fmt(serve.get("repro_version", "?"))
    return (f"<p class='legend'>from {_fmt(serve.get('path', '?'))} "
            f"(repro {version}, {_fmt(serve.get('clients', '?'))} "
            f"clients)</p>{tiles}")


def render_dashboard(model: Dict[str, object]) -> str:
    """The whole dashboard document as one HTML string."""
    summary = model["summary"]
    parts = [
        "<!DOCTYPE html>",
        "<html lang='en'><head><meta charset='utf-8'/>",
        f"<title>{html.escape(str(model['title']))}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(str(model['title']))}</h1>",
        f"<p class='subtitle'>repro {_fmt(model['repro'])}"
        + (f" · generated {_fmt(model['generated'])}"
           if model.get("generated") else "") + "</p>",
        _tiles([("experiments", summary["experiments"]),
                ("sweep rows", summary["rows"]),
                ("Pareto fronts", summary["fronts"]),
                ("frontier points", summary["front_points"])]),
    ]
    charted = [e for e in model["experiments"] if e["fronts"]]
    tabular = [e for e in model["experiments"] if not e["fronts"]]
    if charted:
        parts.append("<h2>Quality-versus-energy Pareto fronts</h2>")
        parts.append("<p class='legend'>"
                     "<span class='swatch' style='background:var(--series-1)'>"
                     "</span>Pareto front"
                     "<span class='swatch' style='background:var(--cloud)'>"
                     "</span>every evaluated point</p>")
    for experiment in charted:
        parts.append(f"<h3>{html.escape(str(experiment['name']))}</h3>")
        parts.append(f"<p class='legend'>"
                     f"{html.escape(str(experiment['description']))} — "
                     f"{experiment['rows']} rows</p>")
        search = experiment.get("search")
        if isinstance(search, dict):
            parts.append(
                "<p class='legend'>front discovered by adaptive search — "
                "the cloud is every candidate the driver evaluated, not "
                "an enumeration of the space</p>")
            parts.append(_tiles([
                ("search strategy", search.get("strategy", "?")),
                ("candidates evaluated", search.get("evaluations")),
                ("design space size", search.get("space_size")),
                ("full-density cost units", search.get("cost_units")),
                ("frontier points found", search.get("front_points")),
                ("served warm from store", search.get("store_hits")),
            ]))
        for front in experiment["fronts"]:
            parts.append(_scatter_svg(front))
            parts.append(_front_table(front))
    if tabular:
        parts.append("<h2>Table experiments</h2>")
        parts.append("<table><thead><tr><th>experiment</th><th>rows</th>"
                     "<th>description</th></tr></thead><tbody>")
        for experiment in tabular:
            parts.append(
                f"<tr><td>{html.escape(str(experiment['name']))}</td>"
                f"<td>{experiment['rows']}</td>"
                f"<td style='text-align:left'>"
                f"{html.escape(str(experiment['description']))}</td></tr>")
        parts.append("</tbody></table>")
    resilience = model.get("resilience")
    if isinstance(resilience, dict):
        parts.append("<h2>Resilience</h2>")
        parts.append("<p class='legend'>what this run survived — from the "
                     "fleet harvest's <code>resilience.json</code></p>")
        parts.append(_tiles([
            ("lease reclaims", resilience.get("reclaims", 0)),
            ("worker errors", resilience.get("worker_errors", 0)),
            ("absorb conflicts", resilience.get("conflicts", 0)),
            ("quarantined records", resilience.get("quarantined", 0))]))
    parts.append("<h2>Performance trajectory</h2>")
    parts.append(_perf_section(model["bench"].get("perf")))
    parts.append("<h2>Evaluation-server trajectory</h2>")
    parts.append(_serve_section(model["bench"].get("serve")))
    skipped = model["bench"].get("skipped") or []
    if skipped:
        parts.append(f"<p class='legend'>unreadable bench inputs skipped: "
                     f"{_fmt(', '.join(skipped))}</p>")
    parts.append("<footer>Self-contained static dashboard — "
                 "generated by <code>repro report</code>; "
                 "no scripts, no external requests.</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)
