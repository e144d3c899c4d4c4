"""The static dashboard: model assembly and self-contained HTML rendering."""
import json
from pathlib import Path

import pytest

from repro.core.results import ResultBundle
from repro.experiments.runner import run_all
from repro.report import generate_report
from repro.report.model import bench_model, dashboard_model, point_label
from repro.report.render import render_dashboard

#: A cheap experiment pair: one plain table, one with a Pareto front.
EXPERIMENTS = ["table3_hevc_adders", "fft_joint_frontier"]

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """One cheap merged-run directory shared by every test here."""
    out = tmp_path_factory.mktemp("bundle")
    run_all(output_dir=out, reduced=True, experiments=EXPERIMENTS)
    return out


class TestModel(object):
    def test_point_label_prefers_operator_columns(self):
        assert point_label({"adder": "ADDt(16,10)", "x": 1}) == "ADDt(16,10)"
        assert point_label({"operator": "MULt", "word_length": 12}) \
            == "MULt / W=12"
        assert point_label({"value": 3}) == "point"

    def test_dashboard_model_summarises_the_bundle(self, bundle_dir):
        bundle = ResultBundle.load_dir(bundle_dir)
        model = dashboard_model(bundle, title="t", generated="now")
        assert model["title"] == "t"
        assert model["generated"] == "now"
        assert model["summary"]["experiments"] == 2
        assert model["summary"]["rows"] > 0
        assert model["summary"]["fronts"] >= 1
        names = [entry["name"] for entry in model["experiments"]]
        assert names == sorted(EXPERIMENTS)
        front = next(entry for entry in model["experiments"]
                     if entry["fronts"])["fronts"][0]
        assert front["points"], "front has no points"
        # The front is a subset of the cloud, and every point is labelled.
        assert len(front["points"]) <= len(front["cloud"])
        assert all(p["label"] for p in front["points"])

    def test_bench_model_classifies_and_reports_skips(self, tmp_path):
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps({"script": "benchmarks/other.py",
                                     "studies": {}}))
        serve = tmp_path / "BENCH_serve.json"
        serve.write_text(json.dumps({"script": "benchmarks/serve_bench.py",
                                     "warm_advantage": 10.0}))
        garbage = tmp_path / "BENCH_broken.json"
        garbage.write_text("{not json")
        model = bench_model([other, serve, garbage, tmp_path / "missing.json"])
        assert model["serve"]["warm_advantage"] == 10.0
        assert model["skipped"] == [str(other), str(garbage),
                                    str(tmp_path / "missing.json")]


class TestRender(object):
    def test_dashboard_is_self_contained_html(self, bundle_dir, tmp_path):
        document = generate_report(bundle_dir,
                                   bench_paths=[REPO / "BENCH_serve.json"],
                                   output=tmp_path / "report.html",
                                   generated="2026-01-01 00:00 UTC")
        text = (tmp_path / "report.html").read_text()
        assert document["bytes"] == len(text.encode("utf-8"))
        assert document["experiments"] == 2
        assert document["fronts"] >= 1

        assert text.startswith("<!DOCTYPE html>")
        # Self-contained: no scripts, no external fetches of any kind.
        assert "<script" not in text
        assert "http://" not in text and "https://" not in text
        assert 'src="' not in text and "@import" not in text
        # The chart layer: inline SVG with native tooltips and a table
        # view under it; both experiments are present by name.
        assert "<svg" in text
        assert "<title>" in text
        assert "<table" in text
        for name in EXPERIMENTS:
            assert name in text
        # Dark mode is selected, not flipped.
        assert "prefers-color-scheme: dark" in text

    def test_bench_sections_render_when_history_exists(self, bundle_dir,
                                                       tmp_path):
        generate_report(bundle_dir, bench_paths=[REPO / "BENCH_serve.json"],
                        output=tmp_path / "report.html")
        text = (tmp_path / "report.html").read_text()
        assert "warm ÷ cold-process advantage" in text  # the serve tiles
        assert "no committed serve history" not in text

    def test_render_without_bench_history(self, bundle_dir, tmp_path):
        document = generate_report(bundle_dir, bench_paths=[],
                                   output=tmp_path / "report.html")
        assert document["bench"] == {"serve": None, "skipped": []}
        assert (tmp_path / "report.html").is_file()

    def test_empty_bundle_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no experiment results"):
            generate_report(tmp_path / "empty",
                            output=tmp_path / "report.html")

    def test_model_rendering_is_deterministic(self, bundle_dir):
        bundle = ResultBundle.load_dir(bundle_dir)
        model = dashboard_model(bundle, generated="pinned")
        assert render_dashboard(model) == render_dashboard(model)


class TestResilienceSection(object):
    def test_resilience_model_reads_the_harvest_document(self, bundle_dir,
                                                         tmp_path):
        from repro.report.model import resilience_model

        # A plain run directory has no resilience.json: the model is
        # None and the dashboard omits the section entirely.
        assert resilience_model(bundle_dir) is None
        bundle = ResultBundle.load_dir(bundle_dir)
        plain = render_dashboard(dashboard_model(bundle))
        assert "Resilience" not in plain

        counters = {"reclaims": 2, "worker_errors": 1, "conflicts": 0,
                    "quarantined": 3}
        import shutil

        harvest_dir = tmp_path / "harvested"
        shutil.copytree(bundle_dir, harvest_dir)
        (harvest_dir / "resilience.json").write_text(json.dumps(counters))
        assert resilience_model(harvest_dir) == counters

        model = dashboard_model(ResultBundle.load_dir(harvest_dir),
                                resilience=resilience_model(harvest_dir))
        text = render_dashboard(model)
        assert "Resilience" in text
        assert "lease reclaims" in text
        assert "quarantined records" in text

    def test_generate_report_surfaces_the_counters(self, bundle_dir,
                                                   tmp_path):
        import shutil

        harvest_dir = tmp_path / "harvested"
        shutil.copytree(bundle_dir, harvest_dir)
        counters = {"reclaims": 1, "worker_errors": 0, "conflicts": 0,
                    "quarantined": 0}
        (harvest_dir / "resilience.json").write_text(json.dumps(counters))
        document = generate_report(harvest_dir,
                                   output=tmp_path / "report.html",
                                   generated="2026-01-01 00:00 UTC")
        assert document["resilience"] == counters
        assert "Resilience" in (tmp_path / "report.html").read_text()

    def test_malformed_resilience_json_is_ignored(self, bundle_dir,
                                                  tmp_path):
        from repro.report.model import resilience_model

        import shutil

        harvest_dir = tmp_path / "harvested"
        shutil.copytree(bundle_dir, harvest_dir)
        (harvest_dir / "resilience.json").write_text("[1, 2]")
        assert resilience_model(harvest_dir) is None
        (harvest_dir / "resilience.json").write_text("{nope")
        assert resilience_model(harvest_dir) is None
