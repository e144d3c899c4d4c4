"""The ``python -m repro`` CLI: subcommands, JSON contracts, README sync.

The CLI is the interface CI automation scripts consume, so the tests pin
its observable contract: exit codes, the JSON document on stdout, the
artifact layout under ``--out``, the golden bit-identity gate — and that
the README's "Command-line interface" section stays in sync with the real
parsers (every documented flag exists; every flag exists in the docs).
"""
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_names

README = Path(__file__).resolve().parent.parent / "README.md"

#: A cheap experiment pair: one plain table, one with a Pareto front.
EXPERIMENTS = ["table3_hevc_adders", "fft_joint_frontier"]


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (status, parsed stdout, stderr)."""
    status = main(list(argv))
    captured = capsys.readouterr()
    document = json.loads(captured.out) if captured.out.strip() else None
    return status, document, captured.err


# --------------------------------------------------------------------------- #
# list
# --------------------------------------------------------------------------- #
def test_list_reports_the_registry(capsys):
    status, document, _ = run_cli(capsys, "list")
    assert status == 0
    names = [entry["name"] for entry in document["experiments"]]
    assert "fft_joint_frontier" in names
    assert "ablation_rounding_mode" in names
    assert all(entry["title"] for entry in document["experiments"])

    status, document, _ = run_cli(capsys, "list", "--no-ablations")
    assert status == 0
    assert all(not entry["ablation"] for entry in document["experiments"])

    # `run` without names runs the whole registry, nothing more or less.
    status, document, _ = run_cli(capsys, "run", "--reduced")
    assert status == 0
    assert sorted(document["experiments"]) == sorted(experiment_names())


@pytest.mark.parametrize("ablations", [True, False])
def test_list_equals_the_server_experiments_action(capsys, ablations):
    from repro.server import ServerState, dispatch

    status, document, _ = run_cli(
        capsys, *(["list"] if ablations else ["list", "--no-ablations"]))
    envelope = dispatch(ServerState(), "experiments", {"ablations": ablations})
    assert status == 0 and envelope["status"] == "ok"
    listed = document["experiments"]
    assert listed == envelope["result"]["experiments"]
    assert any(entry["ablation"] for entry in listed) is ablations


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 2


def test_unknown_experiment_fails_cleanly(capsys):
    status, _, err = run_cli(capsys, "run", "no_such_experiment")
    assert status == 2
    assert "unknown experiments" in err


# --------------------------------------------------------------------------- #
# run / merge / golden gate
# --------------------------------------------------------------------------- #
def test_run_writes_artifacts_and_manifest(capsys, tmp_path):
    out = tmp_path / "out"
    status, document, _ = run_cli(
        capsys, "run", *EXPERIMENTS, "--out", str(out),
        "--store", str(tmp_path / "store"))
    assert status == 0
    assert document["command"] == "run"
    assert set(document["experiments"]) == set(EXPERIMENTS)
    for name in EXPERIMENTS:
        assert (out / f"{name}.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["shard"] is None
    assert manifest["experiments"][EXPERIMENTS[0]]["rows"] > 0

    # Re-running against the same store is a pure resume: zero recomputed
    # points, identical artifacts.
    before = {name: (out / f"{name}.json").read_text()
              for name in EXPERIMENTS}
    status, _, _ = run_cli(
        capsys, "run", *EXPERIMENTS, "--out", str(out),
        "--store", str(tmp_path / "store"))
    assert status == 0
    for name in EXPERIMENTS:
        document = json.loads((out / f"{name}.json").read_text())
        assert document["metadata"]["store_hits"] == len(document["rows"])
        fresh = json.loads(before[name])
        assert document["rows"] == fresh["rows"]


def test_shard_merge_golden_gate_end_to_end(capsys, tmp_path):
    golden = tmp_path / "golden"
    status, _, _ = run_cli(capsys, "run", *EXPERIMENTS, "--out", str(golden))
    assert status == 0

    shard_dirs = []
    for index in range(2):
        out = tmp_path / f"shard{index}"
        shard_dirs.append(str(out))
        status, document, _ = run_cli(
            capsys, "run", *EXPERIMENTS, "--shard", f"{index}/2",
            "--out", str(out), "--store", str(out / ".repro_store"))
        assert status == 0
        assert document["shard"] == [index, 2]

    merged = tmp_path / "merged"
    status, document, _ = run_cli(
        capsys, "merge", *shard_dirs, "--out", str(merged),
        "--store", str(merged / ".repro_store"), "--golden", str(golden))
    assert status == 0
    assert document["identical_to_golden"] is True
    assert (merged / "manifest.json").is_file()
    # The folded store resumes a later unsharded run completely.
    status, document, _ = run_cli(
        capsys, "run", *EXPERIMENTS, "--store", str(merged / ".repro_store"))
    assert status == 0

    # Tampering with the golden rows must trip the gate with exit 1.
    target = golden / f"{EXPERIMENTS[0]}.json"
    tampered = json.loads(target.read_text())
    tampered["rows"][0][tampered["columns"][0]] = "tampered"
    target.write_text(json.dumps(tampered))
    status, document, _ = run_cli(
        capsys, "merge", *shard_dirs, "--golden", str(golden))
    assert status == 1
    assert document["identical_to_golden"] is False
    assert any(entry["experiment"] == EXPERIMENTS[0]
               for entry in document["mismatches"])


def test_merge_of_incomplete_shards_fails(capsys, tmp_path):
    out = tmp_path / "shard0"
    status, _, _ = run_cli(capsys, "run", EXPERIMENTS[0], "--shard", "0/2",
                        "--out", str(out))
    assert status == 0
    status, _, err = run_cli(capsys, "merge", str(out))
    assert status == 2
    assert "do not cover" in err


def test_merge_of_nothing_fails(capsys, tmp_path):
    status, _, _ = run_cli(capsys, "merge", str(tmp_path / "empty"))
    assert status == 2


# --------------------------------------------------------------------------- #
# search
# --------------------------------------------------------------------------- #
def test_search_json_contract_and_store_replay(capsys, tmp_path):
    front_out = tmp_path / "front.json"
    argv = ["search", "dct_per_pass", "--seed", "3", "--population", "6",
            "--generations", "1", "--store", str(tmp_path / "store"),
            "--front-out", str(front_out)]
    status, document, _ = run_cli(capsys, *argv)
    assert status == 0
    assert document["command"] == "search"
    assert document["target"] == "dct_per_pass"
    assert document["strategy"] == "nsga2"
    assert document["space_size"] == 144
    assert document["evaluations"] > 0
    assert document["front"]["points"]
    assert json.loads(front_out.read_text()) == document["front"]

    # Same seed against the same store: replayed warm, bit-identical.
    status, again, _ = run_cli(capsys, *argv)
    assert status == 0
    assert again["store_hits"] == again["evaluations"]
    assert again["fresh_evaluations"] == 0
    assert again["front"] == document["front"]
    assert again["rounds"] == document["rounds"]


def test_search_gates_need_an_enumerable_target(capsys):
    status, _, err = run_cli(capsys, "search", "fft_per_stage",
                             "--gate-exhaustive")
    assert status == 2
    assert "not enumerable" in err


def test_search_unknown_target_fails_cleanly(capsys):
    status, _, err = run_cli(capsys, "search", "no_such_target")
    assert status == 2
    assert "unknown search target" in err


# --------------------------------------------------------------------------- #
# README --help sync
# --------------------------------------------------------------------------- #
def readme_cli_section() -> str:
    text = README.read_text()
    match = re.search(r"## Command-line interface\n(.*?)\n## ", text,
                      flags=re.DOTALL)
    assert match, "README lost its 'Command-line interface' section"
    return match.group(1)


def parser_options():
    """Long options per (sub)command, straight from the argparse tree.

    Recurses into nested subparsers, so ``fleet plan`` / ``fleet work`` /
    ``fleet status`` / ``fleet harvest`` each get their own entry and the
    README must document every verb's flags.
    """
    import argparse

    def walk(prefix, parser, into):
        for action in parser._actions:
            if not isinstance(action, argparse._SubParsersAction):
                continue
            for name, sub in action.choices.items():
                full = f"{prefix} {name}".strip()
                into[full] = {option for sub_action in sub._actions
                              for option in sub_action.option_strings
                              if option.startswith("--")
                              and option != "--help"}
                walk(full, sub, into)

    options = {}
    walk("", build_parser(), options)
    return options


def test_readme_documents_every_subcommand_and_flag():
    section = readme_cli_section()
    options = parser_options()
    for subcommand in options:
        assert re.search(rf"python -m repro {subcommand}\b", section), \
            f"README does not show `python -m repro {subcommand}`"
    for subcommand, flags in options.items():
        for flag in flags:
            assert flag in section, \
                f"README does not document {subcommand} {flag}"


def top_level_options():
    """Long options of the root parser itself (``--version``, ``--quiet``)."""
    return {option for action in build_parser()._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def test_readme_flags_all_exist_in_the_parsers():
    section = readme_cli_section()
    documented = set(re.findall(r"(--[a-z][a-z-]*)", section)) - {"--help"}
    real = {flag for flags in parser_options().values() for flag in flags}
    real |= top_level_options()
    ghost = documented - real
    assert not ghost, f"README documents options that do not exist: {ghost}"


def test_help_text_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for subcommand in ("run", "merge", "list", "search", "serve", "query",
                       "fleet", "report", "store"):
        assert subcommand in out


# --------------------------------------------------------------------------- #
# --quiet / REPRO_QUIET
# --------------------------------------------------------------------------- #
def test_quiet_flag_silences_stderr_but_not_stdout(capsys):
    status, document, err = run_cli(capsys, "--quiet", "list")
    assert status == 0
    assert document["experiments"]
    assert err == ""


def test_repro_quiet_env_silences_stderr(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_QUIET", "1")
    status, document, err = run_cli(
        capsys, "run", EXPERIMENTS[0], "--out", str(tmp_path / "out"))
    assert status == 0
    assert document["command"] == "run"
    assert err == ""
    # REPRO_QUIET=0 keeps the chatter.
    monkeypatch.setenv("REPRO_QUIET", "0")
    status, _, err = run_cli(capsys, "run", EXPERIMENTS[0])
    assert status == 0
    assert "ran 1 experiments" in err


# --------------------------------------------------------------------------- #
# query (against an in-process server)
# --------------------------------------------------------------------------- #
def test_query_round_trip_and_exit_codes(capsys):
    from repro.server import EvalServer

    with EvalServer() as server:
        status, document, _ = run_cli(
            capsys, "query", "status", "--url", server.url)
        assert status == 0
        assert document["status"] == "ok"
        assert document["result"]["workers"] >= 1

        # --params JSON merged with repeatable --param KEY=VALUE overrides.
        status, document, _ = run_cli(
            capsys, "query", "experiments", "--url", server.url,
            "--params", '{"ablations": true}', "--param", "ablations=false")
        assert status == 0
        assert all(not entry["ablation"]
                   for entry in document["result"]["experiments"])

        # An error envelope is still printed, with exit 1.
        status, document, err = run_cli(
            capsys, "query", "frobnicate", "--url", server.url)
        assert status == 1
        assert document["code"] == "unknown_action"
        assert "unknown_action" in err

    # No server at all: exit 2, no JSON document.
    status, document, err = run_cli(
        capsys, "query", "status", "--url", server.url, "--timeout", "2")
    assert status == 2
    assert document is None
    assert "no evaluation server" in err


def test_query_rejects_malformed_params(capsys):
    status, _, err = run_cli(
        capsys, "query", "status", "--url", "http://127.0.0.1:1",
        "--params", '["not", "an", "object"]')
    assert status == 2
    assert "JSON object" in err
    status, _, err = run_cli(
        capsys, "query", "status", "--url", "http://127.0.0.1:1",
        "--param", "missing-separator")
    assert status == 2
    assert "KEY=VALUE" in err


# --------------------------------------------------------------------------- #
# fleet / report
# --------------------------------------------------------------------------- #
def test_fleet_plan_work_status_harvest_round_trip(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
    golden = tmp_path / "golden"
    status, _, _ = run_cli(capsys, "run", *EXPERIMENTS, "--out", str(golden))
    assert status == 0

    queue = tmp_path / "q"
    status, document, _ = run_cli(
        capsys, "fleet", "plan", str(queue), *EXPERIMENTS,
        "--shards", "2", "--ttl", "60", "--max-attempts", "2")
    assert status == 0
    assert document["command"] == "fleet plan"
    assert document["tasks"] == ["shard-000-of-002", "shard-001-of-002"]
    assert document["shards"] == 2

    # Planning the same directory twice fails cleanly.
    status, _, err = run_cli(capsys, "fleet", "plan", str(queue))
    assert status == 2
    assert "already holds" in err

    # Harvesting before the fleet drains refuses with exit 1.
    status, document, _ = run_cli(capsys, "fleet", "harvest", str(queue))
    assert status == 1
    assert len(document["outstanding"]) == 2

    status, document, _ = run_cli(
        capsys, "fleet", "work", str(queue), "--owner", "cli-worker")
    assert status == 0
    assert document["command"] == "fleet work"
    assert document["completed"] == 2
    assert document["drained"] is True

    status, document, _ = run_cli(capsys, "fleet", "status", str(queue))
    assert status == 0
    assert document["command"] == "fleet status"
    assert document["done"] == 2
    assert document["finished"] is True
    assert document["reclaimed_now"] == 0

    merged = tmp_path / "merged"
    status, document, _ = run_cli(
        capsys, "fleet", "harvest", str(queue), "--out", str(merged),
        "--store", str(merged / ".repro_store"), "--golden", str(golden))
    assert status == 0
    assert document["command"] == "fleet harvest"
    assert document["identical_to_golden"] is True
    assert document["store"]["absorbed"] > 0
    for name in EXPERIMENTS:
        assert (merged / f"{name}.json").is_file()

    # The dashboard renders straight off the harvested bundle.
    output = tmp_path / "report.html"
    status, document, _ = run_cli(
        capsys, "report", str(merged), "--output", str(output),
        "--title", "smoke dashboard")
    assert status == 0
    assert document["command"] == "report"
    assert document["experiments"] == 2
    assert output.is_file()
    assert "smoke dashboard" in output.read_text()


def test_fleet_work_on_unplanned_directory_fails_cleanly(capsys, tmp_path):
    status, _, err = run_cli(capsys, "fleet", "work",
                             str(tmp_path / "nowhere"))
    assert status == 2
    assert "no queue.json" in err


def test_report_on_empty_bundle_fails_cleanly(capsys, tmp_path):
    status, _, err = run_cli(capsys, "report", str(tmp_path / "empty"))
    assert status == 2
    assert "no experiment results" in err


def test_report_reads_named_bench_history(capsys, tmp_path):
    out = tmp_path / "out"
    status, _, _ = run_cli(capsys, "run", EXPERIMENTS[0],
                           "--out", str(out))
    assert status == 0
    bench = tmp_path / "BENCH_serve.json"
    bench.write_text(json.dumps({"script": "benchmarks/serve_bench.py",
                                 "warm_advantage": 10.0}))
    status, document, _ = run_cli(
        capsys, "report", str(out), "--bench", str(bench),
        "--output", str(tmp_path / "report.html"))
    assert status == 0
    assert document["bench"] == {"serve": str(bench), "skipped": []}


# --------------------------------------------------------------------------- #
# store scrub / fault plans
# --------------------------------------------------------------------------- #
def test_store_scrub_quarantines_and_reports(capsys, tmp_path):
    from repro.core import ResultStore

    store_dir = tmp_path / "store"
    store = ResultStore(store_dir)
    store.save("sweep", {"x": 1}, {"value": 1})
    store.save("sweep", {"x": 2}, {"value": 2})
    record = sorted((store_dir / "sweep").glob("*.json"))[0]
    record.write_text(record.read_text()[:15])

    status, document, _ = run_cli(
        capsys, "store", "scrub", str(store_dir), "--dry-run")
    assert status == 0
    assert document["dry_run"] is True
    assert document["corrupt"] == 1
    assert document["quarantined"] == 0
    assert record.exists()

    status, document, _ = run_cli(capsys, "store", "scrub", str(store_dir))
    assert status == 0
    assert document["dry_run"] is False
    assert document["quarantined"] == 1
    assert not record.exists()
    assert (store_dir / "quarantine" / "sweep" / record.name).exists()


def test_fault_plan_activates_for_the_run_then_clears(
        capsys, tmp_path, monkeypatch):
    from repro.faults import fault_active
    from repro.faults.inject import ENV_FAULT_PLAN

    monkeypatch.setenv("REPRO_STORE_FSYNC", "0")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "seed": 5,
        "rules": [{"point": "store.save", "kind": "torn_write",
                   "nth": [2], "params": {"keep_fraction": 0.4}}]}))
    status, document, err = run_cli(
        capsys, "run", EXPERIMENTS[0], "--out", str(tmp_path / "out"),
        "--store", str(tmp_path / "store"),
        "--fault-plan", str(plan_path))
    # The faulted run still succeeds — a torn record is a cache miss,
    # never a failure — and the activation is logged then torn down.
    assert status == 0
    assert "fault plan active" in err
    assert fault_active() is False
    assert ENV_FAULT_PLAN not in __import__("os").environ
    scrub_status, report, _ = run_cli(
        capsys, "store", "scrub", str(tmp_path / "store"))
    assert scrub_status == 0
    assert report["corrupt"] == 1


def test_invalid_fault_plan_fails_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rules": [
        {"point": "nowhere", "kind": "nothing", "nth": [1]}]}))
    status, _, err = run_cli(capsys, "run", EXPERIMENTS[0],
                             "--fault-plan", str(bad))
    assert status == 2
    assert "unknown fault point" in err
