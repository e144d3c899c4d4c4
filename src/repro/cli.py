"""``python -m repro`` — the reproduction's command-line front end.

Nine subcommands wrap the experiment registry behind machine-readable JSON
output (one document on stdout; progress and diagnostics go to stderr,
which ``--quiet`` / ``REPRO_QUIET=1`` silences):

* ``run`` — execute the suite (or a named subset), optionally one
  deterministic shard of it (``--shard i/n``), with per-point
  checkpointing (``--store``) and a run directory of per-experiment JSON
  artifacts plus a manifest (``--out``).  A killed run re-invoked with the
  same ``--store`` resumes where it stopped.
* ``merge`` — fold shard run directories back into one whole-suite result
  (rows and Pareto fronts bit-identical to an unsharded run), optionally
  folding the shards' stores into one (``--store``) and gating against a
  golden unsharded run (``--golden``, non-zero exit on any divergence).
* ``list`` — the experiment registry, names and titles.
* ``search`` — adaptive design-space search (:mod:`repro.search`) over a
  named target: successive halving on enumerable spaces, the NSGA-II
  evolutionary driver on spaces too large to enumerate.  One seed fixes
  the whole candidate schedule; re-running against the same ``--store``
  replays warm.  ``--gate-exhaustive`` / ``--max-cost-fraction`` turn the
  run into the CI gate: the searched front must equal the exhaustively
  enumerated front at a bounded fraction of its evaluation cost.
* ``fleet`` — lease-based fleet execution over a shared queue directory
  (:mod:`repro.fleet`): ``plan`` carves the suite into shard tasks,
  ``work`` runs a crash-safe claim/heartbeat/commit worker, ``status``
  watches progress and reclaims expired leases, ``harvest`` folds the
  partial results back together bit-identically.
* ``report`` — the static self-contained HTML results dashboard
  (:mod:`repro.report`) from a merged run directory plus the committed
  ``BENCH_*.json`` history.
* ``serve`` — the long-lived evaluation server (:mod:`repro.server`):
  warm caches, request batching, JSON-over-HTTP, deadline-based load
  shedding and a SIGTERM drain that finishes in-flight requests.
* ``query`` — one protocol request against a running server, envelope on
  stdout (exit 0 only for an ``ok`` envelope).
* ``store`` — result-store maintenance: ``scrub`` detects corrupt or
  truncated records and quarantines them out of every future read path.

``run``, ``fleet work`` and ``serve`` accept ``--fault-plan`` — a seeded
fault-injection plan (:mod:`repro.faults`) that deterministically breaks
the store/fleet/server I/O paths for chaos testing; the CI chaos matrix
drives exactly these flags.

The fan-out/fan-in CI workflow is literally ``run --shard i/n`` in an
``n``-way job matrix followed by one ``merge --golden`` job; the fleet
CI job is the dynamic version — 6 planned shards, 3 workers, one of
them SIGKILLed mid-lease, same golden gate.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from .core.backends import describe_backends
from .core.study import parse_shard, process_pool, resolve_workers

PROG = "python -m repro"


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (also what the README snippet test walks)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Sharded, resumable runner for the reproduced "
                    "experiment suite.")
    from . import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages on stderr (the "
                             "JSON document on stdout is unaffected; "
                             "REPRO_QUIET=1 does the same)")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    run = commands.add_parser(
        "run", help="run the experiment suite (or one shard of it)",
        description="Run all or selected experiments; every completed sweep "
                    "point is checkpointed to --store, so re-running after "
                    "a kill resumes instead of recomputing.")
    run.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help="experiment names (default: the whole suite; "
                          "see 'list')")
    run.add_argument("--reduced", dest="reduced", action="store_true",
                     help="laptop-scale sweep densities (the default)")
    run.add_argument("--full", dest="reduced", action="store_false",
                     help="the paper's full sweep densities")
    run.set_defaults(reduced=True)
    run.add_argument("--shard", metavar="I/N", default=None,
                     help="run only shard I of N (deterministic round-robin "
                          "partition of every experiment's design points)")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="process-pool workers, one pool for the whole run "
                          "(capped at the CPU count)")
    run.add_argument("--backend", default="direct", metavar="SPEC",
                     help="execution backend of the application sweeps "
                          "(default: %(default)s)")
    run.add_argument("--store", metavar="DIR", default=None,
                     help="persistent result store: checkpoints every sweep "
                          "point and serves completed ones on re-runs")
    run.add_argument("--out", metavar="DIR", default=None,
                     help="write <experiment>.json artifacts plus "
                          "manifest.json under DIR")
    run.add_argument("--no-ablations", dest="ablations", action="store_false",
                     help="skip the extension ablation experiments")
    run.add_argument("--fault-plan", metavar="PATH", default=None,
                     help="activate a seeded fault-injection plan for this "
                          "run (chaos testing; exported to spawned workers "
                          "via REPRO_FAULT_PLAN)")

    merge = commands.add_parser(
        "merge", help="fold shard run directories into one result",
        description="Merge the outputs of 'run --shard i/n' jobs; rows and "
                    "Pareto fronts are bit-identical to an unsharded run "
                    "and the disjoint-cover property is validated.")
    merge.add_argument("inputs", nargs="+", metavar="DIR",
                       help="shard output directories (from 'run --out')")
    merge.add_argument("--out", metavar="DIR", default=None,
                       help="write the merged artifacts plus manifest.json "
                            "under DIR")
    merge.add_argument("--store", metavar="DIR", default=None,
                       help="fold every shard's .repro_store into DIR")
    merge.add_argument("--golden", metavar="DIR", default=None,
                       help="compare the merged rows and fronts against a "
                            "golden (unsharded) run directory; exit non-zero "
                            "on any divergence")

    lister = commands.add_parser(
        "list", help="list the experiment registry",
        description="The experiment registry: selection names for 'run' "
                    "with one-line titles.")
    lister.add_argument("--no-ablations", dest="ablations",
                        action="store_false",
                        help="hide the extension ablation experiments")

    search = commands.add_parser(
        "search", help="adaptively search a design space for its front",
        description="Explore a named design-space target with an adaptive "
                    "driver (successive halving or the NSGA-II evolutionary "
                    "loop) instead of enumerating it; one seed fixes the "
                    "whole candidate schedule, every evaluation flows "
                    "through --store, and re-running the same seed against "
                    "the same store replays at zero simulation cost.")
    search.add_argument("target", nargs="?", default="fft_joint",
                        metavar="TARGET",
                        help="search target: fft_joint (enumerable, gated), "
                             "fft_per_stage or dct_per_pass (heterogeneous; "
                             "default: %(default)s)")
    search.add_argument("--strategy", default=None, metavar="NAME",
                        help="search driver: 'halving' (enumerable spaces) "
                             "or 'nsga2' (default: the target's own)")
    search.add_argument("--seed", type=int, default=7, metavar="N",
                        help="seed of the single random stream driving the "
                             "candidate schedule (default: %(default)s)")
    search.add_argument("--budget", type=int, default=None, metavar="N",
                        help="hard cap on candidate evaluations "
                             "(default: the driver's own schedule)")
    search.add_argument("--population", type=int, default=None, metavar="N",
                        help="nsga2 population size (default: driver's)")
    search.add_argument("--generations", type=int, default=None, metavar="N",
                        help="nsga2 generation count (default: driver's)")
    search.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool workers, one pool for the whole "
                             "search (capped at the CPU count)")
    search.add_argument("--backend", default="direct", metavar="SPEC",
                        help="execution backend of the candidate sweeps "
                             "(default: %(default)s)")
    search.add_argument("--store", metavar="DIR", default=None,
                        help="persistent result store: checkpoints every "
                             "candidate, serves completed ones on re-runs")
    search.add_argument("--reduced", dest="reduced", action="store_true",
                        help="the target's reduced stimulus density "
                             "(the default)")
    search.add_argument("--full", dest="reduced", action="store_false",
                        help="the target's full stimulus density (what the "
                             "CI gate runs)")
    search.set_defaults(reduced=True)
    search.add_argument("--gate-exhaustive", action="store_true",
                        help="also enumerate the whole space and fail "
                             "unless the searched front equals the "
                             "exhaustive front exactly (enumerable "
                             "targets only)")
    search.add_argument("--max-cost-fraction", type=float, default=None,
                        metavar="F",
                        help="fail if the search spent more than this "
                             "fraction of the exhaustive evaluation cost "
                             "(e.g. 0.35; enumerable targets only)")
    search.add_argument("--front-out", metavar="PATH", default=None,
                        help="also write the searched front as a "
                             "standalone JSON document to PATH")

    serve = commands.add_parser(
        "serve", help="run the long-lived evaluation server",
        description="Serve evaluate/pareto/experiments/status requests over "
                    "JSON-over-HTTP, keeping the hardware characterisation "
                    "cache and the result store warm "
                    "between requests.  A cold evaluate computes at once "
                    "while a compute slot is free; concurrent requests for "
                    "a point being computed share that computation, and "
                    "same-workload evaluations waiting for a slot run as "
                    "one sweep.")
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                       help="interface to bind (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8023, metavar="PORT",
                       help="TCP port to bind; 0 picks a free port "
                            "(default: %(default)s)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="maximum concurrent sweep computations "
                            "(default: %(default)s)")
    serve.add_argument("--backend", default="direct", metavar="SPEC",
                       help="default execution backend for requests that "
                            "do not name one (default: %(default)s)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="persistent result store shared by all "
                            "requests; warm hits are served from it")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="request deadline for load shedding: a request "
                            "that cannot get a compute slot within this "
                            "long is refused with HTTP 503 + Retry-After "
                            "(default: queue without bound)")
    serve.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="activate a seeded fault-injection plan "
                            "(chaos testing: dropped connections, slow "
                            "handlers, injected 500s)")

    fleet = commands.add_parser(
        "fleet", help="coordinate many machines over a shared work queue",
        description="Lease-based fleet execution: 'plan' carves the suite "
                    "into shard tasks inside a shared directory, any number "
                    "of 'work' processes claim leases / heartbeat / push "
                    "partial results (crash-safe: dead workers' leases "
                    "expire and are reclaimed), 'status' watches progress "
                    "and 'harvest' folds everything back together, "
                    "bit-identical to a single-process run.")
    fleet_commands = fleet.add_subparsers(dest="fleet_command",
                                          metavar="VERB")

    fleet_plan = fleet_commands.add_parser(
        "plan", help="lay out a new work queue of shard tasks",
        description="Create the queue directory: one lease-able task per "
                    "shard of the selected experiments.")
    fleet_plan.add_argument("queue", metavar="QUEUE_DIR",
                            help="queue directory (shared between workers; "
                                 "must not already hold a plan)")
    fleet_plan.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                            help="experiment names (default: the whole "
                                 "suite; see 'list')")
    fleet_plan.add_argument("--shards", type=int, default=4, metavar="N",
                            help="number of shard tasks to carve the suite "
                                 "into (default: %(default)s)")
    fleet_plan.add_argument("--reduced", dest="reduced", action="store_true",
                            help="laptop-scale sweep densities (the default)")
    fleet_plan.add_argument("--full", dest="reduced", action="store_false",
                            help="the paper's full sweep densities")
    fleet_plan.set_defaults(reduced=True)
    fleet_plan.add_argument("--backend", default="direct", metavar="SPEC",
                            help="execution backend every worker uses "
                                 "(default: %(default)s)")
    fleet_plan.add_argument("--ttl", type=float, default=60.0,
                            metavar="SECONDS",
                            help="lease time-to-live: a lease whose "
                                 "heartbeat is older than this is "
                                 "reclaimable (default: %(default)s)")
    fleet_plan.add_argument("--max-attempts", type=int, default=3,
                            metavar="N",
                            help="failed attempts (crashes or errors) before "
                                 "a task is tombstoned as failed "
                                 "(default: %(default)s)")
    fleet_plan.add_argument("--no-ablations", dest="ablations",
                            action="store_false",
                            help="skip the extension ablation experiments")

    fleet_work = fleet_commands.add_parser(
        "work", help="run one fleet worker until the queue drains",
        description="Claim shard leases, heartbeat while computing, push "
                    "per-attempt artifacts and a per-worker store back into "
                    "the queue; backs off with jitter when nothing is "
                    "claimable and exits with a JSON summary once every "
                    "task is terminal.")
    fleet_work.add_argument("queue", metavar="QUEUE_DIR",
                            help="planned queue directory")
    fleet_work.add_argument("--owner", default=None, metavar="NAME",
                            help="worker identity recorded in leases "
                                 "(default: host-pid-thread)")
    fleet_work.add_argument("--workers", type=int, default=1, metavar="N",
                            help="process-pool workers of this fleet worker, "
                                 "one pool per task run (default: %(default)s)")
    fleet_work.add_argument("--max-tasks", type=int, default=None,
                            metavar="N",
                            help="stop after completing N tasks "
                                 "(default: run until drained)")
    fleet_work.add_argument("--poll-retries", type=int, default=20,
                            metavar="N",
                            help="polls of a busy queue before giving up "
                                 "(default: %(default)s)")
    fleet_work.add_argument("--poll-delay", type=float, default=0.25,
                            metavar="SECONDS",
                            help="base delay of the jittered exponential "
                                 "poll backoff (default: %(default)s)")
    fleet_work.add_argument("--poll-deadline", type=float, default=None,
                            metavar="SECONDS",
                            help="give up polling a busy queue once the "
                                 "next backoff sleep would cross this "
                                 "wall-time budget (default: attempts "
                                 "bound only)")
    fleet_work.add_argument("--fault-plan", metavar="PATH", default=None,
                            help="activate a seeded fault-injection plan in "
                                 "this worker (chaos testing: injected "
                                 "crashes, heartbeat stalls, torn writes)")

    fleet_status = fleet_commands.add_parser(
        "status", help="report live queue progress counters",
        description="One observation pass: reclaim expired leases (unless "
                    "--no-reclaim), then report pending/leased/done/failed "
                    "counts, reclaim totals and per-worker heartbeats.")
    fleet_status.add_argument("queue", metavar="QUEUE_DIR",
                              help="planned queue directory")
    fleet_status.add_argument("--no-reclaim", dest="reclaim",
                              action="store_false",
                              help="observe only; do not reclaim expired "
                                   "leases")

    fleet_harvest = fleet_commands.add_parser(
        "harvest", help="fold a drained queue into one merged result",
        description="Merge every completed task's artifacts (bit-identical "
                    "to an unsharded run), absorb the per-worker stores, "
                    "and optionally gate against a golden run directory; "
                    "non-zero exit while tasks are outstanding or any task "
                    "exhausted its retries.")
    fleet_harvest.add_argument("queue", metavar="QUEUE_DIR",
                               help="planned queue directory")
    fleet_harvest.add_argument("--out", metavar="DIR", default=None,
                               help="write the merged artifacts plus "
                                    "manifest.json under DIR")
    fleet_harvest.add_argument("--store", metavar="DIR", default=None,
                               help="fold every per-worker store into DIR")
    fleet_harvest.add_argument("--golden", metavar="DIR", default=None,
                               help="compare the harvested rows and fronts "
                                    "against a golden (unsharded) run "
                                    "directory; exit non-zero on divergence")

    report = commands.add_parser(
        "report", help="render the static HTML results dashboard",
        description="Generate a self-contained HTML dashboard (inline SVG, "
                    "no scripts) from a merged run directory plus the "
                    "committed BENCH_*.json history: per-app "
                    "quality-versus-energy Pareto fronts and the "
                    "evaluation-server benchmark trajectory.")
    report.add_argument("bundle", metavar="RUN_DIR",
                        help="merged run directory (from 'run --out', "
                             "'merge --out' or 'fleet harvest --out')")
    report.add_argument("--bench", metavar="PATH", action="append",
                        default=None, dest="bench_paths",
                        help="bench history JSON to include (repeatable; "
                             "default: BENCH_*.json in the working "
                             "directory)")
    report.add_argument("--output", metavar="PATH", default="report.html",
                        help="dashboard file to write "
                             "(default: %(default)s)")
    report.add_argument("--title", metavar="TEXT",
                        default="repro results dashboard",
                        help="dashboard heading (default: %(default)s)")

    query = commands.add_parser(
        "query", help="send one request to a running evaluation server",
        description="POST one {action, params} request and print the "
                    "response envelope; exits 0 only for an 'ok' envelope, "
                    "1 for an error envelope, 2 if no server answered.")
    query.add_argument("action", metavar="ACTION",
                       help="protocol action (evaluate, pareto, "
                            "experiments, status)")
    query.add_argument("--url", default="http://127.0.0.1:8023",
                       metavar="URL",
                       help="server base URL (default: %(default)s)")
    query.add_argument("--params", metavar="JSON", default=None,
                       help="request parameters as one JSON object")
    query.add_argument("--param", metavar="KEY=VALUE", action="append",
                       default=[], dest="param_items",
                       help="set one parameter (VALUE parsed as JSON when "
                            "possible, kept as a string otherwise; "
                            "repeatable, applied after --params)")
    query.add_argument("--timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="give up waiting for the response after this "
                            "long (default: %(default)s)")
    query.add_argument("--retries", type=int, default=2, metavar="N",
                       help="transport-failure retries with exponential "
                            "backoff before giving up; 0 fails on the "
                            "first connect error (default: %(default)s)")
    query.add_argument("--retry-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="bound the whole retry loop in wall time: "
                            "once the next backoff sleep would cross this "
                            "budget, fail (or return the 503 envelope) "
                            "immediately (default: retries bound only)")

    store = commands.add_parser(
        "store", help="inspect and repair a persistent result store",
        description="Maintenance verbs for a --store directory; 'scrub' "
                    "detects corrupt or truncated records (torn writes, "
                    "bit rot, hand edits) and quarantines them so no "
                    "future load or absorb ever reads them.")
    store_commands = store.add_subparsers(dest="store_command",
                                          metavar="VERB")
    store_scrub = store_commands.add_parser(
        "scrub", help="quarantine corrupt or truncated store records",
        description="Validate every record file (JSON shape, store "
                    "version, kind, content digest) and move the invalid "
                    "ones into quarantine/ inside the store, preserving "
                    "their relative paths for forensics; reports counts "
                    "by corruption reason.")
    store_scrub.add_argument("store", metavar="DIR",
                             help="result store directory to scrub")
    store_scrub.add_argument("--dry-run", action="store_true",
                             help="detect and report only; move nothing")
    return parser


def _emit(document: Dict[str, object],
          output: Optional[str] = None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True)
    try:
        print(text)
    except BrokenPipeError:  # e.g. piped into `head`; not an error
        pass
    if output is not None:
        Path(output).write_text(text + "\n")


#: Set by ``--quiet``; ``REPRO_QUIET`` (any non-empty value but ``0``)
#: covers invocations the flag cannot reach, e.g. inside test harnesses.
_QUIET = False


def _quiet() -> bool:
    return _QUIET or os.environ.get("REPRO_QUIET", "0") not in ("", "0")


def _log(message: str) -> None:
    if not _quiet():
        print(message, file=sys.stderr)


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import run_all

    shard = parse_shard(args.shard)
    experiments = args.experiments or None
    started = time.perf_counter()
    bundle = run_all(output_dir=args.out, reduced=args.reduced,
                     include_ablations=args.ablations, workers=args.workers,
                     backend=args.backend, store=args.store, shard=shard,
                     experiments=experiments)
    seconds = time.perf_counter() - started
    _log(f"ran {len(bundle.results)} experiments in {seconds:.1f}s"
         + (f" (shard {shard[0]}/{shard[1]})" if shard else ""))
    document = {
        "command": "run",
        "seconds": round(seconds, 3),
        "workers": resolve_workers(args.workers),
        "store": args.store,
        "out": args.out,
        **bundle.manifest(),
    }
    _emit(document)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .experiments import merge_run
    from .experiments.runner import compare_to_golden

    started = time.perf_counter()
    merged = merge_run(args.inputs, output_dir=args.out, store=args.store)
    document: Dict[str, object] = {
        "command": "merge",
        "inputs": list(args.inputs),
        "out": args.out,
        "seconds": round(time.perf_counter() - started, 3),
        **merged.manifest(),
    }
    status = 0
    if args.golden is not None:
        mismatches = compare_to_golden(merged, args.golden)
        document["golden"] = args.golden
        document["identical_to_golden"] = not mismatches
        if mismatches:
            document["mismatches"] = mismatches
            _log(f"FAIL: merged result diverges from the golden run in "
                 f"{len(mismatches)} place(s)")
            status = 1
        else:
            _log("merged rows and fronts are bit-identical to the golden run")
    _emit(document)
    return status


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import describe_experiments

    _emit({
        "command": "list",
        "experiments": describe_experiments(args.ablations),
        "backends": describe_backends(),
    })
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import get_target
    from .search.evaluator import search_row

    target = get_target(args.target)
    gating = args.gate_exhaustive or args.max_cost_fraction is not None
    if gating and not target.enumerable:
        raise ValueError(
            f"target {target.name!r} is not enumerable; the exhaustive "
            f"gates need a finite space (use 'fft_joint')")
    strategy = target.strategy(args.strategy, seed=args.seed,
                               budget=args.budget,
                               population=args.population,
                               generations=args.generations)
    study = target.study(reduced=args.reduced, backend=args.backend,
                         store=args.store)
    # One process pool serves the search and its exhaustive reference.
    with process_pool(resolve_workers(args.workers)) as pool:
        started = time.perf_counter()
        outcome = study.search(strategy, workers=args.workers, pool=pool)
        seconds = time.perf_counter() - started
        _log(f"{target.name}: {strategy.name} evaluated {outcome.evaluations} "
             f"candidate(s) of {outcome.space_size} in {seconds:.1f}s — "
             f"{len(outcome.front.records)} on the front, "
             f"{outcome.store_hits} served warm")
        if args.gate_exhaustive:
            exhaustive = (target.study(reduced=args.reduced,
                                       backend=args.backend, store=args.store)
                          .design_space(target.space())
                          .rows(search_row)
                          .run(workers=args.workers, pool=pool))
    document: Dict[str, object] = {
        "command": "search",
        "target": target.name,
        "reduced": args.reduced,
        "seed": args.seed,
        "workers": resolve_workers(args.workers),
        "store": args.store,
        "seconds": round(seconds, 3),
        **outcome.to_dict(),
    }
    status = 0
    if args.max_cost_fraction is not None:
        fraction = outcome.cost_units / float(outcome.space_size)
        document["cost_fraction"] = fraction
        document["max_cost_fraction"] = args.max_cost_fraction
        if fraction > args.max_cost_fraction:
            _log(f"FAIL: search cost {fraction:.1%} of the exhaustive "
                 f"evaluations (gate: {args.max_cost_fraction:.1%})")
            status = 1
    if args.gate_exhaustive:
        reference = exhaustive.front(target.quality, target.cost)
        recall = outcome.front.rows == reference.rows
        document["exhaustive_evaluations"] = len(exhaustive.rows)
        document["exhaustive_front_points"] = len(reference.records)
        document["front_matches_exhaustive"] = recall
        if recall:
            _log("searched front is exactly the exhaustive front "
                 f"({len(reference.records)} point(s))")
        else:
            _log("FAIL: searched front diverges from the exhaustive front")
            status = 1
    if args.front_out is not None:
        outcome.front.save_json(args.front_out)
        document["front_out"] = args.front_out
    _emit(document)
    return status


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command is None:
        build_parser().parse_args(["fleet", "--help"])  # prints and exits
        return 2  # pragma: no cover - parse_args exits above

    if args.fleet_command == "plan":
        from .fleet import plan_queue

        document = plan_queue(args.queue,
                              experiments=args.experiments or None,
                              shards=args.shards, reduced=args.reduced,
                              backend=args.backend, ttl_s=args.ttl,
                              max_attempts=args.max_attempts,
                              include_ablations=args.ablations)
        _log(f"planned {len(document['tasks'])} task(s) under {args.queue}")
        _emit({"command": "fleet plan", **document})
        return 0

    if args.fleet_command == "work":
        import signal

        from .fleet import FleetWorker

        worker = FleetWorker(args.queue, owner=args.owner,
                             workers=args.workers, max_tasks=args.max_tasks,
                             poll_retries=args.poll_retries,
                             poll_base_delay=args.poll_delay,
                             poll_deadline_s=args.poll_deadline)
        _log(f"worker {worker.owner!r} joining {args.queue}")

        def _on_term(signum: int, frame: object) -> None:
            _log(f"worker {worker.owner!r}: SIGTERM — finishing the task "
                 f"in flight, then draining")
            worker.request_drain()

        previous = signal.signal(signal.SIGTERM, _on_term)
        try:
            summary = worker.run()
        finally:
            signal.signal(signal.SIGTERM, previous)
        _log(f"worker {worker.owner!r}: {summary['completed']} task(s) "
             f"completed, drained={summary['drained']}")
        _emit({"command": "fleet work", **summary})
        reached_cap = (args.max_tasks is not None
                       and len(summary["tasks"]) >= args.max_tasks)
        return 0 if (summary["drained"] or reached_cap
                     or summary["drain_requested"]) else 1

    if args.fleet_command == "status":
        from .fleet import queue_status

        status = queue_status(args.queue, reclaim=args.reclaim)
        _emit({"command": "fleet status", **status})
        return 0

    if args.fleet_command == "harvest":
        from .fleet import harvest

        document, status = harvest(args.queue, output_dir=args.out,
                                   store=args.store, golden=args.golden)
        if status:
            _log(f"FAIL: {document.get('error', 'harvest diverged from the golden run')}")
        elif args.golden is not None:
            _log("harvested rows and fronts are bit-identical to the "
                 "golden run")
        _emit({"command": "fleet harvest", **document})
        return status

    raise ValueError(f"unknown fleet verb {args.fleet_command!r}")


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import generate_report

    document = generate_report(args.bundle, bench_paths=args.bench_paths,
                               output=args.output, title=args.title,
                               generated=time.strftime("%Y-%m-%d %H:%M:%S"))
    _log(f"wrote {document['output']} ({document['bytes']} bytes, "
         f"{document['fronts']} front(s))")
    _emit({"command": "report", **document})
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .server import EvalServer
    from .server.dispatch import _status

    server = EvalServer(host=args.host, port=args.port, store=args.store,
                        backend=args.backend, workers=args.workers,
                        deadline_s=args.deadline)
    _log(f"serving on {server.url} (workers={args.workers}, "
         f"backend={args.backend!r}, store={args.store!r}); Ctrl-C to stop")

    # SIGTERM = graceful drain: stop accepting, let in-flight requests
    # finish.  The handler only spawns a thread — EvalServer.drain cannot
    # run on serve_forever's own (this) thread, which shutdown() blocks.
    drain: Dict[str, object] = {}

    def _on_term(signum: int, frame: object) -> None:
        if "thread" in drain:
            return  # a second SIGTERM changes nothing
        _log("SIGTERM: draining — refusing new connections, finishing "
             "in-flight requests")
        thread = threading.Thread(target=lambda: drain.update(
            remaining=server.drain()), name="serve-drain", daemon=True)
        drain["thread"] = thread
        thread.start()

    previous = signal.signal(signal.SIGTERM, _on_term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _log("interrupted; shutting down")
    finally:
        thread = drain.get("thread")
        if isinstance(thread, threading.Thread):
            thread.join(timeout=30.0)
        signal.signal(signal.SIGTERM, previous)
        final = _status(server.state, {})
        server.stop()
    document = {"command": "serve", "url": server.url, **final}
    if "thread" in drain:
        document["drained"] = True
        document["in_flight_at_close"] = drain.get("remaining")
    _emit(document)
    return 0


def _parse_query_params(args: argparse.Namespace) -> Dict[str, object]:
    params: Dict[str, object] = {}
    if args.params is not None:
        document = json.loads(args.params)
        if not isinstance(document, dict):
            raise ValueError("--params must be a JSON object")
        params.update(document)
    for item in args.param_items:
        key, separator, raw = item.partition("=")
        if not separator or not key:
            raise ValueError(f"--param needs KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw  # bare strings stay strings: --param adder=ADD(16)
    return params


def _cmd_query(args: argparse.Namespace) -> int:
    from .server import ServerUnavailable, query

    try:
        envelope = query(args.url, args.action,
                         params=_parse_query_params(args),
                         timeout=args.timeout, retries=args.retries,
                         retry_deadline_s=args.retry_deadline)
    except ServerUnavailable as error:
        _log(f"error: {error}")
        return 2
    _emit(envelope)
    if envelope.get("status") != "ok":
        _log(f"error [{envelope.get('code')}]: {envelope.get('message')}")
        return 1
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command is None:
        build_parser().parse_args(["store", "--help"])  # prints and exits
        return 2  # pragma: no cover - parse_args exits above

    if args.store_command == "scrub":
        from .core.store import ResultStore

        store = ResultStore(args.store)
        document = store.scrub(quarantine=not args.dry_run)
        document["dry_run"] = bool(args.dry_run)
        _log(f"scrubbed {document['scanned']} record(s): "
             f"{document['corrupt']} corrupt, "
             f"{document['quarantined']} quarantined")
        _emit({"command": "store scrub", **document})
        return 0

    raise ValueError(f"unknown store verb {args.store_command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _QUIET
    parser = build_parser()
    args = parser.parse_args(argv)
    _QUIET = bool(getattr(args, "quiet", False))
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    handlers = {"run": _cmd_run, "merge": _cmd_merge,
                "list": _cmd_list,
                "search": _cmd_search, "fleet": _cmd_fleet,
                "report": _cmd_report, "serve": _cmd_serve,
                "query": _cmd_query, "store": _cmd_store}
    fault_plan = getattr(args, "fault_plan", None)
    activated = False
    try:
        if fault_plan:
            from .faults import activate

            injector = activate(fault_plan, export_env=True)
            activated = True
            _log(f"fault plan active: {fault_plan} "
                 f"(seed {injector.plan.seed}, "
                 f"{len(injector.plan.rules)} rule(s))")
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError) as error:
        _log(f"error: {error}")
        return 2
    finally:
        if activated:
            from .faults import deactivate

            deactivate()
