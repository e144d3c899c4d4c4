"""The fleet coordinator: plan the queue, watch it, harvest the results.

Three verbs on top of :class:`~repro.fleet.queue.LeaseQueue`, one per CLI
subcommand:

* :func:`plan_queue` — carve the suite into ``n`` shard tasks (the same
  deterministic round-robin partition ``run --shard i/n`` uses) and lay
  the queue directory out;
* :func:`queue_status` — one observation pass: reclaim expired leases
  (bounded per task by ``max_attempts``, so a poison shard is tombstoned
  into ``failed/`` instead of looping forever) and report live counters;
* :func:`harvest` — once every task is terminal, fold the per-attempt
  artifact directories back through
  :meth:`ExperimentResult.merge_shards` / :func:`merge_run` and absorb
  every per-worker store — the merged rows, fronts and store are
  bit-identical to a single-process golden run of the same experiments.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.store import ResultStore, StoreLike
from .queue import LeaseQueue


def plan_queue(directory: Union[str, Path],
               experiments: Optional[Sequence[str]] = None,
               shards: int = 4, reduced: bool = True,
               backend: str = "direct", ttl_s: float = 60.0,
               max_attempts: int = 3,
               include_ablations: bool = True) -> Dict[str, object]:
    """Plan a fleet queue; returns the ``fleet plan`` JSON document."""
    queue = LeaseQueue.plan(directory, experiments=experiments,
                            shards=shards, reduced=reduced, backend=backend,
                            ttl_s=ttl_s, max_attempts=max_attempts,
                            include_ablations=include_ablations)
    return {
        "queue": str(queue.directory),
        "tasks": queue.task_ids(),
        **{key: queue.config[key]
           for key in ("experiments", "shards", "reduced", "backend",
                       "ttl_s", "max_attempts")},
    }


def queue_status(directory: Union[str, Path],
                 reclaim: bool = True) -> Dict[str, object]:
    """Watch the queue: optionally sweep expired leases, then report.

    The reclaim sweep is what lets a coordinator (or any ``status``
    probe) recover tasks from workers that died without cleanup; claim
    paths do the same lazily, so the sweep is an accelerant, not a
    requirement.
    """
    queue = LeaseQueue(directory)
    reclaimed_now = queue.reclaim_expired() if reclaim else 0
    status = queue.status()
    status["reclaimed_now"] = reclaimed_now
    return status


def harvest(directory: Union[str, Path],
            output_dir: Optional[Union[str, Path]] = None,
            store: StoreLike = None,
            golden: Optional[Union[str, Path]] = None
            ) -> Tuple[Dict[str, object], int]:
    """Fold a finished queue into one result; ``(document, exit_status)``.

    Refuses (status 1) while tasks are still outstanding, and reports the
    poison tombstones (status 1) when any task exhausted its retries —
    the failed-task report carries every attempt's reason so the poison
    shard is debuggable from the harvest output alone.  On success the
    shard artifact directories named by the ``done/`` tombstones are
    merged exactly like ``repro merge`` merges shard run directories, and
    every per-worker store is absorbed into ``store``; ``golden`` gates
    the merged rows and fronts against an unsharded run directory.
    """
    from ..experiments.runner import merge_run

    queue = LeaseQueue(directory)
    queue.config  # raise early on an unplanned directory
    document: Dict[str, object] = {"queue": str(queue.directory)}
    failures = queue.failure_reports()
    if failures:
        document["failed_tasks"] = failures
        document["error"] = (f"{len(failures)} task(s) exhausted their "
                             f"retries; nothing harvested")
        return document, 1
    outstanding = queue.outstanding()
    if outstanding:
        document["outstanding"] = outstanding
        document["error"] = (f"{len(outstanding)} task(s) still pending or "
                             f"leased; harvest after the fleet drains")
        return document, 1

    outputs = queue.completed_outputs()
    merged = merge_run([path for _, path in outputs],
                       output_dir=output_dir, store=store)
    document["tasks"] = [task_id for task_id, _ in outputs]
    document["out"] = str(output_dir) if output_dir is not None else None

    merged_store = ResultStore.of(store)
    if merged_store is not None:
        stores_base = queue.directory / "stores"
        absorbed = 0
        if stores_base.is_dir():
            for worker_store in sorted(p for p in stores_base.iterdir()
                                       if p.is_dir()):
                absorbed += merged_store.absorb(ResultStore(worker_store))
        stats = merged_store.stats()
        document["store"] = {
            "directory": str(merged_store.directory),
            "absorbed": stats["absorbed"],
            "conflicts": stats["conflicts"],
            "quarantined": stats["quarantined"],
            "records": stats["records"],
        }
    document.update(merged.manifest())

    # What the run survived: queue-level churn (reclaims of dead workers,
    # worker-reported errors) plus store-level self-defence (absorb
    # conflicts, quarantined corruption).  Written next to the merged
    # artifacts so the dashboard can surface it; ``ResultBundle.load_dir``
    # ignores it (no "experiment"/"columns" keys).
    queue_counters = queue.status()
    document["resilience"] = {
        "reclaims": queue_counters["reclaims"],
        "worker_errors": queue_counters["worker_errors"],
        "conflicts": (document.get("store") or {}).get("conflicts", 0),
        "quarantined": (document.get("store") or {}).get("quarantined", 0),
    }
    if output_dir is not None:
        resilience_path = Path(output_dir) / "resilience.json"
        try:
            resilience_path.write_text(
                json.dumps(document["resilience"], indent=2, sort_keys=True))
        except OSError:
            pass

    status = 0
    if golden is not None:
        from ..experiments.runner import compare_to_golden

        mismatches = compare_to_golden(merged, golden)
        document["golden"] = str(golden)
        document["identical_to_golden"] = not mismatches
        if mismatches:
            document["mismatches"] = mismatches
            status = 1
    return document, status
