"""Fleet execution: a dependency-free, filesystem-backed work queue.

``repro fleet plan`` carves the experiment suite into shard tasks inside
a shared directory; any number of ``repro fleet work`` processes — on one
machine or many sharing the directory — claim lease files atomically,
heartbeat while computing, and push per-attempt artifacts plus
per-worker stores back into the queue.  Workers that die (including
``SIGKILL``) stop heartbeating; their leases expire and are reclaimed
with a bounded retry budget, so crashes cost wall-clock, never results —
and a poison shard fails loudly instead of looping.  ``repro fleet
harvest`` folds everything back together, bit-identical to a
single-process run.

See :mod:`repro.fleet.queue` for the on-disk state machine,
:mod:`repro.fleet.worker` for the claim/heartbeat/commit loop and
:mod:`repro.fleet.coordinator` for plan/status/harvest.
"""
from .coordinator import harvest, plan_queue, queue_status
from .queue import Lease, LeaseQueue, QueueError, default_owner
from .worker import FleetWorker, QueueBusy

__all__ = [
    "FleetWorker",
    "Lease",
    "LeaseQueue",
    "QueueBusy",
    "QueueError",
    "default_owner",
    "harvest",
    "plan_queue",
    "queue_status",
]
