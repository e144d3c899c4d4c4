"""Deterministic fault injection: break the system on purpose, on a seed.

The reproduction's credibility rests on results being bit-identical no
matter how the work is executed — sharded, fleeted, served, or crashed
mid-flight.  This package makes "crashed mid-flight" a *first-class,
replayable input*: a seeded :class:`FaultPlan` (JSON-loadable) is
consulted at named fault points threaded through every layer that does
I/O — the result store's writes, the fleet worker's commit/heartbeat,
the lease queue's TTL checks, the evaluation server's request handler —
and the resulting fault schedule is a pure function of the seed and the
consult sequence, so a chaos failure reproduces exactly.

* :mod:`repro.faults.plan` — the plan/rule schema, validation, the
  :data:`FAULT_POINTS` point/kind registry and the deterministic
  :class:`FaultInjector`;
* :mod:`repro.faults.inject` — the process-wide runtime: zero-cost
  ``maybe_fault`` consults, activation via ``--fault-plan`` CLI flags or
  the ``REPRO_FAULT_PLAN`` environment variable (inherited by spawned
  workers).

With no plan active every fault point is a global load plus an
``is None`` check, so the ``perfbench/`` workloads run unchanged.
"""
from .inject import (
    ENV_FAULT_PLAN,
    activate,
    activate_from_env,
    active_injector,
    deactivate,
    fault_active,
    maybe_fault,
)
from .plan import (
    FAULT_POINTS,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
)

__all__ = [
    "ENV_FAULT_PLAN",
    "FAULT_POINTS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "activate",
    "activate_from_env",
    "active_injector",
    "deactivate",
    "fault_active",
    "maybe_fault",
]
