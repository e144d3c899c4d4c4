"""Fault plans: seeded, deterministic descriptions of what to break.

A :class:`FaultPlan` is a JSON-loadable document — a seed plus a list of
:class:`FaultRule`\\ s — that tells the named fault points threaded
through the I/O layers (:data:`FAULT_POINTS`) when to misbehave.  The
same plan file drives unit tests, the CI chaos matrix and local
reproduction of a field failure, because the schedule it produces is a
pure function of ``(seed, rules, consult sequence)``:

* an ``nth`` rule fires on exact consult ordinals of its point
  (1-based), so "crash the first commit" is spelled ``"nth": [1]``;
* a ``probability`` rule draws from a :class:`random.Random` stream
  seeded from ``(seed, rule index, point, kind)`` — re-running the same
  consult sequence replays the identical draws.

Plan document shape::

    {
      "fault_plan_version": 1,
      "seed": 1234,
      "rules": [
        {"point": "fleet.worker.commit", "kind": "crash_before",
         "nth": [1]},
        {"point": "store.save", "kind": "torn_write",
         "probability": 0.2, "params": {"keep_fraction": 0.5}}
      ]
    }

Unknown points, unsupported kinds and malformed triggers are rejected at
load time (:class:`FaultPlanError`) — a chaos tool that silently does
nothing is worse than one that refuses loudly.
"""
from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Plan document schema version; bump when the shape changes.
FAULT_PLAN_VERSION = 1

#: Every named fault point threaded through the code, with the fault
#: kinds its call site implements.  This table is the contract between
#: plans and code: a rule naming anything else is rejected at load time,
#: and the README's resilience table is generated from the same data.
FAULT_POINTS: Dict[str, Tuple[str, ...]] = {
    # core/store.py — ResultStore.save / ResultStore.absorb
    "store.save": ("torn_write", "fsync_error"),
    "store.absorb": ("corrupt",),
    # fleet/worker.py — commit transition and the heartbeat thread
    "fleet.worker.commit": ("crash_before", "crash_after"),
    "fleet.worker.heartbeat": ("stall",),
    # fleet/queue.py — the TTL expiry check
    "fleet.queue.expiry": ("clock_skew",),
    # server/app.py — the HTTP request handler
    "server.handler": ("drop", "delay", "error"),
}


class FaultPlanError(ValueError):
    """A structurally invalid fault plan (unknown point, bad trigger...)."""


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where* (point, kind) and *when* (nth or p)."""

    point: str
    kind: str
    nth: Optional[Tuple[int, ...]] = None
    probability: Optional[float] = None
    params: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        kinds = FAULT_POINTS.get(self.point)
        if kinds is None:
            raise FaultPlanError(
                f"unknown fault point {self.point!r}; known points: "
                f"{', '.join(sorted(FAULT_POINTS))}")
        if self.kind not in kinds:
            raise FaultPlanError(
                f"fault point {self.point!r} does not implement kind "
                f"{self.kind!r}; it implements: {', '.join(kinds)}")
        if (self.nth is None) == (self.probability is None):
            raise FaultPlanError(
                f"rule for {self.point!r}/{self.kind!r} needs exactly one "
                f"trigger: 'nth' (consult ordinals) or 'probability'")
        if self.nth is not None:
            if not self.nth or any(n < 1 for n in self.nth):
                raise FaultPlanError(
                    f"rule for {self.point!r}/{self.kind!r}: 'nth' must be "
                    f"a non-empty list of ordinals >= 1, got {self.nth}")
        if self.probability is not None \
                and not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                f"rule for {self.point!r}/{self.kind!r}: 'probability' "
                f"must be in (0, 1], got {self.probability}")

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "FaultRule":
        if not isinstance(document, dict):
            raise FaultPlanError(f"a rule must be a JSON object, "
                                 f"got {type(document).__name__}")
        unknown = set(document) - {"point", "kind", "nth", "probability",
                                   "params"}
        if unknown:
            raise FaultPlanError(
                f"rule has unknown field(s): {', '.join(sorted(unknown))}")
        point = document.get("point")
        kind = document.get("kind")
        if not isinstance(point, str) or not isinstance(kind, str):
            raise FaultPlanError("a rule needs string 'point' and 'kind'")
        nth = document.get("nth")
        if nth is not None:
            if isinstance(nth, int) and not isinstance(nth, bool):
                nth = (nth,)
            elif isinstance(nth, list) and all(
                    isinstance(n, int) and not isinstance(n, bool)
                    for n in nth):
                nth = tuple(nth)
            else:
                raise FaultPlanError(
                    f"'nth' must be an integer or a list of integers, "
                    f"got {nth!r}")
        probability = document.get("probability")
        if probability is not None:
            if isinstance(probability, bool) \
                    or not isinstance(probability, (int, float)):
                raise FaultPlanError(
                    f"'probability' must be a number, got {probability!r}")
            probability = float(probability)
        params = document.get("params", {})
        if not isinstance(params, dict):
            raise FaultPlanError("'params' must be a JSON object")
        return cls(point=point, kind=kind, nth=nth,
                   probability=probability, params=dict(params))

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {"point": self.point, "kind": self.kind}
        if self.nth is not None:
            document["nth"] = list(self.nth)
        if self.probability is not None:
            document["probability"] = self.probability
        if self.params:
            document["params"] = dict(self.params)
        return document


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seed plus the ordered rules — everything the injector needs."""

    seed: int
    rules: Tuple[FaultRule, ...] = ()
    source: Optional[str] = None  # the file it came from, for reporting

    @classmethod
    def from_dict(cls, document: Dict[str, object],
                  source: Optional[str] = None) -> "FaultPlan":
        if not isinstance(document, dict):
            raise FaultPlanError("a fault plan must be a JSON object")
        version = document.get("fault_plan_version", FAULT_PLAN_VERSION)
        if version != FAULT_PLAN_VERSION:
            raise FaultPlanError(
                f"fault_plan_version {version!r} is not supported "
                f"(expected {FAULT_PLAN_VERSION})")
        seed = document.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise FaultPlanError(f"'seed' must be an integer, got {seed!r}")
        rules = document.get("rules", [])
        if not isinstance(rules, list):
            raise FaultPlanError("'rules' must be a list of rule objects")
        return cls(seed=seed,
                   rules=tuple(FaultRule.from_dict(rule) for rule in rules),
                   source=source)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load and validate a plan file; loud on any problem."""
        try:
            document = json.loads(Path(path).read_text())
        except OSError as error:
            raise FaultPlanError(
                f"cannot read fault plan {path}: {error}") from None
        except ValueError as error:
            raise FaultPlanError(
                f"fault plan {path} is not valid JSON: {error}") from None
        return cls.from_dict(document, source=str(path))

    def to_dict(self) -> Dict[str, object]:
        return {
            "fault_plan_version": FAULT_PLAN_VERSION,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }


@dataclasses.dataclass(frozen=True)
class Fault:
    """One fired fault, handed to the call site to act out."""

    point: str
    kind: str
    params: Dict[str, object]
    occurrence: int  # 1-based consult ordinal of the point


class FaultInjector:
    """Deterministic fault scheduler over one plan.

    Each consult of a point advances that point's 1-based ordinal; rules
    are evaluated in plan order and the first that triggers wins.  A
    ``probability`` rule owns a private :class:`random.Random` seeded
    from ``(plan seed, rule index, point, kind)``, so two injectors built
    from the same plan produce the identical schedule for the identical
    consult sequence — the property the determinism tests pin.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._counters: Dict[str, int] = {}
        self._fired: List[Dict[str, object]] = []
        self._rules: Dict[str, List[Tuple[FaultRule, Optional[random.Random]]]] = {}
        for index, rule in enumerate(plan.rules):
            rng = None
            if rule.probability is not None:
                rng = random.Random(
                    f"{plan.seed}:{index}:{rule.point}:{rule.kind}")
            self._rules.setdefault(rule.point, []).append((rule, rng))

    def check(self, point: str) -> Optional[Fault]:
        """Consult one fault point; the fired :class:`Fault` or ``None``."""
        rules = self._rules.get(point)
        if not rules:
            return None
        ordinal = self._counters.get(point, 0) + 1
        self._counters[point] = ordinal
        for rule, rng in rules:
            if rule.nth is not None:
                fired = ordinal in rule.nth
            else:
                fired = rng.random() < rule.probability  # type: ignore[union-attr]
            if fired:
                fault = Fault(point=point, kind=rule.kind,
                              params=dict(rule.params), occurrence=ordinal)
                self._fired.append({"point": point, "kind": rule.kind,
                                    "occurrence": ordinal})
                return fault
        return None

    def schedule(self) -> List[Dict[str, object]]:
        """Every fault fired so far, in consult order (the chaos log)."""
        return list(self._fired)

    def stats(self) -> Dict[str, object]:
        return {
            "seed": self.plan.seed,
            "source": self.plan.source,
            "rules": len(self.plan.rules),
            "consults": dict(sorted(self._counters.items())),
            "fired": len(self._fired),
            "schedule": self.schedule(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultInjector seed={self.plan.seed} "
                f"rules={len(self.plan.rules)} fired={len(self._fired)}>")
