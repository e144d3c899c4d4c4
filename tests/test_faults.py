"""The fault-injection subsystem: plans, schedules, faulted call sites.

Three layers under test, mirroring the package:

* plan loading — every malformed document is rejected loudly at load
  time, because a chaos tool that silently does nothing reports vacuous
  passes;
* the injector — ``nth`` rules fire on exact consult ordinals,
  ``probability`` rules replay the identical seeded draw stream, and two
  injectors built from the same plan produce the *identical* schedule
  (the determinism property the CI chaos matrix depends on);
* the call sites — a torn write leaves a truncated record that loads as
  a clean miss and is quarantined by ``scrub``, an injected fsync error
  never fails the computation, a corrupted absorb stays a miss, and the
  server handler faults (drop/delay/error) act out on a live server.
"""
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.core.store import ResultStore
from repro.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    activate,
    active_injector,
    deactivate,
    fault_active,
    maybe_fault,
)
from repro.faults.inject import ENV_FAULT_PLAN, activate_from_env
from repro.server import EvalServer, query


@pytest.fixture(autouse=True)
def no_leaked_injector():
    """One test's chaos must never outlive it."""
    deactivate()
    yield
    deactivate()


def make_plan(*rules, seed=7):
    return FaultPlan(seed=seed, rules=tuple(rules))


# --------------------------------------------------------------------------- #
# Plan validation
# --------------------------------------------------------------------------- #
class TestPlanValidation(object):
    def test_unknown_point_is_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault point"):
            FaultRule(point="store.explode", kind="torn_write", nth=(1,))

    def test_unsupported_kind_is_rejected(self):
        with pytest.raises(FaultPlanError, match="does not implement"):
            FaultRule(point="store.save", kind="corrupt", nth=(1,))

    def test_exactly_one_trigger_is_required(self):
        with pytest.raises(FaultPlanError, match="exactly one"):
            FaultRule(point="store.save", kind="torn_write")
        with pytest.raises(FaultPlanError, match="exactly one"):
            FaultRule(point="store.save", kind="torn_write",
                      nth=(1,), probability=0.5)

    def test_trigger_values_are_validated(self):
        with pytest.raises(FaultPlanError, match="nth"):
            FaultRule(point="store.save", kind="torn_write", nth=(0,))
        with pytest.raises(FaultPlanError, match="nth"):
            FaultRule(point="store.save", kind="torn_write", nth=())
        for probability in (0.0, 1.5, -0.1):
            with pytest.raises(FaultPlanError, match="probability"):
                FaultRule(point="store.save", kind="torn_write",
                          probability=probability)

    @pytest.mark.parametrize("document", [
        [],                                     # not an object
        {"fault_plan_version": 99},             # unsupported version
        {"seed": "one"},                        # non-integer seed
        {"seed": True},                         # bool is not a seed
        {"rules": {}},                          # rules not a list
        {"rules": ["nope"]},                    # rule not an object
        {"rules": [{"point": "store.save"}]},   # missing kind
        {"rules": [{"point": "store.save", "kind": "torn_write",
                    "nth": 1, "typo": True}]},  # unknown field
        {"rules": [{"point": "store.save", "kind": "torn_write",
                    "nth": "first"}]},          # malformed nth
        {"rules": [{"point": "store.save", "kind": "torn_write",
                    "probability": "high"}]},   # malformed probability
        {"rules": [{"point": "store.save", "kind": "torn_write",
                    "nth": 1, "params": 3}]},   # params not an object
    ])
    def test_malformed_documents_are_rejected(self, document):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(document)

    def test_load_rejects_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.load(bad)

    def test_document_round_trip(self, tmp_path):
        document = {
            "fault_plan_version": 1,
            "seed": 42,
            "rules": [
                {"point": "fleet.worker.commit", "kind": "crash_before",
                 "nth": [1, 3]},
                {"point": "store.save", "kind": "torn_write",
                 "probability": 0.25, "params": {"keep_fraction": 0.5}},
            ],
        }
        plan = FaultPlan.from_dict(document)
        assert plan.to_dict() == document
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == document
        assert loaded.source == str(path)

    def test_scalar_nth_normalises_to_a_tuple(self):
        plan = FaultPlan.from_dict({"rules": [
            {"point": "server.handler", "kind": "drop", "nth": 2}]})
        assert plan.rules[0].nth == (2,)

    def test_example_plans_in_the_repo_validate(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent \
            / "examples" / "fault_plans"
        plans = sorted(examples.glob("*.json"))
        assert len(plans) >= 3  # the CI chaos matrix
        for path in plans:
            assert FaultPlan.load(path).rules


# --------------------------------------------------------------------------- #
# The injector: schedules
# --------------------------------------------------------------------------- #
class TestInjectorSchedule(object):
    def test_nth_fires_on_exact_ordinals(self):
        plan = make_plan(FaultRule(point="server.handler", kind="drop",
                                   nth=(2, 4)))
        injector = FaultInjector(plan)
        fired = [injector.check("server.handler") is not None
                 for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert [f["occurrence"] for f in injector.schedule()] == [2, 4]

    def test_counters_are_per_point(self):
        plan = make_plan(
            FaultRule(point="server.handler", kind="drop", nth=(1,)),
            FaultRule(point="store.save", kind="torn_write", nth=(2,)))
        injector = FaultInjector(plan)
        assert injector.check("server.handler") is not None
        assert injector.check("store.save") is None     # ordinal 1
        assert injector.check("store.save") is not None  # ordinal 2
        assert injector.stats()["consults"] == {
            "server.handler": 1, "store.save": 2}

    def test_first_matching_rule_wins(self):
        plan = make_plan(
            FaultRule(point="server.handler", kind="drop", nth=(1,)),
            FaultRule(point="server.handler", kind="error", nth=(1,)))
        fault = FaultInjector(plan).check("server.handler")
        assert fault is not None and fault.kind == "drop"

    def test_fault_carries_params_and_occurrence(self):
        plan = make_plan(FaultRule(point="server.handler", kind="delay",
                                   nth=(1,), params={"seconds": 0.5}))
        fault = FaultInjector(plan).check("server.handler")
        assert fault.params == {"seconds": 0.5}
        assert fault.occurrence == 1

    def test_unmentioned_points_never_fire(self):
        injector = FaultInjector(make_plan(
            FaultRule(point="store.save", kind="torn_write", nth=(1,))))
        assert injector.check("server.handler") is None
        # An unmentioned point does not even advance a counter.
        assert injector.stats()["consults"] == {}

    def test_same_plan_same_consults_identical_schedule(self):
        """The determinism contract the CI chaos matrix leans on."""
        plan = make_plan(
            FaultRule(point="store.save", kind="torn_write",
                      probability=0.3),
            FaultRule(point="server.handler", kind="drop",
                      probability=0.5),
            seed=1234)
        consults = (["store.save"] * 50) + (["server.handler"] * 50) \
            + ["store.save", "server.handler"] * 25
        one, two = FaultInjector(plan), FaultInjector(plan)
        for point in consults:
            first, second = one.check(point), two.check(point)
            assert (first is None) == (second is None)
        assert one.schedule() == two.schedule()
        assert one.schedule()  # the streams actually fired something

    def test_different_seeds_differ(self):
        rule = FaultRule(point="store.save", kind="torn_write",
                         probability=0.3)
        schedules = []
        for seed in (1, 2):
            injector = FaultInjector(make_plan(rule, seed=seed))
            for _ in range(100):
                injector.check("store.save")
            schedules.append(injector.schedule())
        assert schedules[0] != schedules[1]

    def test_probability_one_always_fires(self):
        injector = FaultInjector(make_plan(
            FaultRule(point="store.save", kind="fsync_error",
                      probability=1.0)))
        assert all(injector.check("store.save") is not None
                   for _ in range(10))


# --------------------------------------------------------------------------- #
# Activation: process-wide injector, environment inheritance
# --------------------------------------------------------------------------- #
class TestActivation(object):
    def test_inactive_is_a_no_op(self):
        assert fault_active() is False
        assert active_injector() is None
        assert maybe_fault("store.save") is None

    def test_activate_and_deactivate(self):
        plan = make_plan(FaultRule(point="store.save", kind="torn_write",
                                   nth=(1,)))
        injector = activate(plan)
        assert fault_active() is True
        assert active_injector() is injector
        assert maybe_fault("store.save").kind == "torn_write"
        deactivate()
        assert fault_active() is False
        assert maybe_fault("store.save") is None

    def test_activate_from_a_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 3, "rules": [
            {"point": "server.handler", "kind": "drop", "nth": [1]}]}))
        injector = activate(path)
        assert injector.plan.seed == 3
        assert injector.plan.source == str(path)

    def test_export_env_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 9, "rules": []}))
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        activate(str(path), export_env=True)
        assert os.environ[ENV_FAULT_PLAN] == str(path)
        deactivate()
        assert os.environ.get(ENV_FAULT_PLAN) is None
        # A spawned child re-activates from the inherited variable.
        monkeypatch.setenv(ENV_FAULT_PLAN, str(path))
        injector = activate_from_env()
        assert injector is not None and injector.plan.seed == 9

    def test_export_env_requires_a_file_backed_plan(self):
        with pytest.raises(ValueError, match="file-backed"):
            activate(make_plan(), export_env=True)

    def test_activate_from_env_is_silent_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert activate_from_env() is None

    def test_fault_points_registry_names_real_call_sites(self):
        # The README resilience table and the plans are written against
        # this registry; pin its shape so drift is loud.
        assert set(FAULT_POINTS) == {
            "store.save", "store.absorb", "fleet.worker.commit",
            "fleet.worker.heartbeat", "fleet.queue.expiry",
            "server.handler"}


# --------------------------------------------------------------------------- #
# Faulted call sites: store
# --------------------------------------------------------------------------- #
class TestStoreFaults(object):
    def test_torn_write_is_a_clean_miss_then_quarantined(self, tmp_path):
        activate(make_plan(FaultRule(
            point="store.save", kind="torn_write", nth=(1,),
            params={"keep_fraction": 0.5})))
        store = ResultStore(tmp_path / "store")
        assert store.save("sweep", {"x": 1}, {"value": 1}) is None
        # The torn record exists under the final name but loads as a miss.
        assert store.entry_count("sweep") == 1
        assert store.load("sweep", {"x": 1}) is None
        deactivate()
        report = store.scrub()
        assert report["scanned"] == 1
        assert report["corrupt"] == 1
        assert report["quarantined"] == 1
        assert store.entry_count("sweep") == 0
        # An unfaulted save then heals the store.
        assert store.save("sweep", {"x": 1}, {"value": 1}) is not None
        assert store.load("sweep", {"x": 1}) == {"value": 1}

    def test_fsync_error_never_fails_the_computation(self, tmp_path):
        activate(make_plan(FaultRule(
            point="store.save", kind="fsync_error", nth=(1,))))
        store = ResultStore(tmp_path / "store")
        assert store.save("sweep", {"x": 1}, {"value": 1}) is None
        assert store.entry_count() == 0  # nothing half-written left behind
        assert store.save("sweep", {"x": 1}, {"value": 1}) is not None

    def test_corrupted_absorb_is_a_miss_not_a_crash(self, tmp_path):
        source = ResultStore(tmp_path / "source")
        source.save("sweep", {"x": 1}, {"value": 1})
        activate(make_plan(FaultRule(
            point="store.absorb", kind="corrupt", nth=(1,))))
        target = ResultStore(tmp_path / "target")
        target.absorb(source)
        assert target.load("sweep", {"x": 1}) is None
        deactivate()
        assert target.scrub()["quarantined"] == 1
        # Re-absorbing unfaulted copies the healthy record back in.
        target.absorb(source)
        assert target.load("sweep", {"x": 1}) == {"value": 1}


# --------------------------------------------------------------------------- #
# Faulted call sites: the server handler
# --------------------------------------------------------------------------- #
class TestServerFaults(object):
    def test_drop_then_recovery_via_client_retries(self):
        activate(make_plan(FaultRule(
            point="server.handler", kind="drop", nth=(1,))))
        with EvalServer() as server:
            # The first request's connection is dropped mid-flight; the
            # client's transport retry turns it into a served answer.
            envelope = query(server.url, "status", retries=3,
                             retry_base_delay=0.01)
            assert envelope["status"] == "ok"

    def test_drop_without_retries_raises_server_unavailable(self):
        from repro.server import ServerUnavailable

        activate(make_plan(FaultRule(
            point="server.handler", kind="drop", probability=1.0)))
        with EvalServer() as server:
            with pytest.raises(ServerUnavailable):
                query(server.url, "status", retries=0)

    def test_injected_error_is_a_500_envelope(self):
        activate(make_plan(FaultRule(
            point="server.handler", kind="error", nth=(1,))))
        with EvalServer() as server:
            request = urllib.request.Request(
                server.url + "/",
                data=b'{"action": "status"}', method="POST")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 500
            body = json.loads(caught.value.read())
            assert body["status"] == "error"
            assert "injected" in body["message"]
            # The next request is healthy.
            assert query(server.url, "status",
                         retries=0)["status"] == "ok"

    def test_delay_slows_but_answers(self):
        activate(make_plan(FaultRule(
            point="server.handler", kind="delay", nth=(1,),
            params={"seconds": 0.05})))
        with EvalServer() as server:
            assert query(server.url, "status",
                         retries=0)["status"] == "ok"
