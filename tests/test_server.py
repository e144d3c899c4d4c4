"""The evaluation server: protocol contract, batching, cache warmth.

Three layers under test, mirroring the package:

* the wire protocol (`parse_request`, envelopes, stable error codes and
  their HTTP status mapping) — pure functions, no sockets;
* the dispatcher over one `ServerState` — every action's ok/error envelope,
  parameter validation, counters;
* the real `EvalServer` over HTTP — end-to-end queries, concurrent
  `evaluate` calls asserted bit-identical to direct single-threaded
  `Study` runs, and the warm path (second identical query is a store hit).
"""
import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.results import _jsonify
from repro.core.store import ResultStore
from repro.core.study import Study
from repro.server import (
    BatchQueue,
    EvalServer,
    ProtocolError,
    ServerState,
    dispatch,
    error_envelope,
    ok_envelope,
    parse_request,
    query,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_INVALID_PARAMS,
    ERROR_UNKNOWN_ACTION,
    http_status,
)

#: A deliberately tiny workload: every server test sweeps real operators.
WORKLOAD = {"workload": "fft", "config": {"size": 16, "frames": 2}}


def wire(row):
    """A result row exactly as the JSON transport delivers it."""
    return json.loads(json.dumps(row, default=_jsonify))


# --------------------------------------------------------------------------- #
# Protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_parse_request_round_trip(self):
        action, params = parse_request(
            b'{"action": "evaluate", "params": {"workload": "fft"}}')
        assert action == "evaluate"
        assert params == {"workload": "fft"}

    def test_parse_request_defaults_params_to_empty(self):
        assert parse_request(b'{"action": "status"}') == ("status", {})

    @pytest.mark.parametrize("body", [
        b"", b"not json", b"[1, 2]", b'"string"',
        b'{"params": {}}',                    # missing action
        b'{"action": 7}',                     # non-string action
        b'{"action": ""}',                    # empty action
        b'{"action": "x", "params": [1]}',    # non-object params
        b"\xff\xfe",                          # not UTF-8
    ])
    def test_parse_request_rejects_malformed_documents(self, body):
        with pytest.raises(ProtocolError) as caught:
            parse_request(body)
        assert caught.value.code == ERROR_BAD_REQUEST

    def test_envelopes_and_http_status(self):
        ok = ok_envelope("status", {"x": 1})
        assert ok == {"status": "ok", "action": "status", "result": {"x": 1}}
        assert http_status(ok) == 200
        assert http_status(error_envelope(ERROR_BAD_REQUEST, "m")) == 400
        assert http_status(error_envelope(ERROR_INVALID_PARAMS, "m")) == 400
        assert http_status(error_envelope(ERROR_UNKNOWN_ACTION, "m")) == 404
        assert http_status(error_envelope(ERROR_INTERNAL, "m")) == 500
        assert http_status(error_envelope("never-heard-of-it", "m")) == 500

    def test_error_envelope_carries_the_action_when_known(self):
        envelope = ProtocolError(ERROR_INVALID_PARAMS, "bad").envelope(
            action="evaluate")
        assert envelope["action"] == "evaluate"
        assert envelope["code"] == ERROR_INVALID_PARAMS
        assert envelope["status"] == "error"


# --------------------------------------------------------------------------- #
# Batching
# --------------------------------------------------------------------------- #
def _wait_until(condition, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _submit_in_threads(queue, group, items, execute):
    """Submit each item from its own thread; returns the threads (started)
    and the ``{thread index: result or exception}`` they fill in."""
    outcomes = {}

    def submit(index, item):
        try:
            outcomes[index] = queue.submit(group, item, execute)
        except Exception as error:  # noqa: BLE001 - recorded for asserts
            outcomes[index] = error

    threads = [threading.Thread(target=submit, args=(index, item))
               for index, item in enumerate(items)]
    for thread in threads:
        thread.start()
    return threads, outcomes


def _join(threads, timeout=30.0):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "a submitting thread never returned"


def _members(queue, group, item):
    """Requests waiting on the batch that holds ``item`` (0 if none)."""
    with queue._lock:
        pending = queue._pending.get((group, item))
        return pending[0].members if pending is not None else 0


class TestBatchQueue:
    def test_single_submit_executes_alone(self):
        queue = BatchQueue()
        result = queue.submit("g", 3, lambda items: [item * 2
                                                     for item in items])
        assert result == 6
        assert queue.stats()["batches"] == 1
        assert queue.stats()["coalesced"] == 0

    def test_a_lone_submit_with_a_free_slot_never_sleeps(self, monkeypatch):
        import time

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        state = ServerState(workers=1)
        result = state.batcher.submit("g", 3, lambda items: [item * 2
                                                             for item in items])
        assert result == 6
        assert state.batcher.stats() == {"batches": 1, "requests": 1,
                                         "largest_batch": 1, "coalesced": 0}

    def test_concurrent_submits_coalesce_into_one_execution(self):
        state = ServerState(workers=1)
        queue = state.batcher
        executions = []

        def execute(items):
            executions.append(list(items))
            return [item * 10 for item in items]

        assert state._slots.acquire(timeout=1)  # hold the only slot
        try:
            threads, results = _submit_in_threads(queue, "g", range(5),
                                                  execute)
            _wait_until(lambda: all(_members(queue, "g", item)
                                    for item in range(5)))
        finally:
            state._slots.release()
        _join(threads)
        assert len(executions) == 1
        assert sorted(executions[0]) == [0, 1, 2, 3, 4]
        assert results == {i: i * 10 for i in range(5)}
        stats = queue.stats()
        assert stats["batches"] == 1
        assert stats["requests"] == 5
        assert stats["largest_batch"] == 5
        assert stats["coalesced"] == 4

    def test_a_repeated_item_is_executed_once(self):
        state = ServerState(workers=1)
        executions = []

        def execute(items):
            executions.append(list(items))
            return [item * 10 for item in items]

        assert state._slots.acquire(timeout=1)
        try:
            threads, results = _submit_in_threads(state.batcher, "g",
                                                  [1, 2, 1], execute)
            _wait_until(lambda: _members(state.batcher, "g", 1) == 3)
        finally:
            state._slots.release()
        _join(threads)
        assert executions == [[1, 2]] or executions == [[2, 1]]
        assert results == {0: 10, 1: 20, 2: 10}
        assert state.batcher.stats()["requests"] == 3

    def test_a_submit_during_execution_shares_its_result(self):
        queue = BatchQueue()
        running, release = threading.Event(), threading.Event()
        executions = []

        def execute(items):
            executions.append(list(items))
            running.set()
            assert release.wait(timeout=10)
            return [object() for _ in items]

        leader, results = _submit_in_threads(queue, "g", ["point"], execute)
        assert running.wait(timeout=10)
        follower, shared = _submit_in_threads(queue, "g", ["point"], execute)
        _wait_until(lambda: _members(queue, "g", "point") == 2)
        release.set()
        _join(leader + follower)
        assert executions == [["point"]]
        assert shared[0] is results[0]
        assert queue.stats()["coalesced"] == 1

    def test_a_shed_leader_fails_every_follower_with_overloaded(self):
        from repro.server.protocol import ERROR_OVERLOADED

        state = ServerState(workers=1, deadline_s=1.0)
        executions = []
        assert state._slots.acquire(timeout=1)
        try:
            threads, outcomes = _submit_in_threads(
                state.batcher, "g", [1, 2, 1], executions.append)
            _wait_until(lambda: _members(state.batcher, "g", 1) == 3)
            _join(threads)
        finally:
            state._slots.release()
        assert executions == []
        assert len(outcomes) == 3
        errors = list(outcomes.values())
        assert all(isinstance(error, ProtocolError) for error in errors)
        assert {error.code for error in errors} == {ERROR_OVERLOADED}
        assert state.snapshot()["shed"] == 1
        # The refused batch is closed: the next submit computes.
        assert state.batcher.submit("g", 1, lambda items: items) == 1

    def test_stress_every_submit_gets_its_own_result(self):
        import sys

        state = ServerState(workers=2)
        executed = []

        def execute(items):
            executed.append(len(items))
            return [item * 10 for item in items]

        def client(seed):
            for round_ in range(200):
                item = (seed * 7 + round_) % 5
                assert state.batcher.submit(round_ % 3, item, execute) \
                    == item * 10

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            _join(threads, timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        stats = state.batcher.stats()
        assert stats["requests"] == 8 * 200
        assert stats["batches"] == len(executed)
        assert not state.batcher._open and not state.batcher._pending

    def test_different_groups_do_not_coalesce(self):
        queue = BatchQueue()
        queue.submit("a", 1, lambda items: items)
        queue.submit("b", 2, lambda items: items)
        assert queue.stats()["batches"] == 2

    def test_executor_failure_propagates_to_every_member(self):
        queue = BatchQueue()
        running, release = threading.Event(), threading.Event()

        def boom(items):
            running.set()
            assert release.wait(timeout=10)
            raise RuntimeError("sweep exploded")

        leader, failures = _submit_in_threads(queue, "g", [0], boom)
        assert running.wait(timeout=10)
        followers, more = _submit_in_threads(queue, "g", [0, 0], boom)
        _wait_until(lambda: _members(queue, "g", 0) == 3)
        release.set()
        _join(leader + followers)
        failures = list(failures.values()) + list(more.values())
        assert [str(error) for error in failures] == ["sweep exploded"] * 3

    def test_wrong_result_count_is_an_error(self):
        queue = BatchQueue()
        with pytest.raises(RuntimeError, match="2 results for 1 items"):
            queue.submit("g", 0, lambda items: [1, 2])


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #
@pytest.fixture()
def computed(monkeypatch):
    """The swept operator of every sweep point computed, in order."""
    from repro.core import study as study_module

    names = []
    execute_points = study_module._execute_points

    def counting_execute_points(tasks):
        names.extend(task[1].swept.name for task in tasks)
        return execute_points(tasks)

    monkeypatch.setattr(study_module, "_execute_points",
                        counting_execute_points)
    return names


@pytest.fixture()
def counting_store(monkeypatch):
    """The record kinds of every ``ResultStore.load_key`` / ``save_key``
    call, in order."""
    calls = {"load": [], "save": []}
    load_key, save_key = ResultStore.load_key, ResultStore.save_key

    def counting_load_key(store, record):
        calls["load"].append(record.kind)
        return load_key(store, record)

    def counting_save_key(store, record, payload):
        calls["save"].append(record.kind)
        return save_key(store, record, payload)

    monkeypatch.setattr(ResultStore, "load_key", counting_load_key)
    monkeypatch.setattr(ResultStore, "save_key", counting_save_key)
    return calls


class TestDispatch:
    @pytest.fixture()
    def state(self):
        return ServerState()

    def test_unknown_action_envelope(self, state):
        envelope = dispatch(state, "frobnicate", {})
        assert envelope["status"] == "error"
        assert envelope["code"] == ERROR_UNKNOWN_ACTION
        assert "frobnicate" in envelope["message"]
        assert "evaluate" in envelope["message"]  # lists the known actions

    def test_invalid_params_envelopes(self, state):
        missing = dispatch(state, "evaluate", {})
        assert missing["code"] == ERROR_INVALID_PARAMS
        bad_workload = dispatch(state, "evaluate",
                                {"workload": "no_such", "adder": "ADD(16)"})
        assert bad_workload["code"] == ERROR_INVALID_PARAMS
        bad_operator = dispatch(state, "evaluate",
                                dict(WORKLOAD, adder="FROB(16)"))
        assert bad_operator["code"] == ERROR_INVALID_PARAMS
        bad_axis = dispatch(state, "evaluate",
                            dict(WORKLOAD, operator="ADD(16)", axis="nope"))
        assert bad_axis["code"] == ERROR_INVALID_PARAMS
        ambiguous = dispatch(state, "evaluate",
                             dict(WORKLOAD, adder="ADD(16)",
                                  multiplier="MUL(8)"))
        assert ambiguous["code"] == ERROR_INVALID_PARAMS

    def test_evaluate_matches_direct_study_run(self, state):
        envelope = dispatch(state, "evaluate",
                            dict(WORKLOAD, adder="ACA(16,8)", energy=False))
        assert envelope["status"] == "ok"
        direct = (Study().workload("fft", size=16, frames=2)
                  .adders(["ACA(16,8)"]).seed(0).run())
        assert envelope["result"]["row"] == wire(direct.rows[0])
        assert envelope["result"]["cached"] is False

    def test_evaluate_sugar_is_equivalent_to_operator_axis(self, state):
        sugar = dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        explicit = dispatch(state, "evaluate",
                            dict(WORKLOAD, operator="ADD(16)", axis="adder"))
        assert sugar["result"]["row"] == explicit["result"]["row"]

    def test_pareto_front_over_a_described_space(self, state):
        envelope = dispatch(state, "pareto", dict(
            WORKLOAD, quality="psnr_db",
            space={"kind": "approximate_adder", "width": 16,
                   "reduced": True}))
        assert envelope["status"] == "ok"
        result = envelope["result"]
        assert result["sweep_points"] > 0
        assert result["rows"] == result["sweep_points"]
        assert result["front"]["points"]
        assert result["front"]["quality"] == "psnr_db"

    def test_pareto_space_validation(self, state):
        base = dict(WORKLOAD, quality="psnr_db")
        for space in (None, "joint", {"kind": "no_such"},
                      {"kind": "operators", "specs": []},
                      {"kind": "operators", "specs": [7]},
                      {"kind": "joint_adder", "width": "wide"},
                      {"kind": "joint_adder", "word_lengths": "all"}):
            envelope = dispatch(state, "pareto", dict(base, space=space))
            assert envelope["code"] == ERROR_INVALID_PARAMS, space

    def test_pareto_explicit_operator_specs(self, state):
        envelope = dispatch(state, "pareto", dict(
            WORKLOAD, quality="psnr_db",
            space={"kind": "operators",
                   "specs": ["ADD(16)", "ACA(16,8)", "ETAII(16,4)"]}))
        assert envelope["status"] == "ok"
        assert envelope["result"]["sweep_points"] == 3

    def test_experiments_lists_registry_and_capabilities(self, state):
        envelope = dispatch(state, "experiments", {})
        assert envelope["status"] == "ok"
        result = envelope["result"]
        names = [entry["name"] for entry in result["experiments"]]
        assert "fft_joint_frontier" in names
        assert "fft" in result["workloads"]
        assert result["backends"] == ["direct"]
        assert "aca" in result["operators"]
        details = result["operator_details"]
        assert set(details) == set(result["operators"])
        assert details["aca"]["role"] == "adder"
        assert details["aam"]["role"] == "multiplier"
        assert details["aca"]["factory"] == "ACAAdder"
        assert details["aca"]["summary"]
        filtered = dispatch(state, "experiments", {"ablations": False})
        assert all(not entry["ablation"]
                   for entry in filtered["result"]["experiments"])

    def test_status_reports_counters_and_caches(self, state):
        dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        dispatch(state, "frobnicate", {})
        envelope = dispatch(state, "status", {})
        assert envelope["status"] == "ok"
        result = envelope["result"]
        assert result["uptime_s"] >= 0
        assert result["requests"]["evaluate"] == 1
        assert result["requests"]["frobnicate"] == 1
        assert result["errors"][ERROR_UNKNOWN_ACTION] == 1
        assert result["in_flight"] == 1  # the status request itself
        assert result["table_cache"]["arena"]["attaches"] == 0
        assert result["batching"]["requests"] == 1
        assert result["store"] is None
        assert result["hardware_cache"]["reports"] >= 1

    def test_store_backed_state_reports_and_hits(self, tmp_path):
        state = ServerState(store=str(tmp_path / "store"))
        cold = dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        assert cold["result"]["cached"] is False
        warm = dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        assert warm["result"]["cached"] is True
        assert warm["result"]["row"] == cold["result"]["row"]
        status = dispatch(state, "status", {})["result"]
        assert status["store"]["records"] > 0
        assert status["store"]["hits"] > 0

    def test_warm_evaluate_reads_its_sweep_record_once(self, tmp_path,
                                                       counting_store):
        state = ServerState(store=str(tmp_path / "store"))
        params = dict(WORKLOAD, adder="ACA(16,8)")
        cold = dispatch(state, "evaluate", params)
        assert cold["result"]["cached"] is False

        counting_store["load"].clear()
        warm = dispatch(state, "evaluate", params)
        assert warm["result"]["cached"] is True
        assert counting_store["load"].count("sweep") == 1
        assert warm["result"]["row"] == cold["result"]["row"]

    def test_cold_evaluate_reads_its_sweep_record_once(self, tmp_path,
                                                       counting_store):
        state = ServerState(store=str(tmp_path / "store"))
        cold = dispatch(state, "evaluate", dict(WORKLOAD, adder="ACA(16,8)"))
        assert cold["result"]["cached"] is False
        assert counting_store["load"].count("sweep") == 1
        assert counting_store["save"].count("sweep") == 1

    def test_concurrent_cold_evaluates_of_one_point_compute_it_once(
            self, tmp_path, counting_store):
        state = ServerState(store=str(tmp_path / "store"), workers=1)
        params = dict(WORKLOAD, adder="ACA(16,8)")
        envelopes = []

        def evaluate():
            envelopes.append(dispatch(state, "evaluate", params))

        assert state._slots.acquire(timeout=1)  # both probe, then queue
        try:
            threads = [threading.Thread(target=evaluate) for _ in range(2)]
            for thread in threads:
                thread.start()
            _wait_until(lambda: state.batcher._pending and all(
                batch.members == 2
                for batch, _ in state.batcher._pending.values()))
        finally:
            state._slots.release()
        _join(threads)
        assert [envelope["status"] for envelope in envelopes] == ["ok"] * 2
        assert [envelope["result"]["cached"] for envelope in envelopes] \
            == [False, False]
        assert envelopes[0]["result"]["row"] == envelopes[1]["result"]["row"]
        assert counting_store["save"].count("sweep") == 1
        assert counting_store["load"].count("sweep") == 2  # one per probe

    def test_a_point_recorded_since_its_probe_is_read_not_recomputed(
            self, tmp_path, computed):
        from repro.server.dispatch import (_ColdPoint, _evaluate_study,
                                           _run_cold)

        state = ServerState(store=str(tmp_path / "store"))
        params = dict(WORKLOAD, operator="ACA(16,8)", axis="adder")
        # A request's probe misses just before another batch records the
        # point and leaves the queue; its own batch then opens.
        (key, payload), = _evaluate_study(state, params,
                                          ["ACA(16,8)"]).probe()
        assert payload is None
        cold = dispatch(state, "evaluate", params)
        assert computed == ["ACA(16,8)"]
        rows = _run_cold(state, params, [_ColdPoint("ACA(16,8)", key)])
        assert computed == ["ACA(16,8)"]
        assert wire(rows[0]) == cold["result"]["row"]

    def test_a_mixed_stream_computes_each_point_once(self, tmp_path,
                                                     computed):
        import random

        state = ServerState(store=str(tmp_path / "store"))
        points = [(adder, seed) for seed in (1, 2)
                  for adder in ("ADD(16)", "ADDt(16,12)", "ACA(16,8)",
                                "ETAII(16,4)")]
        rng = random.Random(0)
        streams = [[rng.choice(points) for _ in range(40)] for _ in range(2)]
        replies = []

        def client(stream):
            for adder, seed in stream:
                replies.append(((adder, seed), dispatch(
                    state, "evaluate",
                    dict(WORKLOAD, adder=adder, seed=seed, energy=False))))

        threads = [threading.Thread(target=client, args=(stream,))
                   for stream in streams]
        for thread in threads:
            thread.start()
        _join(threads)
        asked = {point for stream in streams for point in stream}
        assert len(computed) == len(asked)
        rows = {}
        for point, envelope in replies:
            assert envelope["status"] == "ok", envelope
            assert rows.setdefault(point, envelope["result"]["row"]) \
                == envelope["result"]["row"]

    def test_worker_count_is_validated(self):
        with pytest.raises(ValueError):
            ServerState(workers=0)


# --------------------------------------------------------------------------- #
# End to end over HTTP
# --------------------------------------------------------------------------- #
class TestEvalServer:
    def test_http_round_trip_and_error_statuses(self):
        with EvalServer() as server:
            envelope = query(server.url, "status")
            assert envelope["status"] == "ok"

            # Malformed JSON body -> 400 bad_request envelope.
            request = urllib.request.Request(
                server.url + "/", data=b"{nope", method="POST")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 400
            body = json.loads(caught.value.read())
            assert body["code"] == ERROR_BAD_REQUEST

            # Unknown action -> 404 (and the client surfaces the envelope).
            envelope = query(server.url, "frobnicate")
            assert envelope["code"] == ERROR_UNKNOWN_ACTION

            # GET /status and /health answer without a request document.
            for path in ("/status", "/health"):
                with urllib.request.urlopen(server.url + path,
                                            timeout=10) as response:
                    assert response.status == 200
                    document = json.loads(response.read())
                assert document["status"] == "ok"
                assert document["action"] == "status"

            # Any other endpoint is a 400 with an envelope, not a stack dump.
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(server.url + "/nope", timeout=10)
            assert caught.value.code == 400
            assert json.loads(caught.value.read())["code"] == \
                ERROR_BAD_REQUEST

    def test_http_0_9_get_status_gets_the_bare_body(self):
        import socket

        with EvalServer() as server:
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as raw:
                raw.sendall(b"GET /status\r\n\r\n")  # no version, no headers
                received = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    received += chunk
        # HTTP/0.9 has no status line and no headers: the body alone.
        document = json.loads(received)
        assert document["status"] == "ok"
        assert document["action"] == "status"

    def test_concurrent_evaluates_are_bit_identical_to_direct_runs(
            self, tmp_path):
        operators = ["ADD(16)", "ACA(16,8)", "ACA(16,4)", "ETAII(16,4)",
                     "ETAIV(16,4)", "ADDt(16,12)"]
        direct = (Study().workload("fft", size=16, frames=2)
                  .adders(operators).seed(0).run())
        expected = {operator: wire(row)
                    for operator, row in zip(operators, direct.rows)}

        with EvalServer(store=str(tmp_path / "store"),
                        workers=2) as server:
            envelopes = {}

            def hit(operator):
                envelopes[operator] = query(
                    server.url, "evaluate",
                    dict(WORKLOAD, adder=operator, energy=False))

            threads = [threading.Thread(target=hit, args=(operator,))
                       for operator in operators]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for operator in operators:
                envelope = envelopes[operator]
                assert envelope["status"] == "ok", envelope
                assert envelope["result"]["row"] == expected[operator], \
                    operator
            batching = query(server.url, "status")["result"]["batching"]
            assert batching["requests"] == len(operators)

    def test_second_identical_query_is_a_warm_store_hit(self, tmp_path):
        with EvalServer(store=str(tmp_path / "store")) as server:
            params = dict(WORKLOAD, adder="ADD(16)")
            cold = query(server.url, "evaluate", params)
            assert cold["result"]["cached"] is False
            warm = query(server.url, "evaluate", params)
            assert warm["result"]["cached"] is True
            assert warm["result"]["row"] == cold["result"]["row"]
            store = query(server.url, "status")["result"]["store"]
            assert store["hits"] >= 1
            assert store["records"] >= 1

    def test_state_options_and_explicit_state_are_exclusive(self):
        with pytest.raises(ValueError):
            EvalServer(state=ServerState(), workers=2)

    def test_port_zero_binds_an_ephemeral_port(self):
        with EvalServer() as server:
            assert server.port > 0
            assert str(server.port) in server.url


# --------------------------------------------------------------------------- #
# Persistent client connections
# --------------------------------------------------------------------------- #
@pytest.fixture()
def connects(monkeypatch):
    """Every ``HTTPConnection`` that dials, in order (one entry per TCP
    connect the client makes)."""
    dialled = []
    connect = http.client.HTTPConnection.connect

    def counting_connect(connection):
        dialled.append(connection)
        return connect(connection)

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        counting_connect)
    return dialled


class TestPersistentConnections:
    def test_one_thread_streams_over_one_connection(self, connects):
        with EvalServer() as server:
            for _ in range(50):
                assert query(server.url, "status")["status"] == "ok"
            assert len(connects) == 1
            assert query(server.url, "status")["result"]["requests"] \
                == {"status": 51}

    def test_two_threads_use_two_connections(self, connects):
        with EvalServer() as server:
            barrier = threading.Barrier(2)
            answers = []

            def stream():
                barrier.wait()
                for _ in range(5):
                    answers.append(query(server.url, "status")["status"])

            threads = [threading.Thread(target=stream) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert answers == ["ok"] * 10
            assert len(connects) == 2
            # Each thread's connection closed when the thread ended.
            assert all(connection.sock is None for connection in connects)

    def test_each_response_leaves_in_one_write(self, monkeypatch):
        import socketserver

        writes = []
        write = socketserver._SocketWriter.write

        def counting_write(writer, data):
            writes.append(len(data))
            return write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            counting_write)
        with EvalServer() as server:
            for action in ("status", "experiments", "frobnicate"):
                query(server.url, action)
        assert len(writes) == 3

    def test_cached_connection_redials_a_restarted_server(self, connects):
        first = EvalServer().start()
        port = first.port
        try:
            assert query(first.url, "status")["status"] == "ok"
        finally:
            first.stop()
        with EvalServer(port=port) as second:
            # The kept connection was hung up by stop(); the one re-dial
            # is not a retry, so retries=0 still gets the answer.
            envelope = query(second.url, "status", retries=0)
            assert envelope["status"] == "ok"
            assert envelope["result"]["requests"] == {"status": 1}
        assert len(connects) == 2

    def test_drop_fault_over_a_kept_connection_reaches_the_retry_loop(
            self, connects):
        from repro.faults import FaultPlan, FaultRule, activate, deactivate
        from repro.server import ServerUnavailable

        def drops(*nth):
            return FaultPlan(seed=0, rules=(FaultRule(
                point="server.handler", kind="drop", nth=nth),))

        with EvalServer() as server:
            try:
                # The kept connection and its re-dial are both dropped:
                # the failure is the retry loop's, which retries=0 ends...
                assert query(server.url, "status")["status"] == "ok"
                activate(drops(1, 2))
                with pytest.raises(ServerUnavailable):
                    query(server.url, "status", retries=0)
                deactivate()
                assert len(connects) == 2
                # ...and which retries=1 turns into an answer.
                assert query(server.url, "status")["status"] == "ok"
                activate(drops(1, 2))
                envelope = query(server.url, "status", retries=1,
                                 retry_base_delay=0.01)
                assert envelope["status"] == "ok"
            finally:
                deactivate()
        assert len(connects) == 5

    def test_no_client_socket_is_left_open_at_exit(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # Connections of an ended thread, of a stopped server and of the
        # main thread at exit: each is closed, never garbage-collected.
        script = "\n".join([
            "import threading",
            "from repro.server import EvalServer, query",
            "server = EvalServer().start()",
            "query(server.url, 'status')",
            "worker = threading.Thread(",
            "    target=lambda: query(server.url, 'status'))",
            "worker.start(); worker.join()",
            "other = EvalServer().start()",
            "query(other.url, 'status')",
            "other.stop(); server.stop()",
        ])
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-W", "always::ResourceWarning", "-c", script],
            env=env, capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert "ResourceWarning" not in completed.stderr

    def test_503_keeps_its_retry_after_floor_over_a_kept_connection(
            self, connects, monkeypatch):
        import time as time_module
        from types import SimpleNamespace

        from repro.server import client
        from repro.server.protocol import ERROR_OVERLOADED

        sleeps = []
        monkeypatch.setattr(client, "time", SimpleNamespace(
            monotonic=time_module.monotonic, sleep=sleeps.append))
        with EvalServer(workers=1,
                        deadline_s=0.05) as server:
            assert query(server.url, "status")["status"] == "ok"
            assert server.state._slots.acquire(timeout=1)
            try:
                envelope = query(server.url, "evaluate",
                                 dict(WORKLOAD, adder="ADD(16)"),
                                 retries=1, retry_base_delay=0.01)
            finally:
                server.state._slots.release()
        assert envelope["code"] == ERROR_OVERLOADED
        assert sleeps and sleeps[0] >= 1.0  # the Retry-After floor
        assert len(connects) == 1


# --------------------------------------------------------------------------- #
# Load shedding and graceful drain
# --------------------------------------------------------------------------- #
class TestLoadSheddingAndDrain:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ServerState(deadline_s=0)

    def test_worker_slot_sheds_when_no_slot_frees_in_time(self):
        from repro.server.protocol import ERROR_OVERLOADED

        state = ServerState(workers=1, deadline_s=0.05)
        assert state._slots.acquire(timeout=1)  # hog the only slot
        try:
            with pytest.raises(ProtocolError) as caught:
                with state.worker_slot():
                    pass  # pragma: no cover - never admitted
            assert caught.value.code == ERROR_OVERLOADED
            envelope = caught.value.envelope()
            assert envelope["retry_after_s"] > 0
            assert state.snapshot()["shed"] == 1
        finally:
            state._slots.release()
        # With the slot free the same state admits work again.
        with state.worker_slot():
            pass
        assert state.snapshot()["shed"] == 1

    def test_http_503_retry_after_and_client_fallback(self, tmp_path):
        from repro.server.protocol import ERROR_OVERLOADED

        with EvalServer(workers=1,
                        deadline_s=0.05) as server:
            assert server.state._slots.acquire(timeout=1)
            try:
                params = dict(WORKLOAD, adder="ADD(16)", energy=False)
                body = json.dumps({"action": "evaluate",
                                   "params": params}).encode()
                request = urllib.request.Request(
                    server.url + "/", data=body, method="POST")
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request, timeout=10)
                assert caught.value.code == 503
                assert int(caught.value.headers["Retry-After"]) >= 1
                document = json.loads(caught.value.read())
                assert document["code"] == ERROR_OVERLOADED

                # The client retries, honours the floor until the retry
                # deadline refuses it, then returns the envelope as the
                # answer instead of raising.
                envelope = query(server.url, "evaluate", params,
                                 retries=1, retry_base_delay=0.01,
                                 retry_deadline_s=0.3)
                assert envelope["status"] == "error"
                assert envelope["code"] == ERROR_OVERLOADED

                # `status` does not need a compute slot: it still answers
                # (that is what makes shedding observable).
                status = query(server.url, "status")["result"]
                assert status["shed"] >= 2
            finally:
                server.state._slots.release()

            # Slot free again: the same request is served.
            envelope = query(server.url, "evaluate", params,
                             retries=2, retry_base_delay=0.05)
            assert envelope["status"] == "ok"

    def test_drain_finishes_in_flight_and_refuses_new(self):
        from repro.server import ServerUnavailable

        server = EvalServer().start()
        url = server.url
        assert query(url, "status")["status"] == "ok"
        remaining = server.drain(grace_s=5.0)
        assert remaining == 0
        with pytest.raises(ServerUnavailable):
            query(url, "status", retries=0, timeout=2)
        server.stop()  # idempotent after a drain

    def test_drain_waits_for_a_slow_request(self):
        import time as time_module

        done = {}
        state = ServerState()
        server = EvalServer(state=state).start()

        def slow_query():
            # A genuinely slow request: a cold evaluate pays LUT
            # construction, holding the request in flight while the
            # drain below runs.
            done["envelope"] = query(
                server.url, "evaluate",
                dict(WORKLOAD, adder="ACA(16,4)", energy=False),
                timeout=60)

        worker = threading.Thread(target=slow_query)
        worker.start()
        waited = 0.0
        while not state.snapshot()["in_flight"] and waited < 5.0:
            time_module.sleep(0.005)
            waited += 0.005
        remaining = server.drain(grace_s=30.0)
        worker.join(timeout=30)
        assert remaining == 0
        assert done["envelope"]["status"] == "ok"

    def test_a_hung_up_idle_connection_cannot_start_a_request(self):
        import socket

        server = EvalServer()  # never started
        httpd = server._httpd
        ours, theirs = socket.socketpair()
        try:
            assert httpd.mark_idle(ours)
            httpd.close_idle()
            # A request line read just after the hang-up is refused...
            assert not httpd.mark_busy(ours)
            assert httpd.busy() == 0
            # ...the connection is never kept again, and the peer saw EOF.
            assert not httpd.mark_idle(ours)
            assert theirs.recv(1) == b""
        finally:
            ours.close()
            theirs.close()
            httpd.server_close()

    def test_drain_refuses_requests_on_idle_connections(self):
        import time as time_module

        from repro.faults import FaultPlan, FaultRule, activate, deactivate

        def wait_for(condition):
            deadline = time_module.monotonic() + 10.0
            while not condition():
                assert time_module.monotonic() < deadline
                time_module.sleep(0.005)

        server = EvalServer().start()
        idle = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        done = {}
        try:
            idle.request("GET", "/status")
            response = idle.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            wait_for(lambda: server._httpd.busy() == 0)

            # One request held in its handler, before it reaches dispatch.
            activate(FaultPlan(seed=0, rules=(FaultRule(
                point="server.handler", kind="delay", nth=(1,),
                params={"seconds": 1.0}),)))
            slow = threading.Thread(target=lambda: done.update(
                envelope=query(server.url, "status", timeout=30)))
            slow.start()
            wait_for(lambda: server._httpd.busy() == 1)

            drained = {}

            def drain():
                started = time_module.monotonic()
                drained["remaining"] = server.drain(grace_s=30.0)
                drained["elapsed"] = time_module.monotonic() - started

            drainer = threading.Thread(target=drain)
            drainer.start()
            wait_for(lambda: server._httpd.closing)
            # The kept connection was hung up: its new request never starts.
            with pytest.raises((http.client.HTTPException, OSError)):
                idle.request("GET", "/status")
                idle.getresponse().read()
            drainer.join(timeout=30)
            slow.join(timeout=30)
        finally:
            deactivate()
            idle.close()
        # drain() waited out the held request, then reported nothing left.
        assert drained["remaining"] == 0
        assert drained["elapsed"] >= 0.5
        assert done["envelope"]["status"] == "ok"
        assert server.state.snapshot()["requests"] == {"status": 2}
        server.stop()
