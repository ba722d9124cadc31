"""Control-plane contract tests: real HTTP requests on an ephemeral port."""

import functools
import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.adaptation import AdaptationManager
from repro.core import (
    AutoscalingRuntime,
    FixedQuantilePolicy,
    RobustPredictiveAutoscaler,
    ScalingPlan,
)
from repro.core.plan import required_nodes
from repro.forecast import SeasonalNaiveForecaster
from repro.service import GeneratorSource, ServiceRuntime

from tests.adaptation.doubles import FakeForecaster, make_runtime


class QuantilePlanner:
    name = "quantile-double"

    def __init__(self, horizon, threshold):
        self.horizon = horizon
        self.threshold = threshold

    def plan(self, context, start_index=0):
        base = float(np.mean(context))
        levels = np.array([0.1, 0.5, 0.9])
        values = np.vstack([
            np.full(self.horizon, base * f) for f in (0.8, 1.0, 1.2)
        ])
        return ScalingPlan(
            nodes=required_nodes(values[-1], self.threshold),
            threshold=self.threshold,
            strategy=self.name,
            metadata={"forecast_levels": levels, "forecast_values": values},
        )


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            method, path,
            body=body if isinstance(body, (str, bytes, type(None)))
            else json.dumps(body),
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def start_service(service):
    """Run a ServiceRuntime in a daemon thread; wait for its port."""
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while service.port is None:
        if time.monotonic() > deadline:
            raise TimeoutError("service never bound its port")
        time.sleep(0.01)
    return thread


def wait_for_ticks(port, count, timeout=10):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, health = request(port, "GET", "/health")
        if status == 200 and health["ticks_processed"] >= count:
            return health
        time.sleep(0.02)
    raise TimeoutError(f"service never processed {count} ticks")


SERIES = list(np.abs(np.random.default_rng(5).normal(300, 60, size=30)))


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A service that has drained a full trace (plans committed)."""
    runtime = AutoscalingRuntime(
        planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
        threshold=60.0,
    )
    service = ServiceRuntime(
        runtime, GeneratorSource(SERIES),
        checkpoint_dir=tmp_path_factory.mktemp("ckpt") / "snap",
        linger=60.0,
    )
    thread = start_service(service)
    wait_for_ticks(service.port, len(SERIES))
    yield service
    service.request_stop()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def cold():
    """A service with an empty source: no history, no plan."""
    runtime = AutoscalingRuntime(
        planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
        threshold=60.0,
    )
    service = ServiceRuntime(runtime, GeneratorSource([]), linger=60.0)
    thread = start_service(service)
    yield service
    service.request_stop()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def adapting():
    """A service with an idle adaptation manager and enough history to refit."""
    runtime = make_runtime(FakeForecaster().fit(np.full(20, 100.0)))
    manager = AdaptationManager(runtime, auto_refit=False)
    service = ServiceRuntime(
        runtime, GeneratorSource(np.full(30, 100.0)), adaptation=manager, linger=60.0
    )
    thread = start_service(service)
    wait_for_ticks(service.port, 30)
    yield service
    service.request_stop()
    thread.join(timeout=10)


class TestHealth:
    def test_reports_loop_state(self, warm):
        status, health = request(warm.port, "GET", "/health")
        assert status == 200
        assert health["status"] in ("serving", "draining")
        assert health["ticks_processed"] == len(SERIES)
        assert health["tick"] == len(SERIES)
        assert health["decisions"] == len(warm.runtime.decisions)
        assert health["last_target_nodes"] >= 1
        assert health["planner_errors"] == 0

    def test_monitor_is_null_when_not_attached(self, warm):
        _, health = request(warm.port, "GET", "/health")
        assert health["monitor"] is None


class TestMetrics:
    def test_snapshot_includes_service_counters(self, warm):
        status, metrics = request(warm.port, "GET", "/metrics")
        assert status == 200
        assert {"counters", "gauges", "histograms", "spans"} <= metrics.keys()
        # The ambient registry is process-wide, so assert a floor, not
        # an exact count.
        assert metrics["counters"].get("service.ticks", 0) >= len(SERIES)


class TestForecast:
    def test_committed_plan_with_quantile_surface(self, warm):
        status, forecast = request(warm.port, "GET", "/forecast")
        assert status == 200
        assert forecast["strategy"] == "quantile-double"
        assert forecast["levels"] == [0.1, 0.5, 0.9]
        assert len(forecast["values"]) == 3
        assert len(forecast["values"][0]) == forecast["horizon"] == 4
        assert all(n >= 1 for n in forecast["nodes"])

    def test_cold_start_is_409(self, cold):
        status, payload = request(cold.port, "GET", "/forecast")
        assert status == 409
        assert "no committed plan" in payload["error"]


class TestDecisions:
    def test_returns_newest_decisions(self, warm):
        status, payload = request(warm.port, "GET", "/decisions?limit=3")
        assert status == 200
        assert payload["total"] == len(warm.runtime.decisions)
        assert len(payload["decisions"]) == 3
        ticks = [d["tick"] for d in payload["decisions"]]
        assert ticks == sorted(ticks)
        for decision in payload["decisions"]:
            assert {"tick", "source", "strategy", "nodes"} <= decision.keys()

    @pytest.mark.parametrize("query", ["?limit=zebra", "?limit=0"])
    def test_bad_limit_is_400(self, warm, query):
        status, payload = request(warm.port, "GET", f"/decisions{query}")
        assert status == 400
        assert "limit" in payload["error"]


class TestPlan:
    def test_forces_an_immediate_replan(self, warm):
        before = len(warm.runtime.decisions)
        status, decision = request(warm.port, "POST", "/plan")
        assert status == 200
        assert decision["source"] == "predictive"
        assert decision["tick"] == warm.runtime.tick
        assert len(warm.runtime.decisions) == before + 1

    def test_without_history_is_409(self, cold):
        status, payload = request(cold.port, "POST", "/plan")
        assert status == 409
        assert "context window" in payload["error"]


class TestCheckpoint:
    def test_writes_a_restorable_checkpoint(self, warm):
        status, payload = request(warm.port, "POST", "/checkpoint")
        assert status == 200
        from repro.service import load_checkpoint

        state = load_checkpoint(payload["path"])
        assert state["runtime"]["tick"] == payload["tick"]
        assert state["source_position"] == len(SERIES)

    def test_without_checkpoint_dir_is_409(self, cold):
        status, payload = request(cold.port, "POST", "/checkpoint")
        assert status == 409
        assert "checkpoint" in payload["error"]

    def test_malformed_json_body_is_400(self, warm):
        status, payload = request(warm.port, "POST", "/checkpoint",
                                  body="{not json")
        assert status == 400
        assert "JSON" in payload["error"]


class TestRefit:
    def test_a_body_naming_a_strategy_is_400(self, adapting):
        manager = adapting.adaptation
        refits = manager.refits
        for strategy in ("warm", "pool", None):
            status, payload = request(
                adapting.port, "POST", "/refit", body={"strategy": strategy}
            )
            assert status == 400
            assert "refit takes no strategy" in payload["error"]
        assert manager.refits == refits

    def test_force_must_be_a_json_boolean(self, adapting):
        manager = adapting.adaptation
        status, payload = request(adapting.port, "POST", "/refit", body={"reason": "test"})
        assert status == 200 and payload["action"] == "refit"
        candidate, rejections = manager.candidate, manager.rejections
        for force in ("false", "true", 1, 0, None):
            status, payload = request(adapting.port, "POST", "/refit", body={"force": force})
            assert status == 400
            assert "force must be a JSON boolean" in payload["error"]
        assert manager.candidate is candidate and manager.rejections == rejections
        status, _ = request(adapting.port, "POST", "/refit", body={"force": False})
        assert status == 409  # already shadowing
        status, _ = request(adapting.port, "POST", "/refit", body={"force": True})
        assert status == 200
        assert manager.candidate is not candidate
        assert manager.rejections == rejections + 1


class TestRouting:
    def test_unknown_path_is_404(self, warm):
        status, payload = request(warm.port, "GET", "/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_wrong_method_is_405(self, warm):
        assert request(warm.port, "POST", "/health")[0] == 405
        assert request(warm.port, "GET", "/plan")[0] == 405

    def test_trailing_slash_is_normalised(self, warm):
        assert request(warm.port, "GET", "/health/")[0] == 200


def raw_request(port, data, close_write=True):
    """Send ``data`` as-is, close the write side unless told not to (a
    stalled client), read until the server closes; (status, payload)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestFraming:
    @pytest.mark.parametrize("data, message", [
        (b"POST /plan HTTP/1.1\r\nContent-Length: abc\r\n\r\n", "malformed Content-Length"),
        (b"POST /plan HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "malformed Content-Length"),
        (b"POST /plan HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", "body ends after 2 of 10 bytes"),
        # Beyond the StreamReader's 64 KiB line limit.
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
         "request line longer than the 64 KiB line limit"),
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
         "header line longer than the 64 KiB line limit"),
    ], ids=["not-a-number", "negative", "short-body", "overlong-request-line",
            "overlong-header-line"])
    def test_malformed_framing_is_400_and_the_daemon_still_serves(self, warm, data, message):
        status, payload = raw_request(warm.port, data)
        assert status == 400
        assert message in payload["error"]
        assert request(warm.port, "GET", "/health")[0] == 200

    @pytest.mark.parametrize("data", [
        b"GET /health HTTP/1.1\r\n",
        b"POST /plan HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
    ], ids=["head", "body"])
    def test_a_stalled_request_is_408_and_the_daemon_still_serves(self, warm, monkeypatch, data):
        monkeypatch.setattr("repro.service.http._READ_TIMEOUT", 0.2)
        started = time.monotonic()
        status, payload = raw_request(warm.port, data, close_write=False)
        assert status == 408
        assert "request incomplete" in payload["error"]
        assert time.monotonic() - started < 5.0
        assert request(warm.port, "GET", "/health")[0] == 200


class TestConnectionCap:
    def test_connections_beyond_the_cap_are_503_while_ticks_flow(self, monkeypatch):
        cap, extra = 4, 3
        monkeypatch.setattr("repro.service.http._MAX_CONNECTIONS", cap)
        monkeypatch.setattr("repro.service.http._READ_TIMEOUT", 0.5)
        runtime = AutoscalingRuntime(
            planner=QuantilePlanner(4, 60.0), context_length=6, horizon=4,
            threshold=60.0,
        )
        service = ServiceRuntime(
            runtime, GeneratorSource(np.full(2000, 300.0)), tick_interval=0.002,
            linger=60.0,
        )
        thread = start_service(service)
        held = [socket.create_connection(("127.0.0.1", service.port), timeout=10)
                for _ in range(cap)]
        try:
            time.sleep(0.1)  # the held connections are accepted, in order
            refused = [socket.create_connection(("127.0.0.1", service.port), timeout=10)
                       for _ in range(extra)]
            for sock in refused:
                with sock:
                    head = sock.recv(65536)
                assert head.startswith(b"HTTP/1.1 503 ")
            # Idle clients hold every slot: the tick loop keeps stepping.
            ticks = service.ticks_processed
            time.sleep(0.2)
            assert service.ticks_processed > ticks
            for sock in held:  # each held slot times out with a 408
                assert sock.recv(65536).startswith(b"HTTP/1.1 408 ")
        finally:
            for sock in held:
                sock.close()
        try:
            assert request(service.port, "GET", "/health")[0] == 200
        finally:
            service.request_stop()
            thread.join(timeout=10)


def adaptation_service(phase):
    """A drained daemon whose adaptation manager is in ``phase`` (None:
    the daemon has no manager), reached through the control plane."""
    runtime = make_runtime(FakeForecaster().fit(np.full(20, 100.0)))
    manager = AdaptationManager(runtime, auto_refit=False) if phase else None
    service = ServiceRuntime(
        runtime, GeneratorSource(np.full(30, 100.0)), adaptation=manager, linger=60.0
    )
    thread = start_service(service)
    wait_for_ticks(service.port, 30)
    for route in {"idle": (), "shadowing": ("/refit",),
                  "guarding": ("/refit", "/promote")}.get(phase, ()):
        assert request(service.port, "POST", route, body={"reason": "set-up"})[0] == 200
    return service, thread


class TestPromoteAndRollback:
    @pytest.mark.parametrize("phase, route, status, message", [
        (None, "/promote", 409, "adaptation is not enabled"),
        (None, "/rollback", 409, "adaptation is not enabled"),
        ("idle", "/promote", 409, "no shadow candidate to promote"),
        ("idle", "/rollback", 409, "no guarded promotion to roll back"),
        ("shadowing", "/promote", 200, None),
        ("guarding", "/rollback", 200, None),
    ], ids=["no-manager-promote", "no-manager-rollback", "idle-promote",
            "idle-rollback", "shadowing-promote", "guarding-rollback"])
    def test_route_answers_by_phase(self, phase, route, status, message):
        service, thread = adaptation_service(phase)
        try:
            got, payload = request(service.port, "POST", route, body={"reason": "row"})
        finally:
            service.request_stop()
            thread.join(timeout=10)
        assert got == status
        if message is not None:
            assert message in payload["error"]
            return
        # The reason the operator gave is the one the event carries.
        event = service.adaptation.machine.events[-1]
        assert event["action"] == route.strip("/") and event["reason"] == "row"
        assert payload == event


# Decision.record()'s keys the daemon's wire form carries, in order
# (``time_index`` is sent as ``tick``).
WIRE_KEYS = ("source", "strategy", "horizon", "nodes", "nodes_first")


def projected(decision):
    record = decision.record()
    return {"tick": record["time_index"], **{key: record[key] for key in WIRE_KEYS}}


class TestWireForm:
    def test_decision_log_and_decisions_are_the_records_projection(self, tmp_path):
        series = list(np.random.default_rng(11).gamma(20.0, 15.0, size=40))
        forecaster = SeasonalNaiveForecaster(4, season=6).fit(np.asarray(series[:20]))
        planner = RobustPredictiveAutoscaler(forecaster, 60.0, FixedQuantilePolicy(0.9))
        runtime = AutoscalingRuntime(
            planner=planner, context_length=8, horizon=4, threshold=60.0
        )
        log = tmp_path / "decisions.jsonl"
        service = ServiceRuntime(
            runtime, GeneratorSource(series), decision_log=log, linger=60.0
        )
        thread = start_service(service)
        try:
            wait_for_ticks(service.port, len(series))
            conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
            conn.request("GET", "/decisions?limit=1000")
            body = conn.getresponse().read()
            conn.close()
        finally:
            service.request_stop()
            thread.join(timeout=10)
        decisions = runtime.decisions
        assert decisions and "uncertainty_mean" in decisions[-1].record()
        # Compact JSON: no space after ':' or ','.
        compact = functools.partial(json.dumps, separators=(",", ":"))
        assert body == compact({
            "total": runtime.state.decisions_committed,
            "decisions": [projected(d) for d in decisions],
        }).encode("utf-8")
        assert log.read_text(encoding="utf-8") == "".join(
            compact({"kind": "decision", **projected(d)}) + "\n" for d in decisions
        )
