"""Self-tests of the benchmark harness.

Run by explicit path (tier-1 ``testpaths`` does not include this
directory)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import probe, stats, suite, tracing

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- span arithmetic ----------------------------------------------------------
def test_self_time_on_a_hand_built_tree():
    #  service.tick            0.0 .. 10.0
    #    runtime.step          1.0 ..  7.0
    #      planner.plan        2.0 ..  6.0
    #        forecast.predict  2.5 ..  5.5
    #      obs.monitor_observe 6.0 ..  6.5
    #    obs.sink_emit         8.0 ..  9.0
    #  service.tick           10.0 .. 11.0   (an idle tick)
    spans = [
        ["service.tick", 0.0, 10.0, -1, 0],
        ["runtime.step", 1.0, 7.0, 0, 0],
        ["planner.plan", 2.0, 6.0, 1, 0],
        ["forecast.predict", 2.5, 5.5, 2, 0],
        ["obs.monitor_observe", 6.0, 6.5, 1, 0],
        ["obs.sink_emit", 8.0, 9.0, 0, 0],
        ["service.tick", 10.0, 11.0, -1, 1],
    ]
    table = tracing.SpanTable(spans, lap_start=0.0, lap_end=12.0)
    assert table.self_times("service.tick").tolist() == [3.0, 1.0]
    assert table.self_times("runtime.step").tolist() == [1.5]
    assert table.self_times("planner.plan").tolist() == [1.0]
    assert table.self_times("forecast.predict").tolist() == [3.0]
    layers = table.layer_self_seconds()
    assert layers == {
        "forecast": 3.0, "core.planner": 1.0, "core.runtime": 1.5,
        "obs": 1.5, "service": 4.0, "adaptation": 0.0,
    }
    # layer self times + what no root span covers = the lap's wall time
    assert table.unattributed_seconds() == 1.0
    assert sum(layers.values()) + table.unattributed_seconds() == table.wall


def test_tracer_nests_and_patches_are_undone():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = vars(Layer)["outer"]
    tracer = tracing.Tracer()
    points = [(Layer, "outer", "runtime.outer"), (Layer, "inner", "planner.inner")]
    with tracing.patched(tracer, points):
        tracer.tick = 7
        assert Layer().outer() == 2
    assert vars(Layer)["outer"] is original
    (outer, inner) = tracer.spans
    assert (outer[0], outer[3], outer[4]) == ("runtime.outer", -1, 7)
    assert (inner[0], inner[3]) == ("planner.inner", 0)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


# -- the percentile rule --------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_summary_of_a_timing_series():
    summary = stats.summarize(range(1, 1001))
    assert summary["n"] == 1000 and summary["p50"] == 500.5 and summary["tail_p"] == 99.0
    assert summary["tail"] == pytest.approx(990.01)
    assert stats.summarize([]) == {"n": 0, "p50": 0.0, "tail_p": None, "tail": None}


# -- open-loop accounting -------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_open_loop_times_requests_from_when_they_were_due():
    clock = FakeClock()
    schedule = probe.OpenLoopSchedule(rate=10.0, clock=clock, sleep=clock.sleep)
    # request 0: due at once, answered in 30 ms
    due, sent = schedule.wait_next()
    assert (due, sent) == (100.0, 100.0)
    clock.now += 0.03
    # request 1: the generator sleeps out the rest of the 100 ms slot
    due, sent = schedule.wait_next()
    assert due == pytest.approx(100.1) and sent == pytest.approx(100.1)
    assert clock.slept == [pytest.approx(0.07)]
    # the server stalls for 250 ms: requests 2 and 3 become due meanwhile
    clock.now += 0.25
    due, sent = schedule.wait_next()
    assert due == pytest.approx(100.2) and sent == pytest.approx(100.35)
    clock.now += 0.01
    record = probe.ProbeRecord("health", due, sent, clock.now, 200, b"{}")
    assert record.late == pytest.approx(0.15)  # the generator's lateness
    assert record.latency == pytest.approx(0.16)  # charged from the due time
    due, sent = schedule.wait_next()
    assert due == pytest.approx(100.3) and sent == pytest.approx(100.36)
    assert len(clock.slept) == 1  # a late generator never sleeps


# -- --check ----------------------------------------------------------------------
def _record(values, spread=0.0):
    cell = {"unit": "1/s", "median": sorted(values)[len(values) // 2],
            "spread": spread, "values": values}
    return {"seed": 0, "workloads": {"w": {
        "digest": "d", "end_to_end": {"ticks_per_s": cell},
        "quality": {"under_prov_rate": 0.05, "over_prov_ratio": 1.25}}}}


def test_check_verdicts():
    declared = {"end_to_end": [
        {"name": "ticks_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}]}
    verdict = lambda base, now: suite.compare(base, now, declared)[-1]["verdict"]  # noqa: E731
    assert verdict(_record([100.0, 101.0]), _record([95.0, 96.0])) == "ok"
    assert verdict(_record([100.0, 101.0]), _record([85.0, 86.0])) == "regressed"
    assert verdict(_record([100.0, 101.0]), _record([140.0, 141.0])) == "ok"
    # spread wider than the bound: cannot tell, unless every new value wins
    assert verdict(_record([100.0, 120.0], 0.2), _record([85.0, 110.0], 0.25)) == "unresolved"
    assert verdict(_record([100.0, 120.0], 0.2), _record([125.0, 150.0], 0.2)) == "ok"
    row = suite.compare(_record([100.0, 101.0]), _record([85.0, 86.0]), declared)[-1]
    assert row["ratio"] == pytest.approx(0.8514851) and row["worse_by"] == pytest.approx(0.1485149)


def test_check_judges_quality_only_between_runs_of_one_seed():
    declared = {"end_to_end": []}
    base, now = _record([100.0]), _record([100.0])
    now["workloads"]["w"]["quality"] = {"under_prov_rate": 0.053, "over_prov_ratio": 1.2505}
    verdicts = {row["metric"]: row["verdict"] for row in suite.compare(base, now, declared)}
    assert verdicts == {"under_prov_rate": "regressed", "over_prov_ratio": "ok"}
    now["seed"] = 1
    assert suite.compare(base, now, declared) == []


# -- the declared names are the emitted names ---------------------------------------
def test_benchmark_json_stays_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert 2 <= len(DECLARED["workloads"]) <= 8
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in DECLARED["end_to_end"])
    setup = [metric for metric in DECLARED["end_to_end"] if metric["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(metric["bound"] for metric in DECLARED["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in DECLARED["workloads"]])
def test_quick_pass_emits_every_declared_name(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in DECLARED[kind]}
    assert {name: cell["unit"] for name, cell in result["metrics"].items()} == declared
    assert all(isinstance(cell["value"], float) for cell in result["metrics"].values())
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
