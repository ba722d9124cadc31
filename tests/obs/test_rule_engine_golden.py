"""The one rule engine replays a recorded alert and SLO history.

``data/rule_engine_golden.json`` holds ~100 generated window-record
streams, each with its objectives and plain rules, and what the engine
reported on them when objectives still ran through a second rule system
beside the alert rules: every fired alert as ``(name, severity, window,
end_index)`` and the final status of every objective.  The streams mix
rate, good-rate and zero-budget objectives over windows of 4 to 288
ticks with plain ``for N`` rules, and every record carries its metrics.

``python -m tests.obs.test_rule_engine_golden --record`` rewrites the
file from the build on the path; it drives only ``AlertEngine``,
``parse_rule``, ``SLOTracker`` and ``observe_window``.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import AlertEngine, SLOTracker, parse_rule

GOLDEN = Path(__file__).parent / "data" / "rule_engine_golden.json"
STREAMS = 100

PLAIN_RULES = (
    ("mape > 0.5 for 2", "warning"),
    ("violation_rate > 0.2 for 3", "critical"),
    ("coverage@0.9 < 0.8 for 2", "warning"),
    ("mape >= 1", "critical"),
)


def records(stream):
    """The stream's window records, as the monitor would close them."""
    steps = stream["steps"]
    for index, (bad, covered, mape) in enumerate(stream["rows"]):
        yield {
            "kind": "model_health",
            "name": "monitor.window",
            "window": index,
            "end_index": (index + 1) * steps - 1,
            "steps": steps,
            "violation_rate": bad / steps,
            "coverage": {"0.9": covered / steps},
            "mape": mape / 100,
        }


def status_fields(entry):
    """The compared part of one ``slo`` status record."""
    return {
        "objective": entry["objective"],
        "budget_consumed": entry["budget_consumed"],
        "bad_ticks": entry["bad_ticks"],
        "healthy": entry["healthy"],
        "burn": {
            severity: {key: rung[key] for key in ("long_burn", "short_burn", "firing")}
            for severity, rung in entry["burn"].items()
        },
    }


def replay(stream):
    """``(alerts, final status)`` of one stream through engine and tracker."""
    engine = AlertEngine(
        [parse_rule(spec, severity=severity) for spec, severity in stream["rules"]]
    )
    tracker = SLOTracker(stream["objectives"], engine=engine)
    status = []
    for record in records(stream):
        engine.evaluate(record)
        status = tracker.observe_window(record)
    alerts = [
        [alert.rule.name, alert.rule.severity, alert.window, alert.end_index]
        for alert in engine.alerts
    ]
    return alerts, [status_fields(entry) for entry in status]


def generate(seed):
    """One seeded stream: regime-switching violation / coverage / MAPE."""
    rng = np.random.default_rng(seed)
    window = int(rng.choice([4, 6, 8, 12, 24, 36, 48, 96, 144, 288]))
    steps = int(rng.choice([1, 2, 4, 6, 12, 24]))
    objectives = []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.choice(["rate", "good", "zero-rate", "zero-good"], p=[0.4, 0.3, 0.15, 0.15])
        if kind == "rate":
            op, budget = rng.choice(["<", "<="]), rng.choice([0.01, 0.02, 0.05, 0.1, 0.2])
            spec = f"qos_violation_rate {op} {budget:g} over {window}"
        elif kind == "good":
            op, target = rng.choice([">=", ">"]), rng.choice([0.5, 0.8, 0.85, 0.9, 0.95])
            spec = f"coverage@0.9 {op} {target:g} over {window}"
        elif kind == "zero-rate":
            spec = f"qos_violation_rate < 0 over {window}"
        else:
            spec = f"coverage@0.9 >= 1 over {window}"
        if spec not in objectives:  # one objective per spec: its alerts are named by it
            objectives.append(spec)
    picks = rng.choice(len(PLAIN_RULES), size=int(rng.integers(0, 3)), replace=False)
    rules = [list(PLAIN_RULES[i]) for i in sorted(picks)]

    p_bad = (0.0, 0.01, 0.05, 0.3, 0.9)
    p_cover = (1.0, 0.95, 0.85, 0.5, 0.05)
    regime = int(rng.integers(len(p_bad)))
    rows = []
    for _ in range(int(rng.integers(20, 81))):
        if rng.random() < 0.15:
            regime = int(rng.integers(len(p_bad)))
        rows.append([
            int(rng.binomial(steps, p_bad[regime])),
            int(rng.binomial(steps, p_cover[regime])),
            int(rng.integers(0, 40 + 40 * regime)),
        ])
    return {"seed": seed, "objectives": objectives, "rules": rules, "steps": steps, "rows": rows}


def record_golden():
    streams = []
    for seed in range(STREAMS):
        stream = generate(seed)
        stream["alerts"], stream["status"] = replay(stream)
        streams.append(stream)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(streams, separators=(",", ":")) + "\n")
    fired = sum(len(stream["alerts"]) for stream in streams)
    print(f"{GOLDEN}: {len(streams)} streams, {fired} alerts")


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def test_the_golden_streams_cover_the_cases():
    streams = _golden()
    assert len(streams) == STREAMS
    objectives = [spec for stream in streams for spec in stream["objectives"]]
    assert any(spec.startswith("coverage@0.9 >= 1 ") for spec in objectives)
    assert any(spec.startswith("qos_violation_rate < 0 ") for spec in objectives)
    assert any(spec.startswith("coverage@0.9 >") and " 1 " not in spec for spec in objectives)
    windows = {int(spec.rsplit(" ", 1)[1]) for spec in objectives}
    assert min(windows) == 4 and max(windows) == 288
    assert any(stream["rules"] for stream in streams)
    names = [alert[0] for stream in streams for alert in stream["alerts"]]
    assert any(name.endswith(":critical") for name in names)
    assert any(name.endswith(":warning") for name in names)
    assert any(not name.startswith("slo-") for name in names)


@pytest.mark.parametrize("index", range(STREAMS))
def test_replay_matches_the_recorded_history(index):
    stream = _golden()[index]
    alerts, status = replay(stream)
    assert alerts == stream["alerts"]
    assert len(status) == len(stream["status"])
    for got, want in zip(status, stream["status"]):
        assert got["objective"] == want["objective"]
        assert got["healthy"] == want["healthy"]
        for key in ("budget_consumed", "bad_ticks"):
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0)
        assert set(got["burn"]) == set(want["burn"])
        for severity, rung in want["burn"].items():
            assert got["burn"][severity]["firing"] == rung["firing"]
            for key in ("long_burn", "short_burn"):
                assert got["burn"][severity][key] == pytest.approx(rung[key], rel=1e-12, abs=0)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.obs.test_rule_engine_golden --record")
    record_golden()
