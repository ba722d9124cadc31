#!/usr/bin/env python
"""End-to-end smoke test for ``repro-autoscale serve --adapt`` (CI gate).

A real MLP forecaster is trained on the synthetic Alibaba-like trace,
then served against a regime-shifted tick file so its residuals drift.
Two phases, both against real subprocesses:

1. **Drift → promotion over the live control plane** — start the
   daemon with adaptation enabled, poll ``GET /adaptation`` while it
   steps, and require the full autonomous sequence: a drift alert
   triggers a warm refit, the candidate shadows, is promoted, and the
   swap commits after the guard windows — with no human input.  The
   endpoint contract is exercised on the way (``/health`` adaptation
   block, 409 on ``POST /promote`` with no candidate, 400 on a bogus
   refit strategy).
2. **Checkpoint mid-shadow, restore, bit-identity** — run the same
   session to completion, repeat it with a checkpoint in the middle of
   the shadow phase + an early stop (the simulated crash), restore,
   and require the restored session to finish the promotion and emit a
   decision stream bit-identical to the uninterrupted run's tail.
   The mid-shadow tick is derived from phase 1's event log, not
   hardcoded, so retuning the scenario cannot silently skip the
   interesting state.

Stdlib only (numpy comes with the repo); exits non-zero on the first
failure.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The serving scenario: an MLP (frozen weights — the model family that
# actually goes stale) trained on 4.5 days, driven by a level-shifted
# continuation.  A seasonal-naive model would self-adapt from its
# context and never drift, so it cannot exercise this path.
DAYS = 6
STEPS_PER_DAY = 144
TRAIN_STEPS = int(DAYS * STEPS_PER_DAY * 0.75)
SERVE = [sys.executable, "-m", "repro.cli", "serve",
         "--model", "mlp", "--trace", "alibaba", "--days", str(DAYS),
         "--seed", "0", "--context", "36", "--horizon", "12",
         "--epochs", "6", "--threshold", "400", "--replan-every", "12",
         "--adapt", "--promote-policy", "wql<=0.98 cal<=0.5 soak=1 guard=1",
         "--shadow-window", "120", "--adapt-cooldown", "24"]
CRASH_GRACE_TICKS = 6


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def env() -> dict:
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(REPO / "src")
    return merged


def request(port: int, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def wait_for_port(port_file: Path, process, timeout: float = 120.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"daemon exited early with code {process.returncode}")
        if port_file.exists() and port_file.read_text().strip():
            return int(port_file.read_text().strip())
        time.sleep(0.05)
    fail("daemon never wrote its port file")


def run_serve(args: list[str], cwd: Path) -> str:
    result = subprocess.run(SERVE + args, cwd=cwd, env=env(),
                            capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"serve {' '.join(args)} exited {result.returncode}:\n"
             f"{result.stdout}\n{result.stderr}")
    return result.stderr


def read_decisions(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def write_shifted_source(workdir: Path) -> Path:
    """The trace's test split, level-shifted out of the training regime."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.traces import alibaba_like_trace

    trace = alibaba_like_trace(num_steps=DAYS * STEPS_PER_DAY, seed=0)
    _, test = trace.split(test_fraction=0.25)
    source = workdir / "shifted.txt"
    source.write_text(
        "".join(f"{value * 1.6 + 800:.3f}\n" for value in test.values)
    )
    return source


def poll_adaptation(port: int, done, what: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = request(port, "GET", "/adaptation")
        if status != 200:
            fail(f"GET /adaptation returned {status}: {body}")
        if done(body):
            return body
        time.sleep(0.1)
    fail(f"daemon never reached: {what} (last status: {body})")


def phase_drift_to_promotion(workdir: Path, source: Path) -> dict:
    print("== phase 1: drift -> warm refit -> shadow -> promotion ==")
    port_file = workdir / "port.txt"
    process = subprocess.Popen(
        SERVE + ["--source", str(source),
                 "--tick-interval", "0.01", "--linger", "120",
                 "--port-file", str(port_file)],
        cwd=workdir, env=env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        port = wait_for_port(port_file, process)
        print(f"daemon on port {port}")

        state = poll_adaptation(port, lambda s: True, "first status")
        if state["live_model"] != "MLPForecaster":
            fail(f"unexpected live model: {state['live_model']}")
        if state["policy"] != "wql<=0.98 cal<=0.5 soak=1 guard=1":
            fail(f"unexpected policy spec: {state['policy']}")
        if not state["auto_refit"]:
            fail("auto_refit should default to on")

        # With no candidate there is nothing to promote or roll back.
        status, body = request(port, "POST", "/promote")
        if status != 409:
            fail(f"POST /promote while idle returned {status}: {body}")
        status, body = request(port, "POST", "/refit",
                               body={"strategy": "bogus"})
        if status != 400:
            fail(f"bogus refit strategy returned {status}: {body}")

        state = poll_adaptation(
            port, lambda s: s["refits"] >= 1, "a drift-triggered refit"
        )
        refit = [e for e in state["events"] if e["action"] == "refit"][0]
        if not refit["reason"].startswith("alert:"):
            fail(f"refit was not alert-triggered: {refit}")
        if refit["mode"] != "warm":
            fail(f"refit was not warm-started: {refit}")
        print(f"refit OK at tick {refit['tick']} ({refit['reason']})")

        state = poll_adaptation(
            port,
            lambda s: s["promotions"] >= 1 and s["state"] == "idle",
            "promotion + committed guard",
        )
        actions = [e["action"] for e in state["events"]]
        for action in ("refit", "promote", "commit"):
            if action not in actions:
                fail(f"missing {action} in event log: {actions}")
        if state["rollbacks"] or state["rejections"]:
            fail(f"unexpected rollback/rejection: {state}")
        promote = [e for e in state["events"] if e["action"] == "promote"][0]
        print(f"promotion OK at tick {promote['tick']} "
              f"({promote['reason']})")

        status, health = request(port, "GET", "/health")
        if status != 200 or health.get("adaptation") is None:
            fail(f"/health has no adaptation block: {health}")
        if health["adaptation"]["promotions"] != 1:
            fail(f"/health adaptation out of sync: {health['adaptation']}")
        print("control plane OK (/adaptation, /health, 409/400 contract)")
        return {"refit_tick": refit["tick"], "promote_tick": promote["tick"]}
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()


def phase_checkpoint_mid_shadow(workdir: Path, source: Path,
                                ticks: dict) -> None:
    print("== phase 2: checkpoint mid-shadow, restore, bit-identity ==")
    ckpt = workdir / "ckpt"
    # Halfway between refit and promotion, in source-relative ticks —
    # guaranteed inside the shadow phase of this deterministic session.
    checkpoint_at = (
        ticks["refit_tick"] + ticks["promote_tick"]
    ) // 2 - TRAIN_STEPS + 1

    stderr = run_serve(
        ["--source", str(source),
         "--decisions-out", str(workdir / "full.jsonl")], workdir)
    if "1 promotions" not in stderr:
        fail(f"uninterrupted run did not promote:\n{stderr}")
    run_serve(
        ["--source", str(source),
         "--checkpoint-at", str(checkpoint_at),
         "--max-ticks", str(checkpoint_at + CRASH_GRACE_TICKS),
         "--checkpoint-dir", str(ckpt),
         "--decisions-out", str(workdir / "crashed.jsonl")], workdir)

    files = sorted(path.name for path in ckpt.iterdir())
    if files != ["state.json"]:
        fail(f"checkpoint directory should hold exactly state.json, has {files}")
    state = json.loads((ckpt / "state.json").read_text())
    if state["adaptation"]["phase"] != "shadowing":
        fail(f"checkpoint was not taken mid-shadow: "
             f"adaptation phase {state['adaptation']['phase']!r}")

    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve",
         "--restore", str(ckpt),
         "--decisions-out", str(workdir / "restored.jsonl")],
        cwd=workdir, env=env(), capture_output=True, text=True,
    )
    if result.returncode != 0:
        fail(f"restore exited {result.returncode}:\n{result.stderr}")
    if "1 promotions" not in result.stderr:
        fail(f"restored run did not finish the promotion:\n{result.stderr}")

    full = read_decisions(workdir / "full.jsonl")
    restored = read_decisions(workdir / "restored.jsonl")
    checkpoint_tick = state["runtime"]["tick"]
    tail = [d for d in full if d["tick"] >= checkpoint_tick]
    if not full:
        fail("uninterrupted run produced no decisions")
    if tail != restored:
        fail(f"decision streams diverged after mid-shadow restore "
             f"(tail {len(tail)} vs restored {len(restored)}):\n"
             f"{json.dumps(tail[:3], indent=2)}\nvs\n"
             f"{json.dumps(restored[:3], indent=2)}")
    print(f"restore OK: checkpoint at tick {checkpoint_tick} while "
          f"shadowing; {len(restored)} post-checkpoint decisions "
          f"bit-identical, promotion completed after restore")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="adaptation-smoke-") as tmp:
        workdir = Path(tmp)
        source = write_shifted_source(workdir)
        ticks = phase_drift_to_promotion(workdir, source)
        phase_checkpoint_mid_shadow(workdir, source, ticks)
    print("adaptation smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
