#!/usr/bin/env python
"""End-to-end smoke test for ``repro-autoscale serve`` (CI gate).

Three phases, all against real subprocesses:

1. **Live control plane** — start the daemon paced like a live feed
   (with an SLO attached), poll every GET endpoint while it steps,
   scrape and validate the Prometheus exposition, render the `top`
   dashboard once against the live daemon, force a replan and a
   checkpoint over HTTP, and fail on any non-200 (or non-JSON body).
   The daemon runs with ``--telemetry``; once it has stopped, the file
   must obey the write-once rule (exact counts, no timing): each tick
   ends in its ``trace`` record carrying the tick's counters and gauges,
   at most 2 lines for a tick that neither planned nor closed a monitor
   window, no per-update ``counter`` / ``gauge`` / ``service`` lines, no
   ``span`` line for a span its ``trace`` record already carries, and
   counters that equal the last ``GET /metrics``.  Every span in it, in
   a ``trace`` record or a ``span`` line, has the one lean shape (integer
   ``start_ns`` / ``duration_ns``, ``parent`` an earlier index, labels
   and status only when set), and ``report --traces 2`` renders the file.
2. **Unpaced replay** — serve a long tick file with ``--tick-interval 0``
   (several seconds of stepping) and poll ``/health`` while it steps:
   the control plane must answer mid-replay, at least twice, with
   distinct ticks below the final one, since the daemon hands control to
   the event loop after each millisecond of stepping.
3. **Crash/restore divergence** — run an uninterrupted session to
   completion, repeat it with a mid-trace checkpoint + early stop (the
   simulated crash), restore from the checkpoint, and require the
   restored session's decision stream to be bit-identical to the
   uninterrupted run's tail.  The checkpoint it restores from must be in
   this build's format (``repro.service.CHECKPOINT_VERSION``) — every
   array a raw-byte record, no decision history in the ``runtime`` block
   (its size is printed), and a ``config`` that is the loop spec's record
   plus the tick feed; ``--keep DIR`` copies that checkpoint out (CI
   uploads it as an artifact).

Stdlib only; exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SERVE = [sys.executable, "-m", "repro.cli", "serve",
         "--model", "naive", "--days", "6", "--context", "144",
         "--horizon", "36", "--replan-every", "12", "--monitor",
         "--slo", "qos_violation_rate < 0.2 over 48",
         "--seed", "3"]
CHECKPOINT_AT = 150
MAX_TICKS = 165
UNPACED_TICKS = 60_000  # about 5 s of stepping on two vCPUs


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def env() -> dict:
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(REPO / "src")
    return merged


def request(port: int, method: str, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def request_raw(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type", ""),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def wait_for_port(port_file: Path, process, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"daemon exited early with code {process.returncode}")
        if port_file.exists() and port_file.read_text().strip():
            return int(port_file.read_text().strip())
        time.sleep(0.05)
    fail("daemon never wrote its port file")


def run_serve(args: list[str], cwd: Path) -> None:
    result = subprocess.run(SERVE + args, cwd=cwd, env=env(),
                            capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"serve {' '.join(args)} exited {result.returncode}:\n"
             f"{result.stdout}\n{result.stderr}")


def read_decisions(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


SPAN_FIELDS = {"name", "parent", "start_ns", "duration_ns", "labels", "status"}


def check_span_shape(span: dict, index: int, where: str) -> None:
    """The one span shape, in a ``trace`` record or on a ``span`` line."""
    extra = span.keys() - SPAN_FIELDS - {"kind", "ts"}
    if extra or not (isinstance(span.get("start_ns"), int)
                     and isinstance(span.get("duration_ns"), int)):
        fail(f"{where}: span {span} is not {{name, start_ns, duration_ns}} in integers "
             f"(unknown fields: {sorted(extra)})")
    if span.get("labels") == {} or span.get("status") == "ok":
        fail(f"{where}: span {span} writes a default labels / status")
    parent = span.get("parent")
    if parent is not None and not 0 <= parent < index:
        fail(f"{where}: span {index} names parent {parent}, not an earlier span")


def check_telemetry_file(path: Path, final_counters: dict) -> None:
    """The write-once rule, as counts over the live phase's telemetry."""
    records = read_decisions(path)
    spans = 0
    for line, record in enumerate(records, 1):
        if record["kind"] == "span":  # outside a trace: no parent to name
            check_span_shape(record, 0, f"line {line}")
        elif record["kind"] == "trace":
            for index, span in enumerate(record["spans"]):
                check_span_shape(span, index, f"line {line} (trace {record['trace_id']})")
            spans += len(record["spans"])
    kinds = {record["kind"] for record in records}
    if kinds & {"counter", "gauge", "service"}:
        fail(f"per-update or orphan kinds in the telemetry file: {sorted(kinds)}")
    doubled = [r["name"] for r in records
               if r["kind"] == "span" and r["name"].startswith("runtime.step")]
    if doubled:
        fail(f"{len(doubled)} runtime.step spans written outside their trace")

    # The daemon writes each tick's counters and gauges in the tick's
    # `trace` record, so one trace record carrying them ends each tick's
    # lines.
    ticks, quiet, lines = 0, 0, []
    counters: dict = {}
    for record in records:
        lines.append(record)
        counters.update(record.get("counters", {}))
        if record["kind"] != "trace":
            continue
        if "counters" not in record:
            fail(f"the trace of tick {record['trace_id']} carries no counters")
        ticks += 1
        busy = any(
            r["kind"] == "provenance" or r.get("name") == "monitor.window"
            for r in lines
        )
        if not busy:
            quiet += 1
            if len(lines) > 2:
                fail(f"{len(lines)} telemetry lines for one quiet tick: "
                     f"{[r['kind'] for r in lines]}")
        lines = []
    if "counters" not in records[-1]:
        fail(f"the file ends in a {records[-1]['kind']!r} record: "
             f"counters of the last tick were never flushed")
    # Last value wins, so this holds the last record to /metrics too.
    if counters != final_counters:
        fail(f"telemetry file and GET /metrics disagree: "
             f"file {counters} vs /metrics {final_counters}")
    print(f"telemetry file OK: {len(records)} lines over {ticks} ticks "
          f"({quiet} quiet ticks at <= 2 lines), "
          f"{len(counters)} counters equal to GET /metrics, "
          f"{spans} trace spans in the lean shape")

    report = subprocess.run(
        [sys.executable, "-m", "repro.cli", "report", str(path), "--traces", "2"],
        env=env(), capture_output=True, text=True,
    )
    if report.returncode != 0:
        fail(f"report --traces 2 exited {report.returncode}:\n{report.stderr}")
    timelines = re.findall(r"^trace \d+ \[", report.stdout, flags=re.M)
    if len(timelines) != 2 or not re.search(r"^\* runtime\.step ", report.stdout, flags=re.M):
        fail(f"report --traces 2 drew no runtime.step timeline:\n{report.stdout[-2000:]}")
    print("report --traces 2 OK: two timelines rooted at runtime.step")


def phase_live_control_plane(workdir: Path) -> None:
    print("== phase 1: live control plane ==")
    port_file = workdir / "port.txt"
    telemetry = workdir / "live-telemetry.jsonl"
    final_counters = None
    process = subprocess.Popen(
        SERVE + ["--tick-interval", "0.02", "--linger", "60",
                 "--port-file", str(port_file),
                 "--telemetry", str(telemetry),
                 "--checkpoint-dir", str(workdir / "live-ckpt")],
        cwd=workdir, env=env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        port = wait_for_port(port_file, process)
        print(f"daemon on port {port}")

        # The first SLO window closes once the monitor has a full
        # calibration window past the 144-tick context (tick ~168).
        deadline = time.monotonic() + 60
        while True:
            status, health = request(port, "GET", "/health")
            if status != 200:
                fail(f"/health returned {status}")
            if health["ticks_processed"] >= 150 and health.get("slo"):
                break
            if time.monotonic() > deadline:
                fail(f"daemon never reached 150 ticks with SLO status "
                     f"(at {health['ticks_processed']}, "
                     f"slo={health.get('slo')!r})")
            time.sleep(0.2)
        print(f"health OK at tick {health['tick']} "
              f"({health['decisions']} decisions)")

        status, metrics = request(port, "GET", "/metrics")
        if status != 200 or metrics["counters"].get("service.ticks", 0) < 150:
            fail(f"/metrics returned {status} or missing service.ticks")

        entry = health["slo"][0]
        if entry["objective"] != "qos_violation_rate < 0.2 over 48":
            fail(f"unexpected SLO objective: {entry}")
        if "budget_consumed" not in entry or "burn" not in entry:
            fail(f"SLO status missing budget fields: {entry}")

        status, ctype, text = request_raw(port, "/metrics?format=prometheus")
        if status != 200 or "version=0.0.4" not in ctype:
            fail(f"prometheus scrape returned {status} ({ctype})")
        # Validate with the same tiny parser the unit tests use.
        sys.path.insert(0, str(REPO / "src"))
        from repro.obs import parse_exposition

        families = parse_exposition(text)
        if not any(name.startswith("repro_service_ticks") for name in families):
            fail(f"prometheus exposition missing service.ticks: "
                 f"{sorted(families)[:10]}")

        status, traces = request(port, "GET", "/traces?limit=3")
        if status != 200 or not traces["tracing"] or not traces["traces"]:
            fail(f"/traces returned {status}: {traces}")
        if not traces["traces"][-1]["spans"]:
            fail("latest trace has no spans")

        status, _ = request(port, "GET", "/decisions?limit=zebra")
        if status != 400:
            fail(f"bad ?limit returned {status}, expected 400")

        top = subprocess.run(
            [sys.executable, "-m", "repro.cli", "top",
             "--port", str(port), "--once"],
            cwd=workdir, env=env(), capture_output=True, text=True,
        )
        if top.returncode != 0:
            fail(f"top --once exited {top.returncode}:\n{top.stderr}")
        if "repro-autoscale top" not in top.stdout or "SLO" not in top.stdout:
            fail(f"top --once frame looks wrong:\n{top.stdout}")
        print("observability endpoints OK (slo/prometheus/traces/top)")

        status, forecast = request(port, "GET", "/forecast")
        if status != 200 or len(forecast["nodes"]) != 36:
            fail(f"/forecast returned {status}")
        status, decisions = request(port, "GET", "/decisions?limit=5")
        if status != 200 or not decisions["decisions"]:
            fail(f"/decisions returned {status}")
        status, planned = request(port, "POST", "/plan")
        if status != 200 or planned["source"] != "predictive":
            fail(f"POST /plan returned {status}: {planned}")
        status, checkpoint = request(port, "POST", "/checkpoint")
        if status != 200:
            fail(f"POST /checkpoint returned {status}: {checkpoint}")
        if not (Path(checkpoint["path"]) / "state.json").exists():
            fail("checkpoint path has no state.json")
        status, _ = request(port, "GET", "/bogus")
        if status != 404:
            fail(f"unknown path returned {status}, expected 404")
        print("live endpoints OK (health/metrics/forecast/decisions"
              "/plan/checkpoint/404)")

        # Counters stop moving once the tick stream has ended; what
        # /metrics says then is what the file must say after shutdown.
        deadline = time.monotonic() + 60
        while request(port, "GET", "/health")[1]["status"] != "draining":
            if time.monotonic() > deadline:
                fail("daemon never finished its tick stream")
            time.sleep(0.2)
        final_counters = request(port, "GET", "/metrics")[1]["counters"]
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
    if process.returncode != 0:
        fail(f"daemon exited {process.returncode} on SIGINT")
    check_telemetry_file(telemetry, final_counters)


def phase_unpaced_replay(workdir: Path) -> None:
    print("== phase 2: unpaced replay answers its control plane ==")
    ticks = workdir / "unpaced-ticks.txt"
    ticks.write_text("".join(
        f"{300 + 100 * math.sin(2 * math.pi * i / 144):.3f}\n"
        for i in range(UNPACED_TICKS)
    ))
    port_file = workdir / "unpaced-port.txt"
    process = subprocess.Popen(
        SERVE + ["--source", str(ticks), "--tick-interval", "0", "--linger", "5",
                 "--port-file", str(port_file)],
        cwd=workdir, env=env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        port = wait_for_port(port_file, process)
        stepping, waits = [], []
        deadline = time.monotonic() + 120
        while True:
            sent = time.perf_counter()
            status, health = request(port, "GET", "/health")
            waits.append(time.perf_counter() - sent)
            if status != 200:
                fail(f"/health returned {status} during the unpaced replay")
            if health["status"] != "serving":
                break
            stepping.append(health["tick"])
            if time.monotonic() > deadline:
                fail(f"unpaced replay never finished (at tick {health['tick']})")
            time.sleep(0.05)
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
    if health["ticks_processed"] != UNPACED_TICKS:
        fail(f"unpaced replay stepped {health['ticks_processed']} of {UNPACED_TICKS} ticks")
    final = health["tick"]
    answered = sorted({tick for tick in stepping if tick < final})
    if len(answered) < 2:
        fail(f"/health answered at {len(answered)} distinct ticks before the final "
             f"tick {final} of an unpaced replay (need >= 2): {answered}")
    waits.sort()
    print(f"unpaced replay OK: /health answered at {len(answered)} distinct ticks "
          f"before tick {final}; round trip p50 {waits[len(waits) // 2] * 1e3:.1f} ms, "
          f"max {waits[-1] * 1e3:.1f} ms")


def check_checkpoint_format(ckpt: Path) -> dict:
    sys.path.insert(0, str(REPO / "src"))
    from repro.service import CHECKPOINT_VERSION

    text = (ckpt / "state.json").read_text()
    state = json.loads(text)
    if state.get("version") != CHECKPOINT_VERSION:
        fail(f"checkpoint format version is {state.get('version')!r}, "
             f"expected {CHECKPOINT_VERSION}")
    feed = {"trace", "days", "source", "follow"}
    if set(state["config"]) != {"spec", *feed}:
        fail(f"checkpoint config is not the loop spec plus the feed: {sorted(state['config'])}")
    if state["config"]["spec"]["monitoring"]["slos"] != [SERVE[SERVE.index("--slo") + 1]]:
        fail(f"checkpoint spec lost the SLO: {state['config']['spec']['monitoring']}")
    if '"__ndarray__"' not in text:
        fail("checkpoint holds no array record at all")
    # A quote inside a JSON string is escaped, so this only matches keys.
    listed = re.findall(r'"__ndarray__"\s*:\s*\[', text)
    if listed:
        fail(f"{len(listed)} array records carry a list payload, not base64")
    # The checkpoint carries no history: the audit trail is the decision log.
    history = {"decisions", "provenance"} & state["runtime"].keys()
    if history:
        fail(f"checkpoint runtime block carries history: {sorted(history)}")
    sizes = {path.name: path.stat().st_size for path in sorted(ckpt.iterdir())}
    if list(sizes) != ["state.json"]:
        fail(f"checkpoint directory should hold exactly state.json, has {sorted(sizes)}")
    print(f"checkpoint format OK: version {CHECKPOINT_VERSION}, runtime block "
          f"{len(json.dumps(state['runtime']))} bytes after "
          f"{state['runtime']['decisions_committed']} decisions "
          f"(fields: {', '.join(state['runtime'])}), sizes {sizes}")
    return state


def phase_crash_restore(workdir: Path, keep: "Path | None") -> None:
    print("== phase 3: crash/restore bit-identity ==")
    ckpt = workdir / "ckpt"

    run_serve(["--decisions-out", str(workdir / "full.jsonl")], workdir)
    run_serve(["--checkpoint-at", str(CHECKPOINT_AT),
               "--max-ticks", str(MAX_TICKS),
               "--checkpoint-dir", str(ckpt),
               "--decisions-out", str(workdir / "crashed.jsonl")], workdir)
    if keep is not None:
        shutil.copytree(ckpt, keep, dirs_exist_ok=True)
    state = check_checkpoint_format(ckpt)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve",
         "--restore", str(ckpt),
         "--decisions-out", str(workdir / "restored.jsonl")],
        cwd=workdir, env=env(), capture_output=True, text=True,
    )
    if result.returncode != 0:
        fail(f"restore exited {result.returncode}:\n{result.stderr}")

    full = read_decisions(workdir / "full.jsonl")
    restored = read_decisions(workdir / "restored.jsonl")
    checkpoint_tick = state["runtime"]["tick"]
    tail = [d for d in full if d["tick"] >= checkpoint_tick]

    if not full:
        fail("uninterrupted run produced no decisions")
    if tail != restored:
        fail(f"decision streams diverged after restore "
             f"(tail {len(tail)} vs restored {len(restored)}):\n"
             f"{json.dumps(tail[:3], indent=2)}\nvs\n"
             f"{json.dumps(restored[:3], indent=2)}")
    sources = {d["source"] for d in full}
    if "predictive" not in sources:
        fail(f"no predictive decisions committed (sources: {sources})")
    print(f"restore OK: {len(restored)} post-checkpoint decisions "
          f"bit-identical to the uninterrupted run "
          f"({len(full)} total, sources: {sorted(sources)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="copy the phase-3 checkpoint directory here")
    args = parser.parse_args()
    keep = args.keep.resolve() if args.keep else None
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        workdir = Path(tmp)
        phase_live_control_plane(workdir)
        phase_unpaced_replay(workdir)
        phase_crash_restore(workdir, keep)
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
