"""What ``import repro`` may pull in, and who consumes what it exports.

``scipy`` is a runtime dependency of one reference path only: ``solve_lp``
imports ``linprog`` when called, and no served loop runs it.  The Gaussian
quantile fans (MLP, ARIMA, persistence) use the Cephes ``ndtri`` port in
``repro.distributions.gaussian``.  Importing ``scipy.special`` alone costs
a process ~16 MB of resident memory and ~0.1 s of start-up (it loads
``numpy.testing``, ``unittest`` and ``numpy.f2py``); ``scipy.stats`` /
``scipy.optimize`` cost half a second more.  Every CLI call, daemon
restart and pool worker would pay it, so neither a fresh interpreter that
imports the package nor one that has served a loop of every ``LoopSpec``
family may have loaded any of ``scipy``.

``tests`` is forbidden for a different reason: the autograd tape lives
in ``tests/nn/`` as the oracle the analytic gradients are checked
against, and nothing in production may pull it back in.

Every public name has a consumer: :data:`CONSUMERS` maps each name in
``repro.__all__`` to one file that uses it - a paper Table / Fig /
ablation test (or the fixtures and helpers they share), an e2e ledger or
perf benchmark, the CLI or its loop spec, or a script or example CI runs.
A name with none is deleted, not exported.
"""

import fnmatch
import json
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.loop import MODELS

#: Entry points a process starts from; the tier-1 CI job prints both
#: lists in its summary.
ENTRY_MODULES = ("repro", "repro.service", "repro.cli")
FORBIDDEN_MODULES = ("scipy", "tests")

REPO = Path(__file__).resolve().parents[1]

#: Where a consumer may live (repo-relative ``fnmatch`` patterns).
CONSUMER_ROOTS = (
    "benchmarks/test_*.py",
    "benchmarks/conftest.py",
    "benchmarks/helpers.py",
    "benchmarks/e2e/*",
    "benchmarks/perf/*",
    "src/repro/cli.py",
    "src/repro/loop.py",
    "scripts/service_smoke.py",
    "scripts/adaptation_smoke.py",
    "examples/chaos_engineering.py",
)

#: One consumer file per public name; the tier-1 CI job prints the count
#: per root in its summary.
CONSUMERS: dict[str, str] = {
    # traces
    "Trace": "src/repro/cli.py",
    "alibaba_like_trace": "benchmarks/e2e/workloads.py",
    "google_like_trace": "src/repro/cli.py",
    # forecasting
    "QuantileForecast": "benchmarks/helpers.py",
    "Forecaster": "benchmarks/helpers.py",
    "TrainingConfig": "src/repro/loop.py",
    "ARIMAForecaster": "src/repro/loop.py",
    "MLPForecaster": "benchmarks/test_ablation_mlp_heads.py",
    "DeepARForecaster": "benchmarks/test_ablation_likelihood.py",
    "TFTForecaster": "benchmarks/e2e/workloads.py",
    "QB5000Forecaster": "benchmarks/conftest.py",
    "MLPQuantileForecaster": "benchmarks/test_ablation_mlp_heads.py",
    "TFTPointForecaster": "benchmarks/conftest.py",
    "PaddedPointForecaster": "benchmarks/test_fig9_underprovisioning.py",
    "SeasonalNaiveForecaster": "examples/chaos_engineering.py",
    # observability, fault injection, evaluation harnesses
    "obs": "src/repro/cli.py",
    "faults": "src/repro/cli.py",
    "FaultSchedule": "examples/chaos_engineering.py",
    "backtest": "src/repro/cli.py",
    "chaos_run": "examples/chaos_engineering.py",
    # core
    "ScalingPlan": "benchmarks/test_ext_qos_latency.py",
    "required_nodes": "benchmarks/test_table2_overhead.py",
    "evaluate_plan": "src/repro/cli.py",
    "solve_closed_form": "benchmarks/test_fig5_scaleout_overhead.py",
    "solve_lp": "benchmarks/test_ablation_solver.py",
    "solve_with_ramp_limits": "benchmarks/test_ablation_solver.py",
    "quantile_uncertainty": "benchmarks/test_fig6_uncertainty_correlation.py",
    "FixedQuantilePolicy": "benchmarks/test_table3_overhead_breakdown.py",
    "UncertaintyAwarePolicy": "benchmarks/test_fig11_adaptive_heatmap.py",
    "StaircasePolicy": "benchmarks/test_ablation_staircase.py",
    "RobustAutoScalingManager": "benchmarks/test_table3_overhead_breakdown.py",
    "RobustPredictiveAutoscaler": "src/repro/loop.py",
    "PointForecastScaler": "benchmarks/test_fig9_underprovisioning.py",
    "ReactiveMaxScaler": "benchmarks/test_table2_overhead.py",
    "ReactiveAvgScaler": "benchmarks/test_fig9_underprovisioning.py",
    "evaluate_strategy": "benchmarks/test_fig9_underprovisioning.py",
    "AutoscalingRuntime": "src/repro/loop.py",
    "StepResult": "benchmarks/e2e/workloads.py",
    # service daemon
    "ServiceRuntime": "src/repro/cli.py",
}


def consumer_root(path: str) -> str | None:
    """The :data:`CONSUMER_ROOTS` pattern ``path`` falls under, if any."""
    return next((root for root in CONSUMER_ROOTS if fnmatch.fnmatch(path, root)), None)


def run_fresh(body: str) -> dict:
    """Run ``body`` in a fresh interpreter with ``src/`` on the path; its
    last line printed is JSON."""
    src_dir = str(Path(repro.__file__).parents[1])
    script = f"import importlib, json, sys\nsys.path.insert(0, {src_dir!r})\n{body}"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_forbidden_modules() -> dict:
    """Import each entry module in a fresh interpreter; report what leaked."""
    return run_fresh(
        "leaked = {}\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"    leaked[name] = [m for m in {FORBIDDEN_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps(leaked))\n"
    )


def test_entry_modules_do_not_import_scipy_stats_or_optimize():
    assert loaded_forbidden_modules() == {name: [] for name in ENTRY_MODULES}


def test_a_served_loop_of_every_family_never_loads_scipy():
    # Each family fits one epoch on four days of a seeded trace and serves a
    # context window plus a few ticks: at least one predictive plan each.
    # The context is the seasonal-naive family's season.
    outcome = run_fresh(
        "from repro import alibaba_like_trace\n"
        "from repro.loop import MODELS, LoopSpec, MonitorSpec\n"
        "values = alibaba_like_trace(num_steps=800, seed=3).values\n"
        "train, plans = 576, {}\n"
        "for model in MODELS:\n"
        "    spec = LoopSpec(model, context=144, horizon=12, epochs=1, seed=3,\n"
        "                    monitoring=MonitorSpec())\n"
        "    forecaster = spec.forecaster().fit(values[:train])\n"
        "    runtime, _, _ = spec.build(forecaster, start_tick=train)\n"
        "    steps = [runtime.step(float(v)) for v in values[train : train + 160]]\n"
        "    plans[model] = sum(s.decision is not None and s.source == 'predictive'\n"
        "                       for s in steps)\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'plans': plans, 'scipy': scipy}))\n"
    )
    assert set(outcome["plans"]) == set(MODELS)
    assert all(count >= 1 for count in outcome["plans"].values()), outcome["plans"]
    assert outcome["scipy"] == []


def test_every_public_name_has_a_consumer():
    assert set(CONSUMERS) == set(repro.__all__) - {"__version__"}
    for name, path in CONSUMERS.items():
        assert consumer_root(path), f"{name}: {path} is not a consumer file"
        source = (REPO / path).read_text()
        assert re.search(rf"\b{re.escape(name)}\b", source), f"{path} never names {name}"
    # the scripts and the example count only because CI runs them
    workflow = (REPO / ".github/workflows/ci.yml").read_text()
    for root in CONSUMER_ROOTS:
        if root.startswith(("scripts/", "examples/")):
            assert root in workflow, f"CI does not run {root}"
