"""What ``import repro``, and a loop it serves, may not pull in.

``scipy`` is a runtime dependency of two reference paths only:
``solve_lp`` imports ``linprog`` and ``StudentT`` imports
``scipy.special`` when called, and no served loop runs either.  The
Gaussian quantile fans (MLP, ARIMA, persistence) use the Cephes ``ndtri``
port in ``repro.distributions.gaussian``.  Importing ``scipy.special``
alone costs a process ~16 MB of resident memory and ~0.1 s of start-up
(it loads ``numpy.testing``, ``unittest`` and ``numpy.f2py``);
``scipy.stats`` / ``scipy.optimize`` cost half a second more.  Every CLI
call, daemon restart and pool worker would pay it, so neither a fresh
interpreter that imports the package nor one that has served a loop of
every ``LoopSpec`` family may have loaded any of ``scipy``.

``tests`` is forbidden for a different reason: the autograd tape lives
in ``tests/nn/`` as the oracle the analytic gradients are checked
against, and nothing in production may pull it back in.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.loop import MODELS

#: Entry points a process starts from; the tier-1 CI job prints both
#: lists in its summary.
ENTRY_MODULES = ("repro", "repro.service", "repro.cli")
FORBIDDEN_MODULES = ("scipy", "tests")


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
