"""What ``import repro`` may not pull in.

``scipy.stats`` and ``scipy.optimize`` drag in ``scipy.linalg``,
``spatial``, ``ndimage``, ``interpolate`` and ``fft``: about half a
second and 45 MB that every CLI call, daemon restart and pool worker
would pay.  Nothing on the serving path needs them (the distributions use
``scipy.special`` only; ``solve_lp`` imports ``linprog`` when called), so
a fresh interpreter that imports the package must not have loaded them.

``tests`` is forbidden for a different reason: the autograd tape lives
in ``tests/nn/`` as the oracle the analytic gradients are checked
against, and nothing in production may pull it back in.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

#: Entry points a process starts from; the tier-1 CI job prints both
#: lists in its summary.
ENTRY_MODULES = ("repro", "repro.service", "repro.cli")
FORBIDDEN_MODULES = ("scipy.stats", "scipy.optimize", "tests")


def loaded_forbidden_modules() -> dict:
    """Import each entry module in a fresh interpreter; report what leaked."""
    src_dir = str(Path(repro.__file__).parents[1])
    script = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {src_dir!r})\n"
        "leaked = {}\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"    leaked[name] = [m for m in {FORBIDDEN_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps(leaked))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_entry_modules_do_not_import_scipy_stats_or_optimize():
    assert loaded_forbidden_modules() == {name: [] for name in ENTRY_MODULES}
