"""CLI stdout pinned across refactors: every score the loop commands print.

Recorded when ``compare`` walked its own decision windows, ``simulate``
ran its own cluster loop and ``chaos`` assembled a private runtime; one
:class:`~repro.core.runtime.AutoscalingRuntime` per run, scored by
``evaluate_plan`` / ``replay_plan``, prints the same bytes.  The
``backtest`` case was recorded while it could still fan its windows
across worker processes; the serial loop prints the same bytes.
"""

import pytest

from repro.cli import main

#: name -> (argv, stdout)
GOLDEN = {
    'backtest-monitor': (
        ['backtest', '--model', 'deepar', '--epochs', '1', '--days', '6', '--context', '96', '--horizon', '24', '--monitor'],
        'windows evaluated   : 5\nsteps scored        : 120\n Model  mean_wQL  wQL[0.7]  wQL[0.8]  wQL[0.9]  Cov[0.7]  Cov[0.8]  Cov[0.9]       MSE\ndeepar    0.1311    0.1735    0.1533    0.1110     0.983     1.000     1.000  127083.5\n\nmodel health\n\n  calibration over time (24 steps/window)\n   win       t-range   cov@0.5   cov@0.6   cov@0.7   cov@0.8   cov@0.9  cal.err  mean_wQL    MAPE  drift\n     0       744-767     0.458     0.833     0.917     1.000     1.000    0.185    0.0709   0.047      0\n     1       768-791     0.958     1.000     1.000     1.000     1.000    0.247    0.0851   0.103      0\n     2       792-815     0.917     1.000     1.000     1.000     1.000    0.226    0.0727   0.074      0\n     3       816-839     1.000     1.000     1.000     1.000     1.000    0.369    0.2647   0.395      0\n     4       840-863     1.000     1.000     1.000     1.000     1.000    0.343    0.2473   0.384      0\n',
    ),
    'compare': (
        ['compare', '--trace', 'google', '--days', '6', '--epochs', '1', '--context', '96', '--horizon', '24'],
        'strategy            under     over    nodes\nReactive-Max       0.0750   0.8167     6083\nReactive-Avg       0.2750   0.4917     5311\nTFT-0.5            0.2750   0.6667     5496\nTFT-0.8            0.1500   0.8250     6095\nTFT-0.9            0.0917   0.9000     6520\nTFT-0.95           0.0833   0.9167     6845\n',
    ),
    'compare-monitor': (
        ['compare', '--trace', 'google', '--days', '6', '--epochs', '1', '--context', '96', '--horizon', '24', '--monitor'],
        'strategy            under     over    nodes  cal.err  drift\nReactive-Max       0.0750   0.8167     6083        -      -\nReactive-Avg       0.2750   0.4917     5311        -      -\nTFT-0.5            0.2750   0.6667     5496    0.245      0\nTFT-0.8            0.1500   0.8250     6095    0.245      0\nTFT-0.9            0.0917   0.9000     6520    0.245      0\nTFT-0.95           0.0833   0.9167     6845    0.245      0\n',
    ),
    'simulate': (
        ['simulate', '--trace', 'alibaba', '--days', '5', '--model', 'naive', '--context', '144', '--horizon', '36'],
        'intervals simulated : 180\nplanning decisions  : 1\nviolations          : 19 (10.6%)\nnode-hours consumed : 916\noracle node-hours   : 846\nscale events        : 34 out / 31 in\n',
    ),
    'evaluate-faults': (
        ['evaluate', '--trace', 'alibaba', '--days', '7', '--model', 'naive', '--context', '144', '--horizon', '36', '--faults', 'nan@5,spike@20:8,planner_error@150,node_crash@30'],
        'strategy            : SeasonalNaiveForecaster/fixed-0.9\nunder-provisioning  : 0.1984\nover-provisioning   : 0.7183\ntotal node-steps    : 11015\nminimum node-steps  : 8381\nplanning decisions  : 3\nfallback intervals  : 144\nQoS violations      : 50 (19.8%, 0 warm-up limited)\nnode-hours consumed : 1836\nfaults injected     : 4 scheduled (telemetry: nan=1, spike=1)\ninvalid observations: 1 (imputed)\nplanner errors      : 2 (36 degraded intervals)\nactuation failures  : 1 crashes, 0 provision, 0 warm-up\n',
    ),
    'chaos': (
        ['chaos', '--trace', 'alibaba', '--days', '7', '--model', 'naive', '--context', '144', '--horizon', '36', '--fault-seed', '0'],
        'chaos report (252 intervals)\n  faults scheduled    : drop=3, duplicate=2, nan=6, node_crash=3, planner_error=15, planner_timeout=9, provision_fail=5, spike=5, warmup_stall=1\n  telemetry injected  : drop=3, duplicate=2, nan=6, spike=5\n  planner faults hit  : 6\n\n  violations          : 25.8% clean -> 14.7% faulted (+-11.1%)\n  node-steps          : 9269 clean -> 13973 faulted (+50.7%)\n\n  invalid observations: 9\n  planner errors      : 6\n  degraded intervals  : 108\n  decisions by source : degraded=3, reactive-fallback=144\n  actuation failures  : 3 crashes, 1 provision, 0 warm-up\n  determinism         : repeat run bit-identical\n',
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_the_recording(name, capsys):
    argv, expected = GOLDEN[name]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
