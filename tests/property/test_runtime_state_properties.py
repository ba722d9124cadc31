"""``RuntimeState`` is a fixed point of its own serialisation.

For any tick, replan cadence and fault schedule, ``state_dict -> JSON
text -> load_state_dict -> state_dict`` changes nothing, and the loop
that was loaded allocates exactly like the one that never stopped.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoscalingRuntime, ScalingPlan
from repro.core.plan import required_nodes
from repro.faults import FaultSchedule, FlakyPlanner, corrupt_series
from repro.faults.schedule import FaultEvent

CONTEXT, HORIZON, START = 8, 6, 500
MAX_KILL, TAIL = 150, 100
SERIES = np.abs(np.random.default_rng(29).normal(400, 120, size=MAX_KILL + TAIL))


class MeanPlanner:
    """Deterministic planner whose plans carry forecast arrays."""

    name = "mean-quantiles"

    def plan(self, context, start_index=0):
        base = float(np.mean(context))
        trend = np.linspace(0.0, float(context[-1] - context[0]), HORIZON)
        values = np.vstack([
            np.maximum(base * f + trend, 0.0) for f in (0.8, 1.0, 1.2)
        ])
        return ScalingPlan(
            nodes=required_nodes(values[-1], 60.0),
            threshold=60.0,
            strategy=self.name,
            quantile_levels=np.full(HORIZON, 0.9),
            metadata={
                "forecast_levels": np.array([0.1, 0.5, 0.9]),
                "forecast_values": values,
            },
        )


fault_events = st.lists(
    st.one_of(
        st.builds(FaultEvent, st.integers(0, MAX_KILL + TAIL - 1),
                  st.sampled_from(("nan", "planner_error"))),
        st.builds(FaultEvent, st.integers(0, MAX_KILL + TAIL - 1),
                  st.just("spike"), st.floats(1.5, 6.0)),
    ),
    max_size=12,
)


def make_loop(schedule, replan_every):
    planner = FlakyPlanner(MeanPlanner(), schedule, time_offset=START)
    runtime = AutoscalingRuntime(
        planner=planner, context_length=CONTEXT, horizon=HORIZON,
        threshold=60.0, replan_every=replan_every, start_tick=START,
        invalid_policy="impute",
    )
    return runtime, planner


@settings(max_examples=60, deadline=None)
@given(
    kill_at=st.integers(0, MAX_KILL),
    replan_every=st.integers(1, HORIZON),
    events=fault_events,
)
def test_state_is_a_fixed_point_and_the_loaded_loop_continues(
    kill_at, replan_every, events
):
    schedule = FaultSchedule(events)
    observed, _ = corrupt_series(SERIES, schedule)
    stop = kill_at + TAIL

    full, _ = make_loop(schedule, replan_every)
    expected = full.run(observed[:stop])

    victim, victim_planner = make_loop(schedule, replan_every)
    victim.run(observed[:kill_at])
    state = victim.state_dict()
    text = json.dumps(state)

    restored, planner = make_loop(schedule, replan_every)
    restored.load_state_dict(json.loads(text))
    planner.load_state_dict(json.loads(json.dumps(victim_planner.state_dict())))
    assert restored.state_dict() == state
    assert json.dumps(restored.state_dict()) == text

    np.testing.assert_array_equal(
        restored.run(observed[kill_at:stop]), expected[kill_at:]
    )
    assert restored.state_dict() == full.state_dict()
    # History is not state: the loaded loop holds only what it committed
    # itself, under a lifetime count that did not restart.
    committed_before = victim.state.decisions_committed
    assert len(restored.decisions) == len(full.decisions) - committed_before
    assert restored.state.decisions_committed == len(full.decisions)
