"""Property-based tests for the simulator and QoS model."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import ScalingPlan, evaluate_plan, required_nodes, solve_closed_form
from repro.simulator import MMcQueue, SharedStorage, replay_plan

workloads = arrays(
    dtype=np.float64,
    shape=st.integers(2, 20),
    elements=st.floats(10.0, 4000.0, allow_nan=False),
)


class TestMMcProperties:
    @given(
        st.floats(0.1, 50.0),
        st.floats(1.0, 100.0),
        st.integers(1, 64),
    )
    def test_erlang_c_is_probability(self, arrival, service, servers):
        queue = MMcQueue(arrival, service, servers)
        assert 0.0 <= queue.erlang_c() <= 1.0

    @given(st.floats(10.0, 90.0), st.integers(2, 32))
    def test_more_servers_never_slower(self, load_percent, servers):
        arrival = load_percent  # with mu=100, rho = load/ (servers*100)
        slow = MMcQueue(arrival, 100.0, servers)
        fast = MMcQueue(arrival, 100.0, servers + 1)
        assert fast.mean_wait() <= slow.mean_wait() + 1e-12

    @given(st.floats(0.5, 0.99), st.floats(0.5, 0.99))
    def test_wait_quantile_monotone_in_q(self, q1, q2):
        queue = MMcQueue(arrival_rate=350.0, service_rate=100.0, servers=4)
        lo, hi = sorted((q1, q2))
        assert queue.wait_quantile(lo) <= queue.wait_quantile(hi) + 1e-12

    @given(st.floats(1.0, 1000.0), st.integers(1, 50))
    def test_stability_criterion(self, arrival, servers):
        queue = MMcQueue(arrival, 10.0, servers)
        if queue.utilization < 1.0:
            assert math.isfinite(queue.mean_wait())
        else:
            assert queue.mean_wait() == math.inf


class TestReplayProperties:
    @settings(max_examples=20, deadline=None)
    @given(workloads)
    def test_exact_plans_rarely_violate_at_long_intervals(self, w):
        plan = solve_closed_form(w, 60.0)
        result = replay_plan(
            plan, w, interval_seconds=3600.0,
            storage=SharedStorage(jitter_fraction=0.0),
        )
        # With hour-long intervals, warm-up (seconds) is invisible except
        # for razor-edge demand; every violation must be warm-up-tagged.
        for outcome in result.outcomes:
            if outcome.violated:
                assert outcome.warmup_limited

    @settings(max_examples=20, deadline=None)
    @given(workloads)
    def test_node_seconds_bounded_by_plan(self, w):
        plan = solve_closed_form(w, 60.0)
        result = replay_plan(plan, w, interval_seconds=600.0)
        upper = plan.nodes.max() * 600.0 * len(w)
        assert 0.0 < result.total_node_seconds <= upper + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(workloads, st.integers(1, 5))
    def test_overprovisioned_plans_never_violate(self, w, extra):
        plan = solve_closed_form(w, 60.0)
        padded = ScalingPlan(nodes=plan.nodes + extra, threshold=60.0)
        result = replay_plan(
            padded, w, interval_seconds=3600.0,
            storage=SharedStorage(jitter_fraction=0.0),
            initial_nodes=int(padded.nodes[0]),
        )
        assert result.violation_rate == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 20),  # nodes
                st.integers(1, 20),  # whole nodes the workload needs, before the nudge
                st.floats(-1e-10, 1e-10, allow_nan=False),  # nudge onto the boundary
            ),
            min_size=1, max_size=12,
        ),
        st.sampled_from([60.0, 45.5, 7.3, 100.0]),
    )
    def test_replay_violations_are_evaluate_plans_under_provisioned_steps(self, steps, theta):
        """Both scorers apply ``required_nodes``' rule; without a scale-out
        no node warms up, so they flag the same steps - on the boundary too."""
        nodes = sorted((n for n, _, _ in steps), reverse=True)
        workload = np.array([max(k * theta + nudge, 0.0) for _, k, nudge in steps])
        plan = ScalingPlan(nodes=nodes, threshold=theta)
        result = replay_plan(plan, workload)
        under = plan.nodes < required_nodes(workload, theta)
        assert [o.violated for o in result.outcomes] == under.tolist()
        assert sum(o.violated for o in result.outcomes) == evaluate_plan(plan, workload).violation_steps

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 20),  # nodes, in any order: scale-outs included
                st.integers(0, 20),  # whole nodes the workload needs, before the nudge
                st.floats(-1e-10, 1e-10, allow_nan=False),  # nudge onto the boundary
            ),
            min_size=1, max_size=12,
        ),
        st.sampled_from([60.0, 45.5, 7.3, 100.0]),
        st.none() | st.integers(1, 20),
    )
    def test_zero_warmup_replay_is_evaluate_plan(self, steps, theta, initial):
        """With no warm-up a scaled-out node serves its whole first interval,
        so the replay flags exactly evaluate_plan's under-provisioned steps."""
        plan = ScalingPlan(nodes=[n for n, _, _ in steps], threshold=theta)
        workload = np.array([max(k * theta + nudge, 0.0) for _, k, nudge in steps])
        storage = SharedStorage(checkpoint_gb=0, attach_latency_s=0, jitter_fraction=0)
        result = replay_plan(plan, workload, storage=storage, initial_nodes=initial)
        under = plan.nodes < required_nodes(workload, theta)
        assert [o.violated for o in result.outcomes] == under.tolist()
        assert sum(o.violated for o in result.outcomes) == evaluate_plan(plan, workload).violation_steps
