"""Property-based tests for the trace anomaly injectors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.traces import Trace, inject_level_shift, inject_outage_dip

traces = st.builds(
    lambda v: Trace("t", v),
    arrays(np.float64, st.integers(20, 60), elements=st.floats(10.0, 2000.0)),
)


class TestAnomalyProperties:
    @settings(max_examples=50)
    @given(traces, st.integers(0, 10), st.floats(-500, 500))
    def test_level_shift_preserves_prefix(self, trace, start, magnitude):
        shifted = inject_level_shift(trace, start, magnitude)
        np.testing.assert_array_equal(shifted.values[:start], trace.values[:start])
        assert np.all(shifted.values >= 0)

    @settings(max_examples=50)
    @given(traces, st.integers(0, 5), st.integers(1, 10), st.floats(0.0, 1.0))
    def test_outage_never_raises_load_during_dip(
        self, trace, start, duration, residual
    ):
        if start + duration > len(trace):
            duration = len(trace) - start
            if duration < 1:
                return
        out = inject_outage_dip(
            trace, start, duration,
            residual_fraction=residual, retry_surge_fraction=0.0,
        )
        window = slice(start, start + duration)
        assert np.all(out.values[window] <= trace.values[window] + 1e-9)

    @settings(max_examples=50)
    @given(traces, st.integers(0, 10), st.floats(-500, 500))
    def test_injection_is_pure(self, trace, start, magnitude):
        before = trace.values.copy()
        inject_level_shift(trace, start, magnitude)
        np.testing.assert_array_equal(trace.values, before)
