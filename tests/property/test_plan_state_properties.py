"""The checkpoint array codec is bit-exact through JSON text.

``ScalingPlan.to_state`` writes every ndarray as a raw-byte record.
Whatever array goes in — any of the dtypes a plan carries, any shape,
any memory layout, any bit pattern — must come back with the same bytes,
dtype and shape after a trip through ``json.dumps`` and ``json.loads``,
as a fresh writable array.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core import ScalingPlan
from repro.core.plan import _decode_value, _encode_value

DTYPES = (np.int64, np.float64, np.float32, np.bool_)
SPECIALS = (
    np.nan, np.inf, -np.inf, -0.0, 0.0,
    5e-324, -5e-324,  # float64 subnormals
    1e-45,  # float32 subnormal
    2.2250738585072014e-308,
)


def _elements(dtype):
    if dtype is np.bool_:
        return st.booleans()
    if dtype is np.int64:
        return st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
    width = 32 if dtype is np.float32 else 64
    special = st.sampled_from(SPECIALS).map(lambda v: float(dtype(v)))
    return st.one_of(st.floats(width=width), special)


@st.composite
def any_array(draw):
    """C-order, transposed, strided or read-only arrays of every dtype."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    array = draw(arrays(dtype, shape, elements=_elements(dtype)))
    layout = draw(st.sampled_from(("c", "transposed", "strided", "readonly")))
    if layout == "transposed":
        array = array.T
    elif layout == "strided" and array.ndim:
        array = np.repeat(array, 2, axis=-1)[..., ::2]
    elif layout == "readonly":
        array.setflags(write=False)
    return array


def assert_same_bits(restored, original):
    assert isinstance(restored, np.ndarray)
    assert restored.dtype == original.dtype
    assert restored.shape == original.shape
    assert restored.tobytes() == original.tobytes()
    assert restored.flags.writeable and restored.flags.owndata


def through_json(state):
    return json.loads(json.dumps(state))


class TestArrayCodec:
    @settings(max_examples=300, deadline=None)
    @given(any_array())
    def test_round_trip_is_bit_exact(self, array):
        text = json.dumps(_encode_value(array))
        restored = _decode_value(json.loads(text))
        assert_same_bits(restored, array)
        # A fresh buffer, not a view of anything the JSON text owns.
        if restored.size:
            restored[...] = np.zeros((), dtype=restored.dtype)
            assert_same_bits(_decode_value(json.loads(text)), array)

    @settings(max_examples=50, deadline=None)
    @given(any_array())
    def test_record_is_text_not_numbers(self, array):
        record = _encode_value(array)
        assert isinstance(record["__ndarray__"], str)
        assert record["dtype"] == array.dtype.str
        assert record["shape"] == list(array.shape)

    @given(st.one_of(st.none(), st.floats(allow_nan=False), st.text(), st.integers()))
    def test_non_arrays_pass_through(self, value):
        assert _decode_value(through_json(_encode_value(value))) == value

    def test_numpy_scalars_unwrap(self):
        assert type(_encode_value(np.float64(1.5))) is float
        assert type(_encode_value(np.int64(3))) is int


node_counts = arrays(
    np.int64, st.integers(0, 12), elements=st.integers(1, 10**12)
)


@st.composite
def plans(draw):
    nodes = draw(node_counts)
    horizon = len(nodes)
    per_step = arrays(np.float64, horizon, elements=_elements(np.float64))
    threshold = draw(st.one_of(st.floats(1e-3, 1e6), per_step))
    levels = draw(st.one_of(st.none(), per_step))
    metadata = draw(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                any_array(),
                st.integers(-5, 5),
                st.text(max_size=8),
                st.sampled_from([np.float64(2.5), np.int64(7)]),
            ),
            max_size=4,
        )
    )
    return ScalingPlan(
        nodes=nodes, threshold=threshold, strategy=draw(st.text(max_size=8)),
        quantile_levels=levels, metadata=metadata,
    )


def assert_same_plan(restored, original):
    assert_same_bits(restored.nodes, original.nodes)
    assert restored.strategy == original.strategy
    for mine, theirs in (
        (restored.threshold, original.threshold),
        (restored.quantile_levels, original.quantile_levels),
    ):
        if isinstance(theirs, np.ndarray):
            assert_same_bits(mine, theirs)
        else:
            assert mine == theirs
    assert restored.metadata.keys() == original.metadata.keys()
    for key, theirs in original.metadata.items():
        if isinstance(theirs, np.ndarray):
            assert_same_bits(restored.metadata[key], theirs)
        else:
            assert restored.metadata[key] == theirs


class TestPlanAndDecisionState:
    @settings(max_examples=150, deadline=None)
    @given(plans())
    def test_plan_round_trip(self, plan):
        state = plan.to_state()
        restored = ScalingPlan.from_state(through_json(state))
        assert_same_plan(restored, plan)
        # Serialising the restored plan reproduces the same document.
        assert restored.to_state() == state
