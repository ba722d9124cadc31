"""The JSONL sink writes the values the stdlib encoder wrote.

The sink once encoded with ``json.JSONEncoder`` and, when a record held
a non-finite float, fell back to a round trip that nulled it.
:class:`~repro.obs.sinks.JsonlSink` now writes through one orjson call.
Its bytes differ (compact separators, raw UTF-8, shortest float forms),
but every line must parse to the value the old path's line parsed to,
type for type.  The old path is kept below verbatim as the reference,
but for its numpy fallback, which now writes an array of any size as a
list.
The two values orjson refuses and the stdlib encoded - an int beyond
64 bits and a lone surrogate - must raise and leave the file as it was.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import JsonlSink


# -- the reference: the sink's encode before it moved to orjson --------
def _reference_line(record: dict) -> str:
    try:
        line = _ENCODER.encode(record)
    except ValueError:
        # Non-finite floats (empty-histogram min/max, inf burn
        # rates) would serialize as bare NaN/Infinity tokens no
        # strict JSON parser accepts; null them instead.  The
        # round-trip normalises numpy scalars first so _sanitize
        # only ever sees plain floats.
        normalized = json.loads(json.dumps(record, default=_jsonable))
        line = json.dumps(_sanitize(normalized), allow_nan=False)
    return line + "\n"


def _sanitize(value):
    """Replace non-finite floats with None, recursively."""
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def _jsonable(value):
    """Fallback encoder for numpy scalars/arrays in metadata."""
    # The old path tried ``.item()`` first, so a one-element array was
    # written as a bare scalar; the reference takes the sink's fix.
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


_ENCODER = json.JSONEncoder(default=_jsonable, allow_nan=False)


# -- generated records ---------------------------------------------------
def _same(a, b) -> bool:
    """Equal values of equal types; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


floats = st.floats(allow_nan=True, allow_infinity=True)
ints = st.integers(-(2**63), 2**64 - 1)
int64s = st.integers(-(2**63), 2**63 - 1)
# No surrogates: a lone one is tested on its own.
texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    elements = int64s if dtype is np.int64 else st.floats(width=32 if dtype is np.float32 else 64)
    shape = draw(st.sampled_from([(), (0,), (1,), (3,), (2, 3), (4, 2)]))
    values = draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    array = np.array(values, dtype=dtype).reshape(shape)
    if array.ndim == 2 and draw(st.booleans()):
        array = array.T  # non-contiguous
    elif array.ndim == 1 and array.size > 1 and draw(st.booleans()):
        array = array[::2]  # strided
    return array


scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    floats,
    texts,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    int64s.map(np.int64),
    st.booleans().map(np.bool_),
    arrays(),
)
keys = st.one_of(texts, int64s, st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)
records = st.dictionaries(keys, values, max_size=5)


@settings(max_examples=300, deadline=None)
@given(record=records)
def test_every_line_parses_to_what_the_stdlib_line_parsed_to(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("sink") / "records.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(record)
    written = path.read_bytes()
    assert written.endswith(b"\n") and written.count(b"\n") == 1
    expected = json.loads(_reference_line(record))
    assert _same(json.loads(written), expected)


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "event", "value": 2**64},
        {"kind": "event", "nested": [{"value": -(2**63) - 1}]},
        {"kind": "event", "name": "\ud800"},
        {"kind": "event", "labels": {"\udfff": 1}},
    ],
    ids=["int-beyond-u64", "int-below-i64", "lone-surrogate-value", "lone-surrogate-key"],
)
def test_a_value_json_cannot_carry_raises_and_writes_nothing(tmp_path, record):
    _reference_line(record)  # the stdlib encoded it
    path = tmp_path / "records.jsonl"
    with JsonlSink(path) as sink:
        sink.emit({"kind": "event", "before": 1})
        with pytest.raises(TypeError, match="64-bit|surrogates"):
            sink.emit(record)
        assert sink.records_written == 1
    assert path.read_bytes() == b'{"kind":"event","before":1}\n'
