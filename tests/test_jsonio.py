import gc
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boltlab import jsonio

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def _same(a, b) -> bool:
    """Equality that also holds for NaN and tells -0.0 from 0.0."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({"x": [-0.0, float("nan"), float("inf"), float("-inf")]})
def test_dumps_loads_round_trip(value):
    text = jsonio.dumps(value)
    assert _same(jsonio.loads(text), value)
    assert jsonio.dumps(jsonio.loads(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(-(2**63), 2**63 - 1), st.floats(), st.floats(width=32), st.booleans())
def test_numpy_scalars_serialize_like_their_item(i, x, x32, b):
    for v in (np.int64(i), np.uint8(i % 256), np.float64(x), np.float32(x32), np.bool_(b)):
        assert jsonio.dumps([v]) == jsonio.dumps([v.item()])


def test_loads_restores_the_collector_and_keeps_its_error_kind():
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert jsonio.loads('{"e": [["1f", 0.5, 0.0]]}') == {"e": [["1f", 0.5, 0.0]]}
            assert gc.isenabled() is enabled
            for bad in ('{"e": [1, 2', "", "[1,]", "NaN1"):
                with pytest.raises(ValueError):
                    jsonio.loads(bad)
                assert gc.isenabled() is enabled
    finally:
        gc.enable()


KEYS = st.text(max_size=4) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()


@st.composite
def _shared_documents(draw):
    """A document built bottom-up: every new list, tuple or dict holds earlier
    values, so a value drawn twice is the same object in two places."""
    values = draw(st.lists(JSON_VALUES, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 6))):
        picks = [values[i] for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=5))]
        kind = draw(st.sampled_from([list, tuple, dict]))
        if kind is dict:
            values.append({draw(KEYS): v for v in picks})
        else:
            values.append(kind(picks))
    return values[-1]


@settings(max_examples=200, deadline=None)
@given(_shared_documents())
def test_dumps_of_shared_objects_is_one_stdlib_dumps(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, separators=(",", ":"))


def test_dumps_encodes_a_repeated_object_once_and_refuses_cycles():
    shared = {"entries": [[1, 0.5], [2, 0.25]]}
    doc = {"registers": [shared, shared, [shared]], "again": shared}
    with mock.patch.object(jsonio, "_dumps", wraps=jsonio._dumps) as calls:
        assert jsonio.dumps(doc) == json.dumps(doc, separators=(",", ":"))
    encoded = [c.args[0] for c in calls.call_args_list]
    assert sum(d is shared["entries"][0] for d in encoded) == 1
    loop = []
    loop.append([loop])
    with pytest.raises(ValueError):
        jsonio.dumps({"a": loop})
