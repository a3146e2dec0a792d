import gc
import math

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
