"""Deterministic JSON emission for experiment reports.

Floats are spelled by Python's shortest round-trip ``repr`` (``0.1``,
``0.0``), so a rerun with the same seed produces byte-identical documents
and values round-trip exactly; ``nan`` and ``inf`` are written as ``NaN``
and ``Infinity``, which ``loads`` reads back.  Dict insertion order is
preserved; reports are built with fixed key order.
"""
from __future__ import annotations

import gc
import json
from typing import Any

import numpy as np


def _numpy_scalar(obj: Any):
    # np.int64 and np.bool_ are not int or bool subclasses, so json cannot see them
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), default=_numpy_scalar)


def loads(text: str) -> Any:
    enabled = gc.isenabled()
    gc.disable()  # a bolt file parses into one list per amplitude, none in a cycle
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()
