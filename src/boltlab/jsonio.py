"""Deterministic JSON emission for experiment reports.

Floats are spelled by Python's shortest round-trip ``repr`` (``0.1``,
``0.0``), so a rerun with the same seed produces byte-identical documents
and values round-trip exactly; ``nan`` and ``inf`` are written as ``NaN``
and ``Infinity``, which ``loads`` reads back.  Dict insertion order is
preserved; reports are built with fixed key order.  A dict or list met more
than once (one object, as a product bolt's one state dump) is encoded once,
and the text is that of one ``json.dumps`` of the whole document.
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


_dumps = json.JSONEncoder(separators=(",", ":"), default=_numpy_scalar).encode  # as json.dumps


def dumps(obj: Any) -> str:
    text = {}  # id -> text of each dict and list met, so a repeated one is encoded once

    def encode(o) -> str:
        if isinstance(o, (dict, list)) and id(o) not in text:
            text[id(o)] = None  # until done: a cycle finds None, and json.dumps refuses it
            values = o.values() if isinstance(o, dict) else o  # set(map(type, ...)) runs in C
            if not any(issubclass(t, (dict, list)) for t in set(map(type, values))):
                text[id(o)] = _dumps(o)
            elif isinstance(o, dict):  # _dumps({k: 0})[1:-3] spells key k as json.dumps does
                parts = (_dumps({k: 0})[1:-3] + ":" + encode(v) for k, v in o.items())
                text[id(o)] = "{%s}" % ",".join(parts)
            else:
                text[id(o)] = "[%s]" % ",".join(map(encode, o))
        return text.get(id(o)) or _dumps(o)

    return encode(obj)


def loads(text: str) -> Any:
    enabled = gc.isenabled()
    gc.disable()  # a bolt file parses into one list per amplitude, none in a cycle
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()
