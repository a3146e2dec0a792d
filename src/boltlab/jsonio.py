"""Deterministic JSON for reports and files, written in pieces and read with repeats shared.

Floats are spelled by their shortest round-trip ``repr``, ``nan`` and ``inf`` as ``NaN`` and
``Infinity`` (``loads`` reads them back), and dict order is kept, so a rerun writes the same
bytes.  ``dump`` writes one ``json.dumps`` of the whole document without holding its text; a
dict or list of scalars met twice (a product bolt's one state dump) is encoded once.  ``loads``
is ``json.loads``, but below the top two levels a value whose text repeats the one scanned
before it is that same object.
"""
from __future__ import annotations

import gc
import io
import json
from json.decoder import WHITESPACE, JSONArray, JSONObject
from typing import Any, TextIO

import numpy as np


def _numpy_scalar(obj: Any):
    # np.int64 and np.bool_ are not int or bool subclasses, so json cannot see them
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


_dumps = json.JSONEncoder(separators=(",", ":"), default=_numpy_scalar).encode  # as json.dumps
_scan = json.JSONDecoder().scan_once  # the C scanner json.loads runs


def dump(obj: Any, fh: TextIO) -> None:
    text = {}  # id -> text of each value met but a container of containers, encoded once

    def write(o):
        values = o.values() if isinstance(o, dict) else o  # set(map(type, ...)) runs in C
        if id(o) in text or not isinstance(o, (dict, list)) or not any(
                issubclass(t, (dict, list)) for t in set(map(type, values))):
            return fh.write(text.get(id(o)) or text.setdefault(id(o), _dumps(o)))
        text[id(o)] = None  # while written: a cycle finds None, and json.dumps refuses it
        # _dumps({k: 0})[1:-3] spells key k as json.dumps does
        keys = [_dumps({k: 0})[1:-3] + ":" for k in o] if isinstance(o, dict) else [""] * len(o)
        for i, (key, v) in enumerate(zip(keys, values)):
            fh.write(("," if i else "[{"[isinstance(o, dict)]) + key)
            write(v)
        fh.write("]}"[isinstance(o, dict)])
        del text[id(o)]  # walked again where it repeats
    write(obj)


def dumps(obj: Any) -> str:
    dump(obj, out := io.StringIO())
    return out.getvalue()


def _scanner(depth: int):
    """A scan_once that walks the containers of the top depth levels with json's own
    Python parsers and parses each value below them whole with the C scanner, except that
    a value whose text repeats the text of the value scanned just before it is that value."""
    if depth:
        inner = _scanner(depth - 1)
        return lambda text, i: (
            JSONObject((text, i + 1), True, inner, None, None) if text[i:i + 1] == "{"
            else JSONArray((text, i + 1), inner) if text[i:i + 1] == "[" else _scan(text, i))
    last = [None, ""]  # the value scanned last and its text

    def scan(text: str, i: int):
        # a container or string ends where its text does, so a repeated text is all of it
        if last[1][:1] in ("[", "{", '"') and text.startswith(last[1], i):
            return last[0], i + len(last[1])
        value, end = _scan(text, i)
        last[:] = value, text[i:end]
        return value, end
    return scan


def loads(text: str) -> Any:
    enabled = gc.isenabled()
    gc.disable()  # a bolt's one parsed register is one list per amplitude, none in a cycle
    try:
        try:  # text the walk does not take, malformed text too, goes to json.loads
            obj, end = _scanner(2)(text, WHITESPACE.match(text).end())
            whole = WHITESPACE.match(text, end).end() == len(text)
        except Exception:
            whole = False
        return obj if whole else json.loads(text)
    finally:
        if enabled:
            gc.enable()
