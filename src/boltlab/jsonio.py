"""Deterministic JSON for reports and files, written in pieces and read with repeats shared.

Floats are spelled by their shortest round-trip ``repr``, ``nan`` and ``inf`` as ``NaN`` and
``Infinity`` (``loads`` reads them back), and dict order is kept, so a rerun writes the same
bytes.  ``dump`` writes one ``json.dumps`` of the whole document without holding its text; a
dict or list of scalars met twice (a product bolt's one state dump) is encoded once, a ``Text``
written verbatim.  ``loads`` is ``json.loads``, but below the top two levels a value whose text
repeats the one scanned before is that object, and an array after a ``TEXT_ARRAYS`` key a ``Text``.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from json.decoder import WHITESPACE, JSONArray, JSONObject
from typing import Any, TextIO

import numpy as np


def _numpy_scalar(obj: Any):
    # np.int64 and np.bool_ are not int or bool subclasses, so json cannot see them
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


encode = json.JSONEncoder(separators=(",", ":"), default=_numpy_scalar).encode  # as json.dumps
_scan = json.JSONDecoder().scan_once  # the C scanner json.loads runs
TEXT_ARRAYS: dict = {}  # key -> end(text, i) of its array, a Text; set once, by the format owner


@dataclass(frozen=True)
class Text:
    """A value carried as its JSON text, in parts (a state dump spells one a block); two are
    equal when their parts are, as two dumps of one state and two reads of one text are."""
    parts: tuple


def dump(obj: Any, fh: TextIO) -> None:
    text = {}  # id -> text of each value met but a container of containers, encoded once

    def write(o):
        values = o.values() if isinstance(o, dict) else o  # set(map(type, ...)) runs in C
        if id(o) in text or not isinstance(o, (dict, list)) or not any(
                issubclass(t, (dict, list, Text)) for t in set(map(type, values))):
            return fh.writelines(o.parts) if isinstance(o, Text) else fh.write(
                text.get(id(o)) or text.setdefault(id(o), encode(o)))
        text[id(o)] = None  # while written: a cycle finds None, and json.dumps refuses it
        # encode({k: 0})[1:-3] spells key k as json.dumps does
        keys = [encode({k: 0})[1:-3] + ":" for k in o] if isinstance(o, dict) else [""] * len(o)
        for i, (key, v) in enumerate(zip(keys, values)):
            fh.write(("," if i else "[{"[isinstance(o, dict)]) + key)
            write(v)
        fh.write("]}"[isinstance(o, dict)])
        del text[id(o)]  # walked again where it repeats
    write(obj)


def dumps(obj: Any) -> str:
    dump(obj, out := io.StringIO())
    return out.getvalue()


def _scan_text(text: str, i: int):
    """The C scanner, but an array right after a ``TEXT_ARRAYS`` key and its colon is the
    ``Text`` of its span, which ends where that key's function says."""
    for key, end in TEXT_ARRAYS.items() if text.startswith("[", i) else ():
        if text.endswith(encode(key) + ":", 0, i):
            return Text((text[i:(j := end(text, i))],)), j
    return _scan(text, i)


def _scanner(depth: int):
    """A scan_once that walks the containers of the top depth levels with json's own Python
    parsers, and below them a dict one value at a time and any other value whole with
    ``_scan_text``, except that a value whose text repeats the one scanned before is it."""
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
        value, end = (JSONObject((text, i + 1), True, _scan_text, None, None)
                      if text.startswith("{", i) else _scan_text(text, i))
        last[:] = value, text[i:end]
        return value, end
    return scan


def loads(text: str) -> Any:
    try:  # text the walk does not take, malformed text too, goes to json.loads
        obj, end = _scanner(2)(text, WHITESPACE.match(text).end())
        whole = WHITESPACE.match(text, end).end() == len(text)
    except Exception:
        whole = False
    return obj if whole else json.loads(text)
