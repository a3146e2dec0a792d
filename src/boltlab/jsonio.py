"""Deterministic JSON for reports and files, with long arrays carried as their text.

Floats are spelled by their shortest round-trip ``repr``, ``nan`` and ``inf`` as ``NaN`` and
``Infinity`` (``loads`` reads them back), and dict order is kept, so a rerun writes the same
bytes.  ``dump`` is one compact ``json`` encode of the whole document with each ``Text``'s parts
written in its place.  ``loads`` is ``json.loads``, but an array after a whole ``TEXT_ARRAYS``
key is a ``Text`` of its span (see ``_scan_value``).  A value met twice is written and read twice.
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
    """``json.dumps(obj, separators=(",", ":"))``, written with each ``Text``'s parts in its place:
    json spells a ``Text`` as a marker string, whose occurrences are then split on."""
    texts, marker = [], "#"

    def default(o):
        if isinstance(o, Text):
            texts.append(o)
            return marker
        return _numpy_scalar(o)
    spell = json.JSONEncoder(separators=(",", ":"), default=default).encode
    # the encode runs before len(texts) is read, so texts holds the Texts it met
    while len(pieces := spell(obj).split(f'"{marker}"')) != len(texts) + 1:
        texts.clear()
        marker *= 2  # a document string or key spells the marker too: lengthen it until none does
    fh.write(pieces[0])
    for text, piece in zip(texts, pieces[1:]):
        fh.writelines(text.parts)
        fh.write(piece)


def dumps(obj: Any) -> str:
    dump(obj, out := io.StringIO())
    return out.getvalue()


def _scan_value(text: str, i: int):
    """json's ``scan_once``, but containers are walked by json's own Python parsers, and an array
    right after a whole ``TEXT_ARRAYS`` key (its quote follows ``{`` or ``,``) is the ``Text`` of
    its span up to that key's end, unless the span holds ``{`` or ``:`` as no entries array does."""
    if text.startswith("{", i):
        return JSONObject((text, i + 1), True, _scan_value, None, None)
    if not text.startswith("[", i):
        return _scan(text, i)
    for key, end in TEXT_ARRAYS.items():
        if text.endswith(spelled := encode(key) + ":", 0, i):
            k = i - len(spelled)
            while k and text[k - 1] in " \t\n\r":
                k -= 1
            if k and text[k - 1] in "{," and (
                    -1 == text.find("{", i, j := end(text, i)) == text.find(":", i, j)):
                return Text((text[i:j],)), j
    return JSONArray((text, i + 1), _scan_value)


def loads(text: str) -> Any:
    try:  # text the walk does not take, malformed text too, goes to json.loads
        obj, end = _scan_value(text, WHITESPACE.match(text).end())
        whole = WHITESPACE.match(text, end).end() == len(text)
    except Exception:
        whole = False
    return obj if whole else json.loads(text)
