"""Deterministic JSON for reports and files, read and written as bytes, with long arrays carried
as their bytes.  Floats are spelled by their shortest round-trip ``repr``, ``nan`` and ``inf`` as
``NaN`` and ``Infinity`` (``loads`` reads them back), and dict order is kept, so a rerun writes
the same bytes.  ``dump`` is one compact ``json`` encode of the whole document, written to a binary
handle with each ``Text``'s parts in its place.  ``loads`` of UTF-8 bytes is ``json.loads``, but an
array after a whole ``TEXT_ARRAYS`` key outside any string is a ``Text`` viewing its span of the
bytes: json decodes and reads only the rest.  A value met twice is written and read twice.
"""
from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from typing import Any, BinaryIO

import numpy as np


def _numpy_scalar(obj: Any):
    # np.int64 and np.bool_ are not int or bool subclasses, so json cannot see them
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


encode = json.JSONEncoder(separators=(",", ":"), default=_numpy_scalar).encode  # as json.dumps
TEXT_ARRAYS: dict = {}  # key -> end(data, i) of its array, a Text; set once, by the format owner
_QUOTE = re.compile(rb'(?<!\\)(?:\\\\)*"')  # a quote no backslash escapes


def _same(a, b) -> bool:  # two bytes-like objects, compared in place 64 KiB at a time
    a, b = np.frombuffer(a, np.uint8), np.frombuffer(b, np.uint8)
    return a.size == b.size and all(np.array_equal(a[k:k + 65536], b[k:k + 65536])
                                    for k in range(0, a.size, 65536))


@dataclass(frozen=True, eq=False)
class Text:
    """A value carried as its JSON bytes, in bytes-like parts (a state dump spells one a block, a
    read views its span of the file); two are equal when their parts are."""
    parts: tuple

    def __eq__(self, other):
        return isinstance(other, Text) and len(self.parts) == len(other.parts) and all(
            map(_same, self.parts, other.parts))


def integer(doc: dict, name: str) -> int:
    """``doc[name]``, which must be a JSON integer: a bool, a float or a string is a TypeError."""
    value = doc[name]
    if type(value) is not int:
        raise TypeError(f"{name} is {value!r}, not an integer")
    return value


def dump(obj: Any, fh: BinaryIO) -> None:
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
    fh.write(pieces[0].encode())
    for text, piece in zip(texts, pieces[1:]):
        fh.writelines(text.parts)
        fh.write(piece.encode())


def dumps(obj: Any) -> str:
    dump(obj, out := io.BytesIO())
    return out.getvalue().decode()


def _spans(data: bytes) -> list:
    """(start, end) of each array after a whole ``TEXT_ARRAYS`` key that the unescaped quotes before
    it leave outside any string, up to that key's end, unless it holds ``{`` or ``:``."""
    keys = re.compile(b"(%s):\\[" % b"|".join(re.escape(encode(k).encode()) for k in TEXT_ARRAYS))
    spans, counted, pos, inside = [], 0, 0, False  # the quotes before `counted` are counted
    while found := keys.search(data, pos):
        inside ^= len(_QUOTE.findall(data, counted, found.start())) % 2 == 1
        counted, pos = found.start(), found.start() + 1
        if not inside:
            i = found.end() - 1
            j = TEXT_ARRAYS[json.loads(found[1])](data, i)
            if data.find(b"{", i, j) == -1 == data.find(b":", i, j):  # as no entries array does
                spans.append((i, j))
                counted = pos = j
    return spans


def loads(text: bytes) -> Any:
    if not text.isascii():
        text.decode()  # UTF-8 only: spans are never decoded, so the whole is checked once
    try:  # bytes the skeleton's parse does not take, malformed bytes too, go to json.loads
        spans = _spans(text)
        texts = iter([Text((memoryview(text)[i:j],)) for i, j in spans])
        bounds = [0, *(k for span in spans for k in span), len(text)]
        gaps = [text[a:b].decode() for a, b in zip(bounds[::2], bounds[1::2])]
        # each span stands as an integer that no gap spells, which json hands to parse_int
        mark = "1" * max((len(r) + 1 for gap in gaps for r in re.findall("1+", gap)), default=1)
        obj = json.loads(mark.join(gaps), parse_int=lambda s: next(texts) if s == mark else int(s))
        whole = next(texts, None) is None
    except Exception:
        whole = False
    return obj if whole else json.loads(text.decode())
