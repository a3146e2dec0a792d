"""Deterministic JSON for reports and files, read and written as bytes, with long arrays carried
as their bytes.  Floats are spelled by their shortest round-trip ``repr``, ``nan`` and ``inf`` as
``NaN`` and ``Infinity`` (``load`` reads them back), and dict order is kept, so a rerun writes
the same bytes.  ``dump`` is one compact ``json`` encode of the whole document, written to a binary
handle with each ``Text``'s parts in its place.  ``load`` of a binary file of UTF-8 JSON is
``json.load``, but an array after a whole ``TEXT_ARRAY`` key outside any string, its colon
and any whitespace (an indented file's too), is a ``Text``
that reads its span of the file when read: the file is scanned ``CHUNK`` bytes at a time, and json
decodes and parses only the rest.  A value met twice is written and read twice.
"""
from __future__ import annotations

import codecs
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
CHUNK = 1 << 20  # bytes of a file scanned at a time
TEXT_ARRAY = "entries"  # the key whose arrays, [] or up to "]" ws "]", are Texts; no entry has "]"
_KEY = re.compile(b"%s:[ \t\n\r]*\\[" % re.escape(encode(TEXT_ARRAY).encode()))
_QUOTE = re.compile(rb'(?<!\\)(?:\\\\)*"')  # a quote no backslash escapes
_EMPTY, _CLOSE = re.compile(rb"\[[ \t\n\r]*\]"), re.compile(rb"\][ \t\n\r]*\]")


@dataclass(frozen=True)
class _Span:
    """Bytes ``start:stop`` of an open binary file, read from it on each slice."""
    fh: BinaryIO
    start: int
    stop: int
    __len__ = lambda self: self.stop - self.start

    def __getitem__(self, cut: slice) -> bytes:
        a, b, _ = cut.indices(len(self))
        self.fh.seek(self.start + a)
        return self.fh.read(max(b - a, 0))


@dataclass(frozen=True, eq=False)
class Text:
    """A value carried as its JSON bytes, in parts that slice to bytes (a state dump spells one a
    block, a load reads its span of the file); two are equal when their parts are."""
    parts: tuple

    def __eq__(self, other):  # part by part, 64 KiB at a time
        return isinstance(other, Text) and len(self.parts) == len(other.parts) and all(
            len(a) == len(b) and all(a[k:k + 65536] == b[k:k + 65536]
                                     for k in range(0, len(a), 65536))
            for a, b in zip(self.parts, other.parts))


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
        fh.writelines(part[:] for part in text.parts)
        fh.write(piece.encode())


def dumps(obj: Any) -> str:
    dump(obj, out := io.BytesIO())
    return out.getvalue().decode()


def _scan(fh: BinaryIO) -> tuple:
    """(gaps, texts) of a file read a chunk at a time: its decoded text around each array after a
    whole ``TEXT_ARRAY`` key outside any string, its colon and any whitespace, up to [] or the
    first "]" ws "]" unless it holds "{" or ":", and a Text of each.  Text that is not UTF-8, or
    an array that does not end, raises."""
    longest = len(encode(TEXT_ARRAY)) + 2
    fh.seek(0)
    # buf: the file from base on, read so far; the quotes before `counted` are counted
    gaps, texts, buf, base, counted, pos, inside = [], [], bytearray(), 0, 0, 0, False
    while True:
        found = _KEY.search(buf, pos)
        if found is None:  # the last bytes may start a key, or hold a key, its colon and whitespace:
            # search them again with the next chunk
            pos, size = max(pos, pos + len(buf[pos:].rstrip(b" \t\n\r")) - longest + 1), len(buf)
            buf += fh.read(CHUNK)
            if len(buf) > size:
                continue
            return gaps + [buf.decode()], iter(texts)
        inside ^= len(_QUOTE.findall(buf, counted, found.start())) % 2 == 1
        counted, pos = found.start(), found.start() + 1
        if inside:
            continue
        i = found.end() - 1
        at, seg, empty, plain = base + i, bytes(memoryview(buf)[i:]), True, True
        del buf[i:]  # read again if the array is no span
        utf8 = codecs.getincrementaldecoder("utf-8")()
        while True:  # seg: the file's bytes from `at` on
            end = (empty and _EMPTY.match(seg)) or _CLOSE.search(seg)
            head = seg[:end.end()] if end else seg
            if not head.isascii() or utf8.getstate()[0]:  # UTF-8, checked chunk by chunk
                utf8.decode(head)
            if not (end or (chunk := fh.read(CHUNK))):
                raise ValueError("a text array does not end")
            plain = plain and b"{" not in head and b":" not in head
            if end:
                break
            # keep "[" ws, or a last "]" ws, for the next chunk
            empty = (kept := len(seg.rstrip(b" \t\n\r"))) == 1 and empty
            cut = 0 if empty else kept - 1 if seg[kept - 1:kept] == b"]" else len(seg)
            at, seg = at + cut, seg[cut:] + chunk
        if plain:
            gaps.append(buf.decode())
            texts.append(Text((_Span(fh, base + i, at + end.end()),)))
            buf, base, counted, pos = bytearray(), at + end.end(), 0, 0
        fh.seek(base + len(buf))


def load(fh: BinaryIO) -> Any:
    """``json.loads`` of the file's UTF-8 text, each span a ``Text`` of one ``_Span``, read while
    the file is open.  A file the gaps' parse does not take, malformed too, goes to json whole."""
    try:
        gaps, texts = _scan(fh)
        # each span stands as an integer that no gap spells, which json hands to parse_int
        mark = "1" * max((len(r) + 1 for gap in gaps for r in re.findall("1+", gap)), default=1)
        obj = json.loads(mark.join(gaps), parse_int=lambda s: next(texts) if s == mark else int(s))
        if next(texts, None) is None:
            return obj
    except Exception:  # read whole below, where json raises its own error
        pass
    fh.seek(0)
    return json.loads(fh.read().decode())
