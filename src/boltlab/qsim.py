"""Dense pure-state simulator over qubits.

Basis convention: qubit j is bit j of the basis index (LSB first), so a
GF(2) vector packed into an int *is* its basis index.  States are
immutable; every operation returns a new state, and data derived from one is
kept on it and dies with it.  Gates do not renormalize, so norm drift stays
visible to the hygiene tests.  Measurements are Born draws from a kept CDF
(``born_cdf``, ``draw``); no post-measurement state is
built here.  Amplitudes are float64 unless an input is complex; numpy's type
promotion keeps them real.

A state's JSON form lists its entries as ``["hex",re,im]``, written a block at
a time by ``state_dump``.  ``state_load`` reads them from the file a block at
a time, as a structural index does (Langdale and Lemire, "Parsing Gigabytes of
JSON per Second"): each block's quotes locate its entries, the hex digits are
read by a table, and the tails ``",re,im]`` are compared in place, so a tail is
checked and parsed once per run of equal ones.  An honest register, of one
amplitude, has one tail.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import jsonio
from .errors import DimensionMismatch, PreconditionError, QubitCapExceeded

DEFAULT_QUBIT_CAP = 26

_SQRT_HALF = 1.0 / np.sqrt(2.0)

_BLOCK = 1 << 13  # amplitudes a state dump spells at a time
_READ = 1 << 17  # bytes of entries a state load reads at a time
_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)
_NIBBLE = np.full(256, 16, np.uint8)  # the value of a hex digit's byte; a quote is 0, others 16
_NIBBLE[np.frombuffer(b'0123456789abcdefABCDEF"', np.uint8)] = [*range(16), *range(10, 16), 0]
_NUM = rb"(?:(?:-?[1-9][0-9]*|-0(?=[.eE])|0)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity)"
_HEXES = re.compile(rb"-?[0-9a-fA-F]+")  # a compact entry is ["hex",re,im]: its index,
_TAIL = re.compile(rb'",%s,%s\]' % (_NUM, _NUM))  # then its tail
_UNQUOTE = bytes.maketrans(b'"]', b"  ")  # tails to floats and commas, which np.fromstring reads


def qubit_cap() -> int:
    env = os.environ.get("LF_QUBIT_CAP")
    return int(env) if env else DEFAULT_QUBIT_CAP


def check_num_qubits(q: int):
    """Checked wherever a register size enters, before anything is allocated."""
    if q < 1:
        raise PreconditionError("need at least one qubit")
    if q > qubit_cap():
        raise QubitCapExceeded(f"{q} qubits exceeds cap {qubit_cap()}")


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amps: np.ndarray
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise PreconditionError("need at least one qubit")
        if self.amps.shape != (1 << self.num_qubits,):
            raise DimensionMismatch("amplitude array length is not 2^num_qubits")
        nrm = float(np.linalg.norm(self.amps))
        if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-6:
            raise PreconditionError(f"state norm {nrm} too far from 1")
        self.amps.flags.writeable = False


def wht(amps: np.ndarray, qubit: int) -> np.ndarray:
    """Hadamard on one qubit of a flat amplitude array, as a new array: (a0 + a1) / sqrt 2 and
    (a0 - a1) / sqrt 2 on the amplitude pairs that differ in that bit.  Applied to every qubit
    in turn, this is the fast Walsh-Hadamard transform."""
    out = np.empty_like(amps)
    a, b = amps.reshape(-1, 2, 1 << qubit), out.reshape(-1, 2, 1 << qubit)
    np.add(a[:, 0, :], a[:, 1, :], out=b[:, 0, :])
    np.subtract(a[:, 0, :], a[:, 1, :], out=b[:, 1, :])
    b *= _SQRT_HALF
    return out


def born_mass(kept: np.ndarray) -> float:
    """Born mass of a projection's output, its squared norm; a mass at or below 1e-300 keeps
    nothing and is 0."""
    p = float(np.linalg.norm(kept) ** 2)
    return 0.0 if p <= 1e-300 else p


def born_cdf(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(support, cdf) of a Born table: the CDF ``Generator.choice(p=table / table.sum())``
    builds, kept on the support only (a zero-mass entry adds exactly 0.0)."""
    support = np.flatnonzero(table)
    cdf = np.cumsum(table[support] / table.sum())
    cdf /= cdf[-1]
    support.flags.writeable = cdf.flags.writeable = False  # kept and drawn from again
    return support, cdf


def draw(cdf: Tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> int:
    """One Born draw from a ``born_cdf``: the outcome and the generator state are
    those of ``rng.choice`` over the whole table."""
    support, cum = cdf
    return int(support[np.searchsorted(cum, rng.random(), "right")])


def _spell(idx: np.ndarray, real: np.ndarray, imag: np.ndarray) -> bytes:
    """``["hex",re,im],`` per entry, as ``json.dumps`` spells the list form: hex digits by a nibble
    table, and each distinct float (by bits: -0.0 is not 0.0) once, by one encode of their list."""
    bits, inverse = np.unique(np.concatenate([real, imag]).view(np.uint64), return_inverse=True)
    words = np.array(jsonio.encode(bits.view(np.float64).tolist())[1:-1].split(","), "S")
    words = words.view(np.uint8).reshape(bits.size, -1)[inverse].reshape(2, idx.size, -1)
    shifts = np.arange(4 * (max(int(idx[-1]).bit_length(), 1) + 3 >> 2) - 4, -1, -4)
    nib = idx[:, None] >> shifts & 15
    hexes = np.where((np.cumsum(nib, axis=1) > 0) | (shifts == 0), _HEX[nib], 0)
    rows = np.hstack([np.tile(np.frombuffer(c, np.uint8), (idx.size, 1)) if isinstance(c, bytes)
                      else c for c in (b'["', hexes, b'",', words[0], b",", words[1], b"],")])
    return rows[rows != 0].tobytes()  # a NUL pads a short float or a leading zero


def state_dump(state) -> dict:
    """Sparse JSON form: entries [index hex, re, im] with |amp| > 1e-12, a ``jsonio.Text`` part a
    block of amplitudes; a real state's im is 0.0, so it writes the bytes of it held as complex.
    A state held as its sorted support, a description or a money note, is spelled from it and
    its one amplitude, broadcast, cut where the blocks are: its amplitudes' parts."""
    parts, support = [b"["], getattr(state, "support", None)
    amps = state.amps if support is None else np.broadcast_to(1.0 / np.sqrt(support.size),
                                                               support.shape)
    cuts = range(0, 1 << state.num_qubits, _BLOCK)  # a support is cut where the blocks start
    cuts = [*(cuts if support is None else np.searchsorted(support, cuts)), amps.size]
    for lo, hi in zip(cuts, cuts[1:]):
        block = amps[lo:hi]
        idx = np.flatnonzero(np.abs(block) > 1e-12)
        if idx.size:
            at = idx + lo if support is None else support[idx + lo]
            parts.append(_spell(at, block[idx].real, block[idx].imag))
    parts[-1] = parts[-1][:-1] + b"]" if len(parts) > 1 else b"[]"  # no comma after the last entry
    return {"num_qubits": state.num_qubits, "entries": jsonio.Text(tuple(parts))}


def _entry_block(raw):
    """(index, re, im) of the entries in ``raw``, or None unless those bytes are compact entries
    ``["hex",re,im]`` joined by commas, the hex ``_HEXES`` and the tail ``_TAIL``.  Each entry
    is found from its quotes: ``["`` before its hex digits, its tail after them and a comma
    before the next.  A tail equal to the one before it, compared in place, joins that tail's
    run; the runs' tails, picked out by one mask, are checked by ``_TAIL`` and their floats
    parsed by one ``np.fromstring``, and scattered back.  The index errors are raised once all
    of ``raw`` is checked."""
    data = np.frombuffer(raw, np.uint8)
    quotes = np.flatnonzero(data == 34)
    if not quotes.size or quotes.size % 2:
        return None
    first, stop = quotes[0::2] + 1, quotes[1::2]  # an entry's hex digits are raw[first:stop]
    tail_end = np.append(first[1:] - 3, data.size)  # a tail ends before the next "," and "["
    length, widths = tail_end - stop, stop - first
    width = int(widths.max())
    pos = np.maximum(stop[:, None] + np.arange(-min(width, 16), 0), first[:, None] - 1)
    nib = _NIBBLE[data[pos]]  # right-aligned, quote-padded
    signed = data[first] == 45  # "-"
    wide = widths > 16  # digits the nibbles do not reach
    # every digit is hex but a leading sign; a wide index is matched whole
    if (first[0] != 2 or (data[first - 2] != 91).any() or (data[first[1:] - 3] != 44).any()
            or (length < 6).any() or (widths <= signed).any()
            or np.count_nonzero(nib > 15) != np.count_nonzero(signed & ~wide)
            or not all(_HEXES.fullmatch(raw, f, t) for f, t in zip(first[wide], stop[wide]))):
        return None
    span = min(int(length.max()), 64, data.size - int(stop[-1]))  # a longer tail is its own run
    rows = as_strided(data, (data.size - span + 1, span), (1, 1))[stop]
    if length.min() < span:
        rows[np.arange(span) >= length[:, None]] = 0  # the bytes after a shorter tail
    same = (length[1:] == length[:-1]) & (length[1:] <= span)
    if not np.array_equal(rows[1:], rows[:-1]):  # an honest register's block is one run
        whole = rows.view(f"V{span}").reshape(-1)  # a row as one value
        same &= whole[1:] == whole[:-1]
    new = np.concatenate([[True], ~same])
    lo, hi = stop[new], tail_end[new]
    if lo.size == 1:  # one run, as in an honest register's block
        tails = raw[lo[0]:hi[0]]
    else:  # +1 where a run's tail starts, -1 past its end
        mark = np.zeros(hi[-1] - lo[0] + 1, np.int8)
        mark[lo - lo[0]], mark[hi - lo[0]] = 1, -1
        tails = data[lo[0]:hi[-1]][np.cumsum(mark[:-1], dtype=np.int8).view(bool)].tobytes()
    if _TAIL.sub(b"", tails):
        return None
    if width > 15 or signed.any():  # more digits than an index has, or a sign
        raise PreconditionError("state entry index outside the register")
    idx = nib @ (1 << np.arange(4 * width - 4, -1, -4))
    values = np.fromstring(tails.translate(_UNQUOTE)[2:], sep=",")  # re,im,re,im...
    run = np.cumsum(new) - 1
    return idx, values[0::2][run], values[1::2][run]


def _entry_blocks(entries, spelled: bool = False):
    """(index, re, im) of compact entries bytes, read by ``_entry_block`` a block at a time: from an
    entry's ``[`` to the first ``]`` at or after ``_READ`` bytes on, read ``_READ`` bytes at a time
    from a loaded file.  Other text (spaced, or an integer -0, read by json as 0) is respelled from
    json's, from the first entry no block has yielded."""
    parts = (entries.parts if isinstance(entries, jsonio.Text)
             else (jsonio.encode(entries).encode(),))
    text = parts[0] if len(parts) == 1 else b"".join(parts)
    start, done, held, last = 1, 0, b"", len(text) - 1  # held: text[start:start + len(held)]
    if text[:1] != b"[" or text[last:] != b"]":
        raise ValueError("state entries are not a list of [index hex, re, im]")
    while start < last:
        lo = min(_READ, last - start)  # its "]": held[k], at or after held[lo], or else text[last]
        while ((k := held.find(b"]", lo, last - start)) < 0 or k + 1 == len(held)) and (
                start + len(held) < last):
            held += text[start + len(held):start + len(held) + _READ]
        end = start + k + 1 if k >= 0 else last
        # the byte after the block first: an index is refused only once the text around it passes
        if end < last and held[end - start] != 44 or (  # ","
                block := _entry_block(held[:end - start])) is None:
            if spelled:
                raise ValueError("state entries are not a list of [index hex, re, im]")
            yield from _entry_blocks(json.loads(str(text[:], "utf-8"))[done:], True)
            return
        yield block
        start, done, held = end + 1, done + block[0].size, held[end - start + 1:]


def state_load(doc: dict) -> StateVector:
    """Inverse of ``state_dump``: the qubit count is checked before anything is allocated, and
    each block of entries is scattered into the amplitudes as it is read; an index outside the
    register, then one repeated, is refused once every block is read.
    The state is real when every imaginary part is 0."""
    q = jsonio.integer(doc, "num_qubits")
    check_num_qubits(q)
    amps, seen, imags, count, fits = np.zeros(1 << q), np.zeros(1 << q, dtype=bool), [], 0, True
    for idx, real, imag in _entry_blocks(doc["entries"]):
        if fits := fits and idx.max() < 1 << q:
            amps[idx], seen[idx] = real, True
        if imag.view(np.uint64).any():  # -0.0 too, which a complex state keeps
            imags.append((idx, imag))
        count += idx.size
    if not fits:
        raise PreconditionError("state entry index outside the register")
    if np.count_nonzero(seen) != count:
        raise PreconditionError("state entries repeat a basis index")
    if any(imag.any() for _, imag in imags):
        amps = amps.astype(np.complex128)
        for idx, imag in imags:
            amps.imag[idx] = imag
    return StateVector(q, amps)
