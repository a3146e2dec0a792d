"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are packed into Python ints: coordinate ``j`` is bit
``j`` (LSB first).  Hex serialization pads each row to whole bytes with
little-endian bit order inside each byte, which is exactly what
``int.to_bytes(..., "little")`` produces.

All values are immutable after construction; subspaces are canonicalized to
reduced row-echelon form so subspace equality is plain equality of basis
matrices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EnumerationCapExceeded, PreconditionError

ENUMERATION_CAP = 22  # largest affine-space dimension enumerate_affine materializes


@dataclass(frozen=True)
class BitVector:
    """Vector in GF(2)^n, packed into an int (coordinate j = bit j)."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("BitVector length must be >= 1")
        if self.bits < 0 or self.bits >> self.n:
            raise PreconditionError("bits outside of declared length")

    @classmethod
    def zero(cls, n: int) -> "BitVector":
        return cls(0, n)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVector":
        nbytes = (n + 7) // 8
        value = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << n) - 1)
        return cls(value, n)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise DimensionMismatch("vector lengths differ")
        return BitVector(self.bits ^ other.bits, self.n)

    __add__ = __xor__
    __sub__ = __xor__  # subtraction is addition over GF(2)

    def is_zero(self) -> bool:
        return self.bits == 0

    def to_hex(self) -> str:
        return self.bits.to_bytes((self.n + 7) // 8, "little").hex()

    @classmethod
    def from_hex(cls, s: str, n: int) -> "BitVector":
        data = bytes.fromhex(s)
        if len(data) != (n + 7) // 8:
            raise PreconditionError(f"hex string holds {len(data)} bytes, not {(n + 7) // 8}")
        value = int.from_bytes(data, "little")
        if value >> n:
            raise PreconditionError("hex string has bits beyond declared length")
        return cls(value, n)


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix; each row packed into an int."""

    rows: tuple
    cols: int

    def __post_init__(self):
        mask = (1 << self.cols) - 1 if self.cols else 0
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise PreconditionError("row has bits beyond declared width")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << j for j in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        cols = (sum(((r >> j) & 1) << i for i, r in enumerate(self.rows)) for j in range(self.cols))
        return BitMatrix(tuple(cols), self.nrows)

    def to_json(self) -> dict:
        nbytes = (self.cols + 7) // 8
        data = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
        return {"rows": self.nrows, "cols": self.cols, "data": data.hex()}

    @classmethod
    def from_json(cls, doc: dict) -> "BitMatrix":
        nrows, cols = int(doc["rows"]), int(doc["cols"])
        data = bytes.fromhex(doc["data"])
        nbytes = (cols + 7) // 8
        if len(data) != nrows * nbytes:
            raise PreconditionError("packed data length does not match shape")
        rows = tuple(
            int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(nrows)
        )
        return cls(rows, cols)


def combine(rows, bits: int) -> int:
    """XOR of ``rows[j]`` over the set bits j of ``bits``: the row-vector product
    bits^T M on packed rows, one step per set bit."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def eliminate(rows, cols: int) -> tuple:
    """Gauss-Jordan elimination on the low ``cols`` bits of packed rows.

    Bits at and above ``cols`` are augmented columns (a right-hand side, a
    row-operation record): they ride along with every row operation but never
    hold a pivot.  Returns (rows, pivot column list); the first len(pivots)
    rows are the reduced pivot rows in pivot order, and every later row is
    zero in the low ``cols`` bits.
    """
    work = list(rows)
    pivots = []
    head = 0
    for col in range(cols):
        bit = 1 << col
        piv = None
        for i in range(head, len(work)):
            if work[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        work[head], work[piv] = work[piv], work[head]
        prow = work[head]
        for i in range(len(work)):
            if i != head and work[i] & bit:
                work[i] ^= prow
        pivots.append(col)
        head += 1
        if head == len(work):
            break
    return work, pivots


def nullspace_from_rref(reduced, pivots, cols: int) -> list:
    """Kernel basis read off reduced pivot rows: one vector per free column."""
    pivset = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivset:
            continue
        vec = 1 << f
        for row, col in zip(reduced, pivots):
            if (row >> f) & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


def rank(m: BitMatrix) -> int:
    """Row rank over GF(2) via Gaussian elimination."""
    return len(eliminate(m.rows, m.cols)[1])


def nullspace(m: BitMatrix) -> BitMatrix:
    """Basis of {x : M x = 0}, one row per free column (rows already in RREF)."""
    reduced, pivots = eliminate(m.rows, m.cols)
    return BitMatrix(tuple(nullspace_from_rref(reduced, pivots, m.cols)), m.cols)


@dataclass(frozen=True)
class AffineSpace:
    """offset + row-span(basis); basis rows are linearly independent."""

    offset: BitVector
    basis: BitMatrix

    def __post_init__(self):
        if self.basis.cols != self.offset.n:
            raise DimensionMismatch("basis width differs from offset length")
        if rank(self.basis) != self.basis.nrows:
            raise PreconditionError("basis rows must be linearly independent")

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def n(self) -> int:
        return self.offset.n

    def element(self, coeffs: int) -> BitVector:
        return BitVector(self.offset.bits ^ combine(self.basis.rows, coeffs), self.n)


def solve_affine(m: BitMatrix, b: BitVector) -> Optional[AffineSpace]:
    """Full solution set of M x = b, or None when the system is inconsistent."""
    if m.nrows != b.n:
        raise DimensionMismatch(f"matrix has {m.nrows} rows, rhs has {b.n}")
    cols = m.cols
    work, pivots = eliminate(
        [row | (((b.bits >> i) & 1) << cols) for i, row in enumerate(m.rows)], cols
    )
    if any(work[len(pivots):]):  # a zero row with right-hand side 1
        return None
    offset = 0
    for row, col in zip(work, pivots):
        if row >> cols:
            offset |= 1 << col
    basis = BitMatrix(tuple(nullspace_from_rref(work, pivots, cols)), cols)
    return AffineSpace(BitVector(offset, cols), basis)


def enumerate_affine(space: AffineSpace) -> list:
    """All 2^dim elements of the space (dim capped at ENUMERATION_CAP)."""
    if space.dim > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"affine space has dimension {space.dim} > cap {ENUMERATION_CAP}"
        )
    return [space.element(coeffs) for coeffs in range(1 << space.dim)]


def eliminate_each(rows: np.ndarray) -> np.ndarray:
    """``eliminate(rows, 32)`` on each row of a (count, d) uint32 array at once, row by row:
    row i is cleared at the earlier rows' pivots, takes its lowest set bit as its pivot and
    clears that bit from them.  Reduced rows are unique, so a sort by pivot bit (a zero row's
    key wraps past all) gives ``eliminate``'s rows: pivot rows in pivot order, then zero rows.
    """
    work = rows.T.copy()  # work[i] holds every candidate's row i
    pivots = np.zeros_like(work)
    for i, row in enumerate(work):
        for j in range(i):
            row ^= np.where(row & pivots[j], work[j], 0)
        pivots[i] = row & (~row + np.uint32(1))
        for j in range(i):
            work[j] ^= np.where(work[j] & pivots[i], row, 0)
    order = np.argsort(pivots - np.uint32(1), axis=0, kind="stable")
    return np.take_along_axis(work, order, axis=0).T


def random_subspace_rows(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniformly random d-dimensional subspaces of GF(2)^n, n <= 32, as a (count, d)
    uint32 array of canonical RREF bases.

    Rejection sampling: a uniform full-rank d x n matrix has uniform row span
    (every subspace has the same number of ordered bases).  Each round draws
    every pending candidate's rows at once as uint32s masked to n bits (what one
    ``rng.bytes`` per row gave), reduces them all by ``eliminate_each`` and
    redraws those left with a zero row, the rank-deficient ones.
    """
    if d > n:
        raise PreconditionError(f"subspace dimension {d} exceeds ambient {n}")
    out, pending = np.empty((count, d), np.uint32), np.arange(count)
    while pending.size:
        draws = rng.integers(0, 2**32, size=(pending.size, d), dtype=np.uint32) & ((1 << n) - 1)
        reduced = eliminate_each(draws)
        full = reduced.all(axis=1)
        out[pending[full]] = reduced[full]
        pending = pending[~full]
    return out


def random_subspaces(n: int, d: int, count: int, rng: np.random.Generator) -> list:
    """``random_subspace_rows`` as a list of ``BitMatrix`` bases."""
    return [BitMatrix(tuple(rows), n) for rows in random_subspace_rows(n, d, count, rng).tolist()]


def all_subspaces(n: int, d: int) -> list:
    """Every d-dimensional subspace of GF(2)^n, each once, as its RREF basis.

    Walks the Schubert cells: for each pivot set, row i is its pivot bit plus
    any pattern on the non-pivot columns to the right of (higher than) it.
    No candidate is rank-tested, canonicalized or deduplicated.
    """
    out = []
    for pivots in itertools.combinations(range(n), d):
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for pattern in range(1 << len(free)):
            rows = [1 << p for p in pivots]
            for b, (i, c) in enumerate(free):
                rows[i] |= ((pattern >> b) & 1) << c
            out.append(BitMatrix(tuple(rows), n))
    return out


def subspace_elements(s: BitMatrix) -> list:
    """All 2^dim member ints of the row span; entry c is the XOR of the rows c's bits pick."""
    elems = [0]
    for row in s.rows:
        elems += [e ^ row for e in elems]
    return elems
