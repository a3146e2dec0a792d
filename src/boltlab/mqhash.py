"""Degree-2 multivariate hash over GF(2) and its derived bilinear data.

The hash is keyed by n upper-triangular m x m bit matrices; component i of
the digest is the quadratic form x^T A_i x mod 2.  Diagonal entries act as
linear terms because x^2 = x over GF(2), so no separate linear-term storage
is needed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import jsonio
from .errors import DimensionMismatch, EnumerationCapExceeded, PreconditionError
from .gf2 import ENUMERATION_CAP, BitMatrix, BitVector, combine

Digest = BitVector


@dataclass(frozen=True)
class HashKey:
    """n output bits, m input bits, one upper-triangular matrix per output bit."""

    n: int
    m: int
    mats: tuple  # of BitMatrix, each m x m, strictly zero below the diagonal
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.n < self.m:
            raise PreconditionError(f"need 1 <= n < m, got n={self.n}, m={self.m}")
        if len(self.mats) != self.n:
            raise PreconditionError("need exactly n matrices")
        for a in self.mats:
            if a.nrows != self.m or a.cols != self.m:
                raise DimensionMismatch("matrix shape is not m x m")
            for j in range(self.m):
                if a.rows[j] & ((1 << j) - 1):
                    raise PreconditionError("matrix has entries below the diagonal")

    @cached_property
    def sym(self) -> tuple:
        """Rows of A_i + A_i^T for each output bit i (the diagonal cancels mod 2),
        built once per key."""
        return tuple(tuple((row ^ col) & ~(1 << j) for j, (row, col) in enumerate(
            zip(a.rows, a.transpose().rows))) for a in self.mats)

    def to_json(self, seed=None) -> dict:
        doc = {"n": self.n, "m": self.m, "mats": [a.to_json()["data"] for a in self.mats]}
        if seed is not None:
            doc["seed"] = seed
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "HashKey":
        n, m = jsonio.integer(doc, "n"), jsonio.integer(doc, "m")
        mats = [BitMatrix.from_json({"rows": m, "cols": m, "data": h}) for h in doc["mats"]]
        return cls(n, m, tuple(mats))


def keygen(n: int, m: int, rng: np.random.Generator) -> HashKey:
    """Key with i.i.d. uniform bits on and above the diagonal."""
    if not 1 <= n < m:
        raise PreconditionError(f"need 1 <= n < m, got n={n}, m={m}")
    mats = []
    for _ in range(n):
        rows = []
        for j in range(m):
            r = BitVector.random(m, rng).bits
            rows.append(r & ~((1 << j) - 1))  # clear entries below the diagonal
        mats.append(BitMatrix(tuple(rows), m))
    return HashKey(n, m, tuple(mats))


def eval_digest(key: HashKey, x: BitVector) -> Digest:
    """y_i = x^T A_i x mod 2."""
    if x.n != key.m:
        raise DimensionMismatch(f"input has length {x.n}, key expects {key.m}")
    out = 0
    for i, a in enumerate(key.mats):
        out |= ((combine(a.rows, x.bits) & x.bits).bit_count() & 1) << i
    return BitVector(out, key.n)


def bilinear_rows(key: HashKey, delta: BitVector) -> BitMatrix:
    """n x m matrix whose row i is delta^T (A_i + A_i^T)."""
    if delta.n != key.m:
        raise DimensionMismatch(f"delta has length {delta.n}, key expects {key.m}")
    return BitMatrix(tuple([combine(sym, delta.bits) for sym in key.sym]), key.m)


@lru_cache(maxsize=32)
def digest_table(key: HashKey) -> np.ndarray:
    """Digest of every input, as packed ints indexed by basis index, in the narrowest unsigned
    dtype that holds n bits: one byte per input for n <= 8, as for every lightning key, whose
    extraction rounds need n(n+1) <= m <= ENUMERATION_CAP (n <= 4).

    Built by doubling, all n output bits at once: for x below 2^j,
    f(x + e_j) = f(x) + Lin_j(x) + diag_j, where Lin_j(x) packs the bits
    x . sym_i[j] and diag_j the bits A_i[j, j].  Lin_j + diag_j fills the
    upper half by XOR-doubling its columns from diag_j, then f(x) is added.
    """
    m = key.m
    if m > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"m={m} exceeds enumeration cap {ENUMERATION_CAP}")
    table = np.zeros(1 << m, dtype=np.min_scalar_type((1 << key.n) - 1))
    for j in range(m):
        upper = table[1 << j : 2 << j]
        upper[0] = sum(a.entry(j, j) << i for i, a in enumerate(key.mats))
        for b in range(j):
            col = sum((sym[j] >> b & 1) << i for i, sym in enumerate(key.sym))
            np.bitwise_xor(upper[: 1 << b], col, out=upper[1 << b : 2 << b])
        upper ^= table[: 1 << j]
    table.flags.writeable = False
    return table


def fiber_counts(key: HashKey) -> np.ndarray:
    """Number of inputs with each digest value (index = packed digest), counted a block of
    the table at a time, so that bincount's int64 copy of its input is one block long."""
    table, size = digest_table(key), 1 << key.n
    step = max(1 << 13, size)
    return sum(np.bincount(table[i : i + step], minlength=size) for i in range(0, table.size, step))


def fiber_sums(key: HashKey, amps: np.ndarray) -> np.ndarray:
    """Sum of a register's amplitudes over each digest's fiber, per state of the qubits below
    its top m: shape (2^n, width), zero for an empty fiber.  Each fiber's rows are gathered by
    a mask of the digest table, in increasing input order, and summed by ``np.add.reduceat``,
    so the held memory is one byte per input and one fiber's rows."""
    tab, width = digest_table(key), amps.size >> key.m
    rows = amps.view(np.dtype((np.void, amps.itemsize * width)))  # one row per input
    sums = np.zeros((1 << key.n, width), amps.dtype)
    for d in np.flatnonzero(fiber_counts(key)):
        sums[d] = np.add.reduceat(rows[tab == d].view(amps.dtype).reshape(-1, width), [0])
    return sums


def preimage_indices(key: HashKey, y: Digest) -> np.ndarray:
    """Preimage set as raw basis indices (ascending)."""
    if y.n != key.n:
        raise DimensionMismatch(f"digest has length {y.n}, key expects {key.n}")
    return np.flatnonzero(digest_table(key) == y.bits)
