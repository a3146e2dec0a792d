"""Dense pure-state simulator over qubits.

Basis convention: qubit j is bit j of the basis index (LSB first), so a
GF(2) vector packed into an int *is* its basis index.  States are
immutable; every operation returns a new state, and data derived from one is
kept on it and dies with it.  Gates do not renormalize, so norm drift stays
visible to the hygiene tests.  Measurements are Born draws from a kept CDF
(``born_cdf``, ``draw``, ``StateVector.cdf``); no post-measurement state is
built here.  Amplitudes are float64 unless an input is complex; numpy's type
promotion keeps them real.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, PreconditionError, QubitCapExceeded

DEFAULT_QUBIT_CAP = 26
KEPT_AMPS = 1 << 16  # a run keeps every input when all possible ones (a key's 2^n psi_y) fit

_SQRT_HALF = 1.0 / np.sqrt(2.0)


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

    @property
    def cdf(self) -> tuple:
        """``born_cdf`` of the Born probabilities |amp|^2 of the basis states, computed once."""
        if "cdf" not in self.cache:
            self.cache["cdf"] = born_cdf(np.abs(self.amps) ** 2)
        return self.cache["cdf"]


def basis_state(num_qubits: int, index: int) -> StateVector:
    check_num_qubits(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise PreconditionError("basis index out of range")
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def uniform_over(points: Sequence[int], num_qubits: int) -> StateVector:
    """Equal amplitude 1/sqrt(len(points)) on each listed basis index."""
    check_num_qubits(num_qubits)
    pts = np.asarray(points, dtype=np.int64)
    if pts.size == 0:
        raise PreconditionError("point list is empty")
    if pts.min() < 0 or pts.max() >= (1 << num_qubits):
        raise PreconditionError("basis index out of range")
    amps = np.zeros(1 << num_qubits)
    amps[pts] = 1.0 / np.sqrt(pts.size)
    if np.count_nonzero(amps) != pts.size:  # a repeated index was written twice
        raise PreconditionError("duplicate basis indices")
    return StateVector(num_qubits, amps)


def wht(amps: np.ndarray, *qubits: int) -> np.ndarray:
    """Hadamard on each listed qubit of a flat amplitude array (a new array).

    One pass per qubit, (a0 + a1) / sqrt 2 and (a0 - a1) / sqrt 2 on the
    amplitude pairs that differ in that bit; over every qubit this is the
    fast Walsh-Hadamard transform.
    """
    out = amps
    for q in qubits:
        a = out.reshape(-1, 2, 1 << q)
        nxt = np.empty_like(a)
        np.add(a[:, 0, :], a[:, 1, :], out=nxt[:, 0, :])
        np.subtract(a[:, 0, :], a[:, 1, :], out=nxt[:, 1, :])
        nxt *= _SQRT_HALF
        out = nxt.reshape(-1)
    return out


def hadamard_all(state: StateVector) -> StateVector:
    """Hadamard on every qubit: the GF(2) quantum Fourier transform."""
    return StateVector(state.num_qubits, wht(state.amps, *range(state.num_qubits)))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatch("states have different qubit counts")
    return float(np.abs(np.vdot(a.amps, b.amps)) ** 2)


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


def state_dump(state: StateVector) -> dict:
    """Sparse JSON form: entries (index hex, re, im) with |amp| > 1e-12; a real
    state's im is 0.0, so it writes the bytes of the same state held as complex."""
    idx = np.flatnonzero(np.abs(state.amps) > 1e-12)
    amps = state.amps[idx]
    # tuples, not lists: the cyclic collector untracks them
    hexes = [format(i, "x") for i in idx.tolist()]
    entries = list(zip(hexes, amps.real.tolist(), amps.imag.tolist()))
    return {"num_qubits": state.num_qubits, "entries": entries}


def state_load(doc: dict) -> StateVector:
    """Inverse of ``state_dump``; sizes and indices (in range, none repeated) are
    checked before allocating the amplitudes.
    The state is real when every imaginary part is 0."""
    q = int(doc["num_qubits"])
    check_num_qubits(q)
    entries = doc["entries"]
    idx = [int(idx_hex, 16) for idx_hex, _, _ in entries]
    if idx and not (0 <= min(idx) and max(idx) < 1 << q):
        raise PreconditionError("state entry index outside the register")
    idx = np.asarray(idx, dtype=np.int64)
    seen = np.zeros(1 << q, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) != idx.size:
        raise PreconditionError("state entries repeat a basis index")
    re, im = (np.fromiter(map(itemgetter(i), entries), np.float64, len(idx)) for i in (1, 2))
    amps = np.zeros(1 << q, dtype=np.complex128 if im.any() else np.float64)
    amps[idx] = re
    if im.any():
        amps.imag[idx] = im
    return StateVector(q, amps)
