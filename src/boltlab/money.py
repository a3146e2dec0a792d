"""Subspace-state quantum money over GF(2) with oracle membership tests.

A note is the uniform superposition over a hidden half-dimensional subspace
S.  Verification measures S-membership, applies the global Hadamard (which
maps the note onto the dual subspace's superposition) and measures
S-perp-membership; each state is analysed once per note.  The two tests
compose to the rank-1 projector onto the note, so a state that passes is the
note and no post-state is kept.  Adversaries only ever receive
membership closures, never the basis; the serial number is an opaque handle
naming that closure pair (a single-note mini-scheme, so serial equality is
handle identity and the games score only the state projections).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .bounds import count_subspaces
from .errors import PreconditionError
from .gf2 import BitMatrix, dual_space, random_subspaces, rank, span_canonical, subspace_elements
from . import qsim
from .qsim import StateVector

TRIAL_BLOCK = 1024  # counterfeit trials drawn at once


@dataclass(frozen=True)
class MembershipOracles:
    """Harness-held closures over the secret basis; all an adversary gets."""

    serial: str
    primal: Callable[[np.ndarray], np.ndarray]
    dual: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MoneyNote:
    subspace: BitMatrix  # secret in-game; the harness keeps it for scoring
    serial: str
    state: StateVector
    oracles: MembershipOracles


def subspace_state(basis: BitMatrix, n: int) -> StateVector:
    return qsim.uniform_over(sorted(subspace_elements(basis)), n)


def _check_note(n: int, s: Optional[BitMatrix] = None):
    """A note the scheme has: an even 2 <= n <= 20 qubits, over n/2 independent rows of n bits."""
    if n % 2 != 0:
        raise PreconditionError("need an even number of qubits")
    if n > 20:
        raise PreconditionError("desk-scale cap is n <= 20")
    qsim.check_num_qubits(n)
    if s is not None and (s.cols, s.nrows, rank(s)) != (n, n // 2, n // 2):
        raise PreconditionError(f"a note on {n} qubits needs {n // 2} independent rows of {n} bits")


def money_gen(n: int, rng: np.random.Generator) -> MoneyNote:
    """Random half-dimensional subspace, its superposition, and oracle handles."""
    _check_note(n)
    return note_for_subspace(random_subspaces(n, n // 2, 1, rng)[0], n, rng)


def _oracles(s: BitMatrix, n: int, serial: bytes) -> MembershipOracles:
    """Oracles of a fresh 8-byte serial over a canonical subspace.  Each 2^n membership table
    is built on its first query, so a note whose oracles are never queried costs no
    elimination and no table."""
    def membership(checks: Callable[[], tuple]):  # x . c = 0 for each row c
        table = None

        def member(idx):  # any numpy index: indices, a list of them, or a slice
            nonlocal table
            if table is None:
                x = np.arange(1 << n, dtype=np.uint32)  # n <= 20
                table = np.ones(1 << n, dtype=bool)
                for row in checks():
                    table &= (np.bitwise_count(x & np.uint32(row)) & 1) == 0
            return table[idx]
        return member

    return MembershipOracles(
        "note-" + serial.hex(),
        membership(lambda: dual_space(s).rows),  # x in S: x is orthogonal to S-perp
        membership(lambda: s.rows),  # x in S-perp: x is orthogonal to S
    )


def note_for_subspace(s: BitMatrix, n: int, rng: np.random.Generator) -> MoneyNote:
    """Note for a given subspace; the oracles' tables are built on first use."""
    _check_note(n, s)
    s = span_canonical(s)
    oracles = _oracles(s, n, rng.bytes(8))
    return MoneyNote(s, oracles.serial, subspace_state(s, n), oracles)


@dataclass(frozen=True)
class MoneyAnalysis:
    """The two tests' pass probabilities in draw order and their product."""

    p0: float
    p1: float
    probability: float

    def accepts(self, rng: np.random.Generator) -> bool:
        """One draw per test, none after a reject or a test that keeps no mass."""
        return self.p0 > 0 and rng.random() < self.p0 and self.p1 > 0 and rng.random() < self.p1


def money_verify_analysis(note_state: StateVector, oracles: MembershipOracles) -> MoneyAnalysis:
    """S-membership, then S-perp-membership after the global Hadamard, analysed
    once per (state, oracles) and kept in the state's cache."""
    if ("money", oracles) not in note_state.cache:
        every = slice(None)
        amps = np.where(oracles.primal(every), note_state.amps, 0.0)  # the kept amplitudes
        mass = qsim.born_mass(amps)
        p0, p1 = min(mass, 1.0), 0.0
        if mass:
            amps /= np.sqrt(mass)
            amps = qsim.hadamard_all(StateVector(note_state.num_qubits, amps)).amps
            p1 = min(qsim.born_mass(np.where(oracles.dual(every), amps, 0.0)), 1.0)
        note_state.cache["money", oracles] = MoneyAnalysis(p0, p1, p0 * p1)
    return note_state.cache["money", oracles]


def projective_verify(note_state: StateVector, subspace: BitMatrix) -> float:
    """Pass probability of the ideal rank-1 projector onto the honest note, clipped at 1."""
    honest = subspace_state(subspace, note_state.num_qubits).amps
    unit = honest / np.linalg.norm(honest)  # as Gram-Schmidt normalised it: reports keep their bits
    return min(qsim.born_mass(np.vdot(unit, note_state.amps) * unit), 1.0)


# -- adversaries ----------------------------------------------------------------

Adversary = Callable[[StateVector, MembershipOracles, np.random.Generator], Tuple[StateVector, StateVector]]


def _basis_copy(note: StateVector, index: int) -> StateVector:
    """|index>, built once per note and kept in its cache."""
    if ("basis", index) not in note.cache:
        note.cache["basis", index] = qsim.basis_state(note.num_qubits, index)
    return note.cache["basis", index]


def measure_and_copy(
    state: StateVector, oracles: MembershipOracles, rng: np.random.Generator
) -> Tuple[StateVector, StateVector]:
    """Measure the note and output the observed basis state twice."""
    copy = _basis_copy(state, qsim.draw(state.cdf, rng))
    return copy, copy


def fixed_guess(
    state: StateVector, oracles: MembershipOracles, rng: np.random.Generator
) -> Tuple[StateVector, StateVector]:
    """Ignore the note; output |0...0> twice (0 is in every subspace)."""
    z = _basis_copy(state, 0)
    return z, z


def honest_forwarding(
    state: StateVector, oracles: MembershipOracles, rng: np.random.Generator
) -> Tuple[StateVector, StateVector]:
    """Return the untouched note plus |0...0> as the second output."""
    return state, _basis_copy(state, 0)


BUILTIN_ADVERSARIES = {
    "measure-copy": measure_and_copy,
    "fixed-guess": fixed_guess,
    "honest-forward": honest_forwarding,
}


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval."""
    z = 1.959963984540054
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def counterfeit_experiment(
    n: int, adversary: Adversary, trials: int, rng: np.random.Generator
) -> dict:
    """Challenger loop for the single-note counterfeiting game, and its report.

    n is checked before any trial.  Per trial a fresh uniform subspace and serial
    are drawn, the adversary gets the note state and oracle access only, and
    success means both returned states pass the projective verification onto the
    honest note.  Every draw comes from ``rng``, ``TRIAL_BLOCK`` trials at a time:
    the block's subspaces and serials in bulk, each trial's adversary, then one
    uniform pair per trial against its two pass probabilities.  ``mean_f2`` and
    ``per_trial_f2_sd`` of the exact per-trial squared fidelities are exact;
    ``successes``, ``success_rate`` and ``wilson_95`` are sampled.  When all notes
    fit in ``qsim.KEPT_AMPS`` amplitudes (n <= 4), each distinct subspace's state
    is kept for the run by its canonical basis; every trial gets oracles of its
    own serial.
    """
    _check_note(n)
    keep = count_subspaces(n // 2, n, 2) << n <= qsim.KEPT_AMPS
    notes, successes = {}, 0
    f2 = np.empty(trials)
    for start in range(0, trials, TRIAL_BLOCK):
        block = min(TRIAL_BLOCK, trials - start)
        subspaces, serials = random_subspaces(n, n // 2, block, rng), rng.bytes(8 * block)
        fid = np.empty((block, 2))  # projections onto the 1-D honest span
        for i, s in enumerate(subspaces):
            state = notes.get(s.rows) or subspace_state(s, n)
            if keep:
                notes[s.rows] = state
            out0, out1 = adversary(state, _oracles(s, n, serials[8 * i : 8 * i + 8]), rng)
            fid[i] = qsim.fidelity(state, out0), qsim.fidelity(state, out1)
        f2[start : start + block] = fid[:, 0] * fid[:, 1]
        successes += int(np.count_nonzero((rng.random((block, 2)) < fid).all(axis=1)))
    arr = f2 if trials else np.zeros(1)
    return {
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials if trials else 0.0,
        "wilson_95": list(wilson_interval(successes, trials)),
        "mean_f2": float(arr.mean()),
        "per_trial_f2_sd": float(arr.std(ddof=1)) if trials > 1 else 0.0,
    }
