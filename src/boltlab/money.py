"""Subspace-state quantum money over GF(2), verified in closed form on the note's subspace.

A note is the uniform superposition over a hidden half-dimensional subspace
S.  Verification measures S-membership, applies the global Hadamard and
measures S-perp-membership; the two tests compose to the rank-1 projector onto
the note, so a state that passes is the note and no post-state is kept.
H^n of a state's part on S is 2^(-n/2) times the sum of its amplitudes on S at
every point of S-perp, so both tests read only the 2^(n/2) amplitudes on S.
The counterfeiting game builds no state: the challenger holds each note as its
canonical basis, a built-in adversary returns descriptions (the note itself or a
basis point |x>) and uses the basis only as the state would let it (a measured
point of S), and each output's fidelity with the note is a closed form.  The
serial number is an opaque label of the note (a single-note mini-scheme, so the
games score only the state projections).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import PreconditionError
from .gf2 import BitMatrix, random_subspace_rows, random_subspaces, rank, subspace_elements
from . import qsim
from .qsim import StateVector

TRIAL_BLOCK = 1024  # counterfeit trials drawn at once


@dataclass(frozen=True)
class MoneyNote:
    """The note |S> held as its support, the sorted elements of S, each of amplitude
    2^(-n/4): ``qsim.state_dump`` writes it as it writes a description."""

    subspace: BitMatrix  # secret in-game; the harness keeps it for scoring
    serial: str
    num_qubits: int
    support: np.ndarray
    amp = property(lambda self: 1.0 / np.sqrt(self.support.size))


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
    """Random half-dimensional subspace, its superposition, and a serial."""
    _check_note(n)
    return note_for_subspace(random_subspaces(n, n // 2, 1, rng)[0], n, rng)


def note_for_subspace(s: BitMatrix, n: int, rng: np.random.Generator) -> MoneyNote:
    """Note for a given subspace, with a fresh 8-byte serial."""
    _check_note(n, s)
    return MoneyNote(s, "note-" + rng.bytes(8).hex(), n, np.sort(subspace_elements(s)))


@dataclass(frozen=True)
class MoneyAnalysis:
    """The two tests' pass probabilities in draw order, their product, and the pass
    probability of the ideal rank-1 projector onto the honest note."""

    p0: float
    p1: float
    probability: float
    projective: float

    def accepts(self, rng: np.random.Generator) -> bool:
        """One draw per test, none after a reject or a test that keeps no mass."""
        return self.p0 > 0 and rng.random() < self.p0 and self.p1 > 0 and rng.random() < self.p1


def money_verify_analysis(state: StateVector, subspace: BitMatrix) -> MoneyAnalysis:
    """The two tests and the projector on a state of n qubits, from its amplitudes a on S:
    p0 = sum |a|^2, p1 = |sum a|^2 / (2^(n/2) p0) and the projector's |sum a|^2 / 2^(n/2),
    each clipped at 1; a p0 at or below 1e-300 keeps nothing, as ``qsim.born_mass`` says."""
    _check_note(state.num_qubits, subspace)
    points, support = np.array(subspace_elements(subspace)), getattr(state, "support", None)
    if support is None:
        amps = state.amps[points]
    else:  # the one amplitude where a point is in the support, as a gather reads it
        inside = support[np.minimum(np.searchsorted(support, points), support.size - 1)] == points
        amps = np.where(inside, state.amp, np.zeros((), np.result_type(state.amp)))
    p0 = qsim.born_mass(amps)
    along = float(abs(amps.sum()) ** 2) / amps.size  # |<note|state>|^2
    p1 = min(along / p0, 1.0) if p0 else 0.0
    p0 = min(p0, 1.0)
    return MoneyAnalysis(p0, p1, p0 * p1, min(along, 1.0))


# -- adversaries ----------------------------------------------------------------

NOTE = -1  # an adversary output that is the note itself; an output x >= 0 is the basis state |x>

Adversary = Callable[[np.ndarray, np.random.Generator], np.ndarray]
"""Gets a block's notes, a (block, n/2) array of their canonical bases, and returns each
trial's two outputs, a (block, 2) integer array of descriptions: ``NOTE`` or a point x."""


def measure_and_copy(notes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Measure each note and output the observed basis state twice: one uniform per note
    picks the point of S whose coefficients in the note's basis are its leading bits."""
    picks = (rng.random(len(notes)) * (1 << notes.shape[1])).astype(np.int64)
    coeffs = picks[:, None] >> np.arange(notes.shape[1]) & 1
    points = np.bitwise_xor.reduce(np.where(coeffs, notes, 0), axis=1).astype(np.int64)
    return np.stack([points, points], axis=1)


def fixed_guess(notes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ignore the note; output |0...0> twice (0 is in every subspace)."""
    return np.zeros((len(notes), 2), np.int64)


def honest_forwarding(notes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Return the untouched note plus |0...0> as the second output."""
    return np.tile(np.array([NOTE, 0]), (len(notes), 1))


BUILTIN_ADVERSARIES = {
    "measure-copy": measure_and_copy,
    "fixed-guess": fixed_guess,
    "honest-forward": honest_forwarding,
}


def output_fidelities(notes: np.ndarray, outputs: np.ndarray, n: int) -> np.ndarray:
    """|<note|output>|^2 of each output in closed form: 1.0 for ``NOTE``; for |x>, the note's
    amplitude a = 2^(-n/4) squared, as ``qsim.state_dump`` writes it, when x lies in S, and
    0.0 otherwise.  x lies in S when it is the XOR of the RREF rows whose pivot (lowest) bit
    it has."""
    coeffs = (outputs[..., None] & (notes & (~notes + np.uint32(1)))[:, None]) != 0
    inside = np.bitwise_xor.reduce(np.where(coeffs, notes[:, None], 0), axis=2) == outputs
    a = 1.0 / np.sqrt(2 ** (n // 2))
    return np.where(outputs == NOTE, 1.0, np.where(inside, float(abs(a) ** 2), 0.0))


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval, clipped to [0, 1]; its ends are exactly 0.0 at no successes
    and 1.0 at all, where the center and half-width agree but round apart."""
    z = 1.959963984540054
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (0.0 if successes == 0 else max(0.0, center - half),
            1.0 if successes == trials else min(1.0, center + half))


def counterfeit_experiment(
    n: int, adversary: Adversary, trials: int, rng: np.random.Generator
) -> dict:
    """Challenger loop for the single-note counterfeiting game, and its report.

    n is checked before any trial.  Per trial a fresh uniform subspace is drawn,
    the adversary gets the note only, and success means both of its outputs pass
    the projective verification onto the honest note.  Every draw comes from
    ``rng``, ``TRIAL_BLOCK`` trials at a time: the block's subspaces in bulk, the
    adversary's draws for the block, then one uniform pair per trial against its
    two pass probabilities, which ``output_fidelities`` gives in closed form: no
    state is built.  ``mean_f2`` and ``per_trial_f2_sd`` of the exact per-trial
    squared fidelities are exact; ``successes``, ``success_rate`` and
    ``wilson_95`` are sampled.
    """
    _check_note(n)
    successes, f2 = 0, np.empty(trials)
    for start in range(0, trials, TRIAL_BLOCK):
        block = min(TRIAL_BLOCK, trials - start)
        notes = random_subspace_rows(n, n // 2, block, rng)
        fid = output_fidelities(notes, adversary(notes, rng), n)
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
