"""Coherent phase-vector extraction for the circuit verification strategy.

The verifier decides whether an m-qubit register lies in the span of the
phase states  phi_r = 2^{-m/2} sum_x (-1)^{r.f(x)} |x>  by running the
round-based extraction: each round Hadamards the leading qubit of the
current block (turning its value into one linear equation on r), relabels
the rest of the block so the support becomes a full cube again, and leaves
the equation data (c_t, ell_t) in transcript qubits.  All measurements are
deferred: transcript bits stay coherent, the accumulated linear system is
solved into an ancilla register, the state-preparation circuit is
uncomputed, and a single all-zeros test on the register decides acceptance.
All transcript prefixes of a round share its linear forms' matrix Q (see
``ExtractionPlan``), so a rank-deficient Q ends every transcript, not one
prefix, and the strategy then rejects every register.  The extraction is
real orthogonal, so ``circuit_span_analysis`` evaluates that test exactly
by inner products with the plan's extracted phase states instead of
running the circuit backwards.

Desk-scale caveat, visible in every experiment here: with u rounds the
transcript rows are u uniform vectors in GF(2)^n, so the linear system is
rank-deficient with probability ~0.34 at (n=2, u=3).  Rank deficiency is a
reject, so the circuit strategy accepts honest registers far less often
than the ideal span projector.  The exact rates are reported, not hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import qsim
from .errors import PreconditionError
from .gf2 import eliminate
from .mqhash import HashKey, digest_table, fiber_counts
from .qsim import StateVector


def phi_amplitudes(key: HashKey, r: int) -> np.ndarray:
    """Real amplitudes of phi_r = 2^{-m/2} sum_x (-1)^{r . f(x)} |x>."""
    parity = np.bitwise_count(digest_table(key) & np.uint32(r)) & 1
    return (1.0 - 2.0 * parity.astype(np.float64)) / np.sqrt(1 << key.m)


def _solve_rows(rows: List[int], rhs: List[int], width: int) -> Tuple[int, int]:
    """Rank of the packed system rows.x = rhs and its solution with free coordinates 0.

    Consistency is deliberately not checked (unlike ``gf2.solve_affine``):
    the extraction's solvability flag asks only for rank n, and the solution
    is read from the pivot rows.  An inconsistent transcript therefore passes
    the flag with a meaningless r.  Honest in-span registers put no mass on
    such transcripts, but other inputs can: on the desk key (seed 7), 168 of
    the 336 flagged transcripts are inconsistent, and 2,688 of the 4,096
    basis states put mass 0.5 on them.
    """
    work, pivots = eliminate([row | (b << width) for row, b in zip(rows, rhs)], width)
    sol = 0
    for row, col in zip(work, pivots):
        if row >> width:
            sol |= 1 << col
    return len(pivots), sol


class ExtractionPlan:
    """Precomputed round maps for one (key, u) pair.

    Rounds are numbered 1..u; round t occupies qubits
    [(t-1)(n+1), t(n+1)): one c qubit then n ell qubits.  The residual block
    is everything above u(n+1).  Each round's relabeling is read off the
    phase function's table f, which starts as the digest table.  With
    leading qubit o, the round's linear forms are ell = f[i | 1<<o] ^
    f[i & ~(1<<o)]; on the block of one transcript prefix they are affine in
    the qubits x' above o, ell = Q x' + const, and Q's columns are ell's
    differences at x''s unit vectors.

    Every block of a round has the same Q.  Round 1 has one block.  If on
    every block of round t the table is the key's quadratic map composed
    with x' -> L x' + b_p, one L for every prefix p, then ell is the map's
    derivative along v = L e_o, its part linear in x' is x' -> B(v, L x')
    for the key's symmetric bilinear forms B, and b_p moves only ell's
    constant: Q, its pivots and the next round's L are shared.  So Q is
    read once per round, at index 0 (x' = 0).  A round whose Q has rank n
    moves every index i to (its low bits, ell, x''s free coordinates), and
    the next round's f is f[i & ~(1<<o)] moved alike; the first round whose
    Q is rank-deficient, and every later one, keeps its indices.  The
    symbolic construction, which substitutes affine maps into the key's
    quadratic forms round by round, is the test reference.
    """

    def __init__(self, key: HashKey, u: int):
        n, m = key.n, key.m
        if u < n:
            raise PreconditionError(f"need u >= n rounds, got u={u}")
        if m < u * (n + 1):
            raise PreconditionError(f"m={m} cannot host u={u} rounds of {n + 1} qubits")
        self.u, self.n, self.m = u, n, m
        self.transcript_qubits = u * (n + 1)
        # targets[t - 1] is round t's relabeling: amplitude i moves to targets[t - 1][i]
        targets = []
        idx = np.arange(1 << m, dtype=np.int64)
        f = digest_table(key).astype(np.int64)
        for t in range(1, u + 1):
            o = (t - 1) * (n + 1)
            units = 1 << np.arange(m - o - 1)  # x''s unit vectors, packed
            low = idx & ~(1 << o)
            ell = f[low | (1 << o)] ^ f[low]
            cols = ell[units << (o + 1)] ^ ell[0]
            pivots = eliminate([int(((cols >> i) & 1) @ units) for i in range(n)], units.size)[1]
            if len(pivots) < n:
                break
            free = [c for c in range(units.size) if c not in pivots]  # x''s free coordinates
            a = sum(((idx >> (o + 1 + c)) & 1) << j for j, c in enumerate(free))
            targets.append((idx & ((1 << (o + 1)) - 1)) | ell << (o + 1) | a << (o + 1 + n))
            f[targets[-1]] = f[low]
        self.rounds = len(targets)  # the leading rounds that relabel
        self.targets = tuple(targets + [idx] * (u - self.rounds))
        self._classify_transcripts()
        tau = idx & ((1 << self.transcript_qubits) - 1)
        # flags[i]: basis index i carries a rank-n transcript; images[r] = Pi_r U phi_r,
        # the extracted phi_r on the flagged indices whose transcript solves to r (all real)
        self.flags = self.flag_ok[tau]
        solved = self.solved_r[tau]
        self.images = np.stack([
            np.where(self.flags & (solved == r), self.extract(phi_amplitudes(key, r)), 0.0)
            for r in range(1 << n)
        ])

    # -- transcript classification ----------------------------------------

    def _classify_transcripts(self):
        self.flag_ok = np.zeros(1 << self.transcript_qubits, dtype=bool)
        self.solved_r = np.zeros(self.flag_ok.size, dtype=np.int64)
        for tau in range(self.flag_ok.size if self.rounds == self.u else 0):  # else none passes
            cs, ells = self._transcript_fields(tau)
            rank_l, sol = _solve_rows(ells, cs, self.n)
            if rank_l == self.n:
                self.flag_ok[tau] = True
                self.solved_r[tau] = sol

    def _transcript_fields(self, tau: int) -> Tuple[list, list]:
        n = self.n
        cs, ells = [], []
        for t in range(self.u):
            o = t * (n + 1)
            cs.append((tau >> o) & 1)
            ells.append((tau >> (o + 1)) & ((1 << n) - 1))
        return cs, ells

    # -- state transforms ---------------------------------------------------

    def extract(self, amps: np.ndarray) -> np.ndarray:
        out = amps
        for t, target in enumerate(self.targets, start=1):
            out = qsim.wht(out, (t - 1) * (self.n + 1))
            moved = np.empty_like(out)
            moved[target] = out
            out = moved
        return out

    def unextract(self, amps: np.ndarray) -> np.ndarray:
        """Inverse of ``extract``: each round's scatter is undone by a gather."""
        out = amps
        for t in range(self.u, 0, -1):
            out = qsim.wht(out[self.targets[t - 1]], (t - 1) * (self.n + 1))
        return out


@lru_cache(maxsize=16)
def get_plan(key: HashKey, u: int) -> ExtractionPlan:
    return ExtractionPlan(key, u)


@dataclass(frozen=True)
class CircuitVerifyAnalysis:
    """The circuit strategy's exact acceptance, rank_ok_probability * zero_probability,
    and the accepted post-state's amplitude along each psi_y (None when nothing passes)."""

    rank_ok_probability: float
    zero_probability: float  # conditioned on the rank flag passing
    psi_amps: Optional[np.ndarray]


def circuit_span_analysis(key: HashKey, u: int, state: StateVector) -> CircuitVerifyAnalysis:
    """Run the deferred-measurement circuit on a register, exactly.

    Circuit: extract; measure the solvability flag (reject on rank
    deficiency); copy the solved phase vector into an ancilla; uncompute the
    extraction; uncompute the |0> -> phi_r preparation controlled on the
    ancilla; test the register for all-zeros; recompute forward.  The post
    state discards the ancilla as if its uncomputation were perfect, which is
    exact on in-span inputs up to the rank-deficient mass.

    Simulation: the extraction U is built from Walsh-Hadamard passes and
    permutations only, so it is real orthogonal and U^-1 = U^T.  For the
    extracted register psi = U state, the all-zeros amplitude of the branch
    that solves to r is therefore <phi_r| U^T Pi_r psi> = <Pi_r U phi_r|psi>,
    an inner product with the plan's ``images[r]``; nothing runs backwards.
    Each phi_r is (-1)^(r.y) 2^(-m/2) on the fiber of y, so the post state
    sum_r beta_r phi_r is constant on every fiber: the Walsh-Hadamard transform
    of beta, times sqrt(|fiber|) 2^((n-m)/2) along psi_y.
    """
    plan = get_plan(key, u)
    # complex on purpose: real arithmetic moves the reported acceptance in its last digits
    psi = plan.extract(state.amps.astype(np.complex128))
    p_rank = qsim.born_mass(psi[plan.flags])
    if not p_rank:
        return CircuitVerifyAnalysis(0.0, 0.0, None)
    beta = plan.images @ psi / np.sqrt(p_rank)
    p_zero = qsim.born_mass(beta)
    if not p_zero:
        return CircuitVerifyAnalysis(p_rank, 0.0, None)
    along = qsim.wht(beta, *range(key.n)) * np.sqrt(fiber_counts(key) * 2.0 ** (key.n - key.m))
    return CircuitVerifyAnalysis(p_rank, p_zero, along / np.linalg.norm(along))
