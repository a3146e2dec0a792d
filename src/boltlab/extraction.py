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
from the fiber sums of the flagged branches run backwards once, with no
phase state built.

Desk-scale caveat, visible in every experiment here: with u rounds the
transcript rows are u uniform vectors in GF(2)^n, so the linear system is
rank-deficient with probability ~0.34 at (n=2, u=3).  Rank deficiency is a
reject, so the circuit strategy accepts honest registers far less often
than the ideal span projector.  The exact rates are reported, not hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import qsim
from .errors import PreconditionError
from .gf2 import BitMatrix, BitVector, combine, eliminate, eliminate_each, subspace_elements
from .mqhash import HashKey, eval_digest, fiber_counts, fiber_sums
from .qsim import StateVector


class ExtractionPlan:
    """Precomputed round maps for one (key, u) pair.

    Round t occupies qubits [(t-1)(n+1), t(n+1)): one c qubit then n ell
    qubits; the residual block is everything above u(n+1).  Round t's phase
    function is the key's quadratic map f after an affine change of index,
    f_t(i) = f(P_t i ^ p_t) with P_1 = I, p_1 = 0.  So with leading qubit o
    the round's linear forms ell(i) = f_t(i | e_o) ^ f_t(i & ~e_o), a
    derivative of a quadratic map, are affine in i and are read with
    ``eval_digest`` at 0 and at the m unit vectors; Q, ell's columns at the
    qubits x' above o, is one matrix for every transcript prefix.  If Q has
    rank n, index i moves to A_t i ^ b_t = (its low bits, ell(i), x''s free
    coordinates): A_t's column j is e_j for j <= o, plus ell's column j
    shifted to o+1, plus the next bit above o+n when x''s coordinate j is
    free, and b_t is ell(0) shifted to o+1.  The phase moved to A_t i ^ b_t is
    f_t(i & ~e_o), so P_{t+1} = P_t clear_o A_t^-1 and p_{t+1} = P_t clear_o
    A_t^-1 b_t ^ p_t, with A_t^-1 from one elimination of A_t's columns beside
    an identity record.  The first round whose Q is rank-deficient, and every
    later one, keeps its indices.  The test reference substitutes affine maps
    into the key's quadratic forms round by round.
    """

    def __init__(self, key: HashKey, u: int):
        n, m = key.n, key.m
        if u < n:
            raise PreconditionError(f"need u >= n rounds, got u={u}")
        if m < u * (n + 1):
            raise PreconditionError(f"m={m} cannot host u={u} rounds of {n + 1} qubits")
        self.u, self.n, self.m = u, n, m
        self.transcript_qubits = u * (n + 1)
        cols, shift = tuple(1 << j for j in range(m)), 0  # P_t's packed columns and p_t

        def f_t(i: int) -> int:
            return eval_digest(key, BitVector(combine(cols, i) ^ shift, m)).bits

        self.maps = []  # maps[t - 1] = (A_t's packed columns, b_t)
        for t in range(1, u + 1):
            o = (t - 1) * (n + 1)
            ell0 = f_t(1 << o) ^ f_t(0)
            ell = [f_t(1 << j | 1 << o) ^ f_t(1 << j & ~(1 << o)) ^ ell0 for j in range(m)]
            pivots = eliminate(BitMatrix(tuple(ell[o + 1:]), n).transpose().rows, m - o - 1)[1]
            if len(pivots) < n:
                break
            a = [e << (o + 1) | (1 << j if j <= o else 0) for j, e in enumerate(ell)]
            for s, c in enumerate(c for c in range(m - o - 1) if c not in pivots):  # x''s free
                a[o + 1 + c] |= 1 << (o + 1 + n + s)
            self.maps.append((tuple(a), ell0 << (o + 1)))
            # rows [A_t^T | I] reduce to [I | (A_t^-1)^T], whose rows are A_t^-1's columns
            inv = [w >> m for w in eliminate([c | 1 << (m + j) for j, c in enumerate(a)], m)[0]]
            shift ^= combine(cols, combine(inv, ell0 << (o + 1)) & ~(1 << o))
            cols = tuple(combine(cols, c & ~(1 << o)) for c in inv)
        self.rounds = len(self.maps)  # the leading rounds that relabel
        # flag_ok[tau]: transcript tau's rows ell_t have rank n, which its ell tuple alone decides;
        # a round that relabels nothing leaves no transcript passing.  Consistency is not checked:
        # on the desk key (seed 7) 168 of the 336 flagged transcripts have no solution
        tau = np.arange(1 << self.transcript_qubits)
        ells = sum(((tau >> (t * (n + 1) + 1)) & ((1 << n) - 1)) << (n * t) for t in range(u))
        shifts = np.arange(0, u * n, n, dtype=np.uint32)
        tuples = np.arange(1 << (u * n), dtype=np.uint32)[:, None] >> shifts & ((1 << n) - 1)
        full = np.count_nonzero(eliminate_each(tuples), axis=1) == n
        self.flag_ok = full[ells] & (self.rounds == u)

    # -- state transforms ---------------------------------------------------

    def target(self, t: int) -> np.ndarray:
        """Round t <= ``rounds``: amplitude i moves to ``target(t)[i]``, from two half tables (the
        low one is XORed into the repeated high one in place: a broadcast buffers both)."""
        a, b = self.maps[t - 1]
        high, low = (np.array(subspace_elements(BitMatrix(half, self.m)))
                     for half in (a[self.m // 2:], a[:self.m // 2]))
        out = np.repeat(high ^ b, low.size)
        out.reshape(high.size, -1)[...] ^= low
        return out

    def extract(self, amps: np.ndarray) -> np.ndarray:
        """The extracted register, in ``amps``' dtype; ``amps`` is overwritten, as a relabelling
        round scatters its WHT into it."""
        for t in range(1, self.rounds + 1):
            amps[self.target(t)] = qsim.wht(amps, (t - 1) * (self.n + 1))
        for t in range(self.rounds + 1, self.u + 1):
            amps = qsim.wht(amps, (t - 1) * (self.n + 1))
        return amps

    def unextract(self, amps: np.ndarray) -> np.ndarray:
        """Inverse of ``extract``; ``amps`` is overwritten, as each round's scatter is undone by a
        gather back into it, so two registers and an index are held, not three."""
        x = amps
        for t in range(self.u, 0, -1):
            if t <= self.rounds and x is amps:  # through one temporary, which dies here
                amps[:] = amps[self.target(t)]
            elif t <= self.rounds:  # every target is in range: "clip" takes without a buffer
                x = np.take(x, self.target(t), out=amps, mode="clip")
            x = qsim.wht(x, (t - 1) * (self.n + 1))
        return x


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
    that solves to r is <phi_r| U^T Pi_r psi> = <Pi_r U phi_r|psi>.  U phi_r
    lies on the transcripts that solve to r alone, so Pi_r may keep every
    rank-n transcript, Pi: the amplitude is <phi_r|v> for the one vector
    v = U^T Pi psi.  Each phi_r is (-1)^(r.y) 2^(-m/2) on the fiber of y, so
    with S_y the sum of v over that fiber, sum_r |<phi_r|v>|^2 = 2^(n-m) |S|^2,
    and the post state sum_r beta_r phi_r is S_y sqrt(|fiber|) along psi_y.
    """
    plan = get_plan(key, u)
    amps = state.amps  # built on this read, and so writable, unless the state holds them
    psi = plan.extract(amps if amps.flags.writeable else amps.copy())
    del amps
    rows = psi.reshape(-1, plan.flag_ok.size)  # a row per residual block: tau is i's low bits
    p_rank = qsim.born_mass(rows[:, plan.flag_ok].ravel())  # in index order, as a mask gathers
    if not p_rank:
        return CircuitVerifyAnalysis(0.0, 0.0, None)
    rows[:, ~plan.flag_ok] = 0.0
    sums = fiber_sums(key, plan.unextract(psi))[:, 0]
    p_zero = qsim.born_mass(sums / np.sqrt(p_rank * 2.0 ** (key.m - key.n)))
    if not p_zero:
        return CircuitVerifyAnalysis(p_rank, 0.0, None)
    along = sums * np.sqrt(fiber_counts(key))
    return CircuitVerifyAnalysis(p_rank, p_zero, along / np.linalg.norm(along))
