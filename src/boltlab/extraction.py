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
The extraction is real orthogonal, so ``circuit_span_analysis`` evaluates
that test exactly by inner products with the plan's extracted phase states
instead of running the circuit backwards.

Desk-scale caveat, visible in every experiment here: with u rounds the
transcript rows are u uniform vectors in GF(2)^n, so the linear system is
rank-deficient with probability ~0.34 at (n=2, u=3).  Rank deficiency is a
reject, so the circuit strategy accepts honest registers far less often
than the ideal span projector.  The exact rates are reported, not hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import qsim
from .errors import PreconditionError
from .gf2 import eliminate, nullspace_from_rref
from .mqhash import HashKey, digest_table
from .qsim import StateVector


def phi_amplitudes(key: HashKey, r: int) -> np.ndarray:
    """Real amplitudes of phi_r = 2^{-m/2} sum_x (-1)^{r . f(x)} |x>."""
    parity = np.bitwise_count(digest_table(key) & np.uint32(r)) & 1
    return (1.0 - 2.0 * parity.astype(np.float64)) / np.sqrt(1 << key.m)


def _parity_arr(x: np.ndarray, mask: int) -> np.ndarray:
    return (np.bitwise_count(x & np.uint64(mask)) & 1).astype(np.uint8)


@dataclass
class _Node:
    """Round data for one transcript prefix."""

    alive: bool
    qrows: tuple = ()  # n packed linear forms on the block's qubits above its leading one
    qconst: int = 0
    free_cols: tuple = ()


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
    """Precomputed per-prefix round maps for one (key, u) pair.

    Rounds are numbered 1..u; round t occupies qubits
    [(t-1)(n+1), t(n+1)): one c qubit then n ell qubits.  The residual block
    is everything above u(n+1).
    """

    def __init__(self, key: HashKey, u: int):
        n, m = key.n, key.m
        if u < n:
            raise PreconditionError(f"need u >= n rounds, got u={u}")
        if m < u * (n + 1):
            raise PreconditionError(f"m={m} cannot host u={u} rounds of {n + 1} qubits")
        self.key = key
        self.u = u
        self.n = n
        self.m = m
        self.transcript_qubits = u * (n + 1)
        self.nodes: List[Dict[int, _Node]] = [dict() for _ in range(u + 1)]
        root_u = np.stack([a.to_array() for a in key.mats]).astype(np.uint8)
        root_c = np.zeros(n, dtype=np.uint8)
        self._build(1, 0, root_u, root_c)
        self._classify_transcripts()
        # targets[t - 1] is round t's relabeling: amplitude i moves to targets[t - 1][i]
        self.targets = tuple(self._round_target(t) for t in range(1, u + 1))
        tau = np.arange(1 << m, dtype=np.int64) & ((1 << self.transcript_qubits) - 1)
        # flags[i]: basis index i carries a rank-n transcript; phases[r] = phi_r and
        # images[r] = Pi_r U phi_r, the extracted phi_r on the flagged indices
        # whose transcript solves to r (all real)
        self.flags = self.flag_ok[tau]
        solved = self.solved_r[tau]
        self.phases = np.stack([phi_amplitudes(key, r) for r in range(1 << n)])
        self.images = np.stack([
            np.where(self.flags & (solved == r), self.extract(phi), 0.0)
            for r, phi in enumerate(self.phases)
        ])

    # -- plan construction ------------------------------------------------

    def _build(self, t: int, prefix: int, polys: np.ndarray, consts: np.ndarray):
        n = self.n
        v = self.m - (t - 1) * (n + 1)
        w = v - 1
        qrows = []
        for i in range(n):
            row = 0
            for k in range(w):
                row |= int(polys[i, 0, k + 1]) << k
            qrows.append(row)
        qconst = 0
        for i in range(n):
            qconst |= int(polys[i, 0, 0]) << i
        # bits w+i record the row operations: above bit w, reduced row k holds
        # row k of the matrix T that brings the linear forms to RREF
        reduced, pivcols = eliminate([qrows[i] | (1 << (w + i)) for i in range(n)], w)
        if len(pivcols) < n:
            self.nodes[t][prefix] = _Node(alive=False)
            return
        pivset = set(pivcols)
        free = [c for c in range(w) if c not in pivset]
        kernel = nullspace_from_rref(reduced, pivcols, w)
        # particular solution for every ell (free coordinates = 0)
        particular = []
        for ell in range(1 << n):
            rhs = ell ^ qconst
            sol = 0
            for row, col in zip(reduced, pivcols):
                if ((row >> w) & rhs).bit_count() & 1:
                    sol |= 1 << col
            particular.append(sol)
        self.nodes[t][prefix] = _Node(
            alive=True, qrows=tuple(qrows), qconst=qconst, free_cols=tuple(free)
        )
        if t == self.u:
            return
        # substitute x' = particular(ell) + kernel^T a into the P polynomials
        p_polys = polys[:, 1:, 1:].astype(np.int64)
        p_sym = (p_polys + p_polys.transpose(0, 2, 1)) % 2
        tmat = np.zeros((w, len(free)), dtype=np.int64)
        for j, vec in enumerate(kernel):
            for b in range(w):
                tmat[b, j] = (vec >> b) & 1
        for ell in range(1 << self.n):
            t0 = np.array([(particular[ell] >> b) & 1 for b in range(w)], dtype=np.int64)
            child_u = np.zeros((self.n, len(free), len(free)), dtype=np.uint8)
            child_c = np.zeros(self.n, dtype=np.uint8)
            for i in range(self.n):
                raw = (tmat.T @ p_polys[i] @ tmat) % 2
                upper = np.triu((raw + raw.T) % 2, 1)
                np.fill_diagonal(upper, np.diag(raw))
                lin = (tmat.T @ ((p_sym[i] @ t0) % 2)) % 2
                diag = (np.diag(upper) + lin) % 2
                np.fill_diagonal(upper, diag)
                child_u[i] = upper.astype(np.uint8)
                child_c[i] = (int(t0 @ p_polys[i] @ t0) + int(consts[i])) % 2
            self._build(t + 1, prefix | (ell << (self.n * (t - 1))), child_u, child_c)

    # -- transcript classification ----------------------------------------

    def _classify_transcripts(self):
        n, u = self.n, self.u
        size = 1 << self.transcript_qubits
        self.flag_ok = np.zeros(size, dtype=bool)
        self.solved_r = np.zeros(size, dtype=np.int64)
        for tau in range(size):
            cs, ells = self._transcript_fields(tau)
            prefix = 0
            for t in range(1, u + 1):
                node = self.nodes[t].get(prefix)
                if node is None or not node.alive:
                    break
                prefix |= ells[t - 1] << (n * (t - 1))
            else:  # every round of the path is live
                rank_l, sol = _solve_rows(ells, cs, n)
                if rank_l == n:
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

    def _round_target(self, t: int) -> np.ndarray:
        """Round t's basis relabeling as an index array (a permutation).

        On a live prefix block the bits x' above this round's c qubit become
        (ell, a): ell = Q x' + const, the values of the round's linear forms,
        and a, the free coordinates of x'.  Dead or unreached prefixes stay put.
        """
        n = self.n
        o = (t - 1) * (n + 1)
        w = self.m - o - 1
        idx = np.arange(1 << self.m, dtype=np.int64)
        prefixes = np.zeros_like(idx)
        for s in range(1, t):
            po = (s - 1) * (n + 1)
            prefixes |= ((idx >> (po + 1)) & ((1 << n) - 1)) << (n * (s - 1))
        target = idx.copy()
        keep = (1 << (o + 1)) - 1  # earlier transcript bits plus this round's c
        for prefix, node in self.nodes[t].items():
            if not node.alive:
                continue
            sub = idx[prefixes == prefix]
            xp = (sub >> (o + 1)) & ((1 << w) - 1)
            ell = np.zeros_like(sub)
            for i in range(n):
                ell |= (_parity_arr(xp.astype(np.uint64), node.qrows[i]).astype(np.int64)
                        ^ ((node.qconst >> i) & 1)) << i
            a = np.zeros_like(sub)
            for j, f in enumerate(node.free_cols):
                a |= ((xp >> f) & 1) << j
            target[sub] = (sub & keep) | (ell << (o + 1)) | (a << (o + 1 + n))
        return target

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
    """The circuit strategy's exact acceptance, rank_ok_probability * zero_probability."""

    rank_ok_probability: float
    zero_probability: float  # conditioned on the rank flag passing
    post_state: Optional[StateVector]


def circuit_span_analysis(key: HashKey, u: int, state: StateVector) -> CircuitVerifyAnalysis:
    """Run the deferred-measurement circuit on a register, exactly.

    Circuit: extract; measure the solvability flag (reject on rank
    deficiency); copy the solved phase vector into an ancilla; uncompute the
    extraction; uncompute the |0> -> phi_r preparation controlled on the
    ancilla; test the register for all-zeros; recompute forward.  The
    returned post state discards the ancilla as if its uncomputation were
    perfect, which is exact on in-span inputs up to the rank-deficient mass.

    Simulation: the extraction U is built from Walsh-Hadamard passes and
    permutations only, so it is real orthogonal and U^-1 = U^T.  For the
    extracted register psi = U state, the all-zeros amplitude of the branch
    that solves to r is therefore <phi_r| U^T Pi_r psi> = <Pi_r U phi_r|psi>,
    an inner product with the plan's ``images[r]``; nothing runs backwards.
    """
    plan = get_plan(key, u)
    # complex on purpose: real arithmetic moves the reported acceptance in its last digits
    psi = plan.extract(state.amps.astype(np.complex128))
    p_rank = float(np.linalg.norm(psi[plan.flags]) ** 2)
    if p_rank <= 1e-300:
        return CircuitVerifyAnalysis(0.0, 0.0, None)
    beta = plan.images @ psi / np.sqrt(p_rank)
    p_zero = float(np.linalg.norm(beta) ** 2)
    if p_zero <= 1e-300:
        return CircuitVerifyAnalysis(p_rank, 0.0, None)
    post = sum(b * phi for b, phi in zip(beta / np.sqrt(p_zero), plan.phases))
    return CircuitVerifyAnalysis(
        rank_ok_probability=p_rank,
        zero_probability=p_zero,
        post_state=StateVector(key.m, post / np.linalg.norm(post)),
    )
