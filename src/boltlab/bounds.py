"""Quantitative no-conversion and no-cloning bound calculator.

For a conversion task (given state psi_i, produce phi_i, i drawn from a
prior), the expected squared fidelity of any physical map is bounded by
d * lambda_1(C) where C is the entrywise product of the conjugated input
Gram matrix, the output Gram matrix and the prior matrix sqrt(p_i p_j), and
d is the ambient dimension of the input family.  Cloning to t total copies
is the special case where the second Gram matrix is the first raised to the
entrywise t-th power.  C is the one N x N matrix a bound holds: it is built
in place in the input Gram matrix, a block of rows at a time.

lambda_1 comes from power iteration, one product C x per step, with a
Rayleigh-residual certificate, cross-checked against a dense Hermitian
eigensolver at small sizes; two independent methods guard against silent
numerical error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DimensionMismatch, PreconditionError
from .gf2 import all_subspaces, subspace_elements
from .qsim import StateVector, check_num_qubits

_BLOCK_ROWS = 32  # rows of C per in-place step: each step's temporaries are this many rows long


def gram_matrix(states) -> np.ndarray:
    """Hermitian matrix of pairwise inner products <psi_i|psi_j> of a family: StateVectors,
    or the rows of an amplitude matrix; the norms are checked on the stacked amplitudes."""
    if not len(states):
        raise PreconditionError("empty state family")
    if not isinstance(states, np.ndarray):
        if len({s.amps.size for s in states}) > 1:
            raise DimensionMismatch("states have different dimensions")
        states = np.stack([s.amps for s in states])
    if not (abs(np.linalg.norm(states, axis=1) - 1.0) <= 1e-9).all():  # NaN fails too
        raise PreconditionError("state norm defect exceeds 1e-9")
    return np.conj(states) @ states.T


def power_iteration(c: np.ndarray) -> Tuple[float, np.ndarray, int, float]:
    """Dominant eigenvalue of a Hermitian PSD matrix.

    Stops at a Rayleigh residual below 1e-10 max(1, lambda1), where rounding
    leaves it, restarting from a fresh random vector (seeded, so reruns agree)
    when the iterate stagnates; returns (lambda1, vector, iterations, residual).
    """
    n = c.shape[0]
    if n == 1:
        return float(np.real(c[0, 0])), np.ones(1), 1, 0.0
    tol, max_iter = 1e-10, 100_000
    rng = np.random.default_rng(11)

    def unit_draw():  # a random unit vector, complex when c is
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if np.iscomplexobj(c) else 0.0)
        return x / np.linalg.norm(x)

    y = c @ (x := unit_draw())
    last_res = np.inf
    stagnant = 0
    for it in range(1, max_iter + 1):
        ynorm = np.linalg.norm(y)
        if ynorm == 0:
            if not c.any():
                return 0.0, x, it, 0.0
            y = c @ (x := unit_draw())
            continue
        xn = y / ynorm
        y = c @ xn  # the next step's product too
        lam_new = float(np.real(np.vdot(xn, y)))
        res = float(np.linalg.norm(y - lam_new * xn))
        if res < tol * max(1.0, lam_new):
            return lam_new, xn, it, res
        stagnant = stagnant + 1 if res >= last_res - 1e-16 * max(1.0, lam_new) else 0
        if stagnant > 50:
            y = c @ (x := unit_draw())
            stagnant = 0
            last_res = np.inf
            continue
        x, last_res = xn, res
    raise ConvergenceError(f"power iteration residual {last_res:.3e} after {max_iter} iterations")


@dataclass(frozen=True)
class BoundReport:
    c_matrix: np.ndarray
    lambda1: float
    f2_bound_raw: float
    f2_bound: float  # raw clipped at 1 (the bound can be vacuous at tiny sizes)
    iterations: int
    residual: float
    lambda1_eigh: Optional[float] = None  # dense cross-check, sizes <= 64

    def to_json(self) -> dict:
        return {
            "size": int(self.c_matrix.shape[0]),
            "lambda1": self.lambda1,
            "lambda1_eigh": self.lambda1_eigh,
            "f2_bound_raw": self.f2_bound_raw,
            "f2_bound": self.f2_bound,
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _bound_from_grams(c: np.ndarray, prior: Sequence[float], dim: int) -> BoundReport:
    """The report for C = c * sqrt(p_i p_j), built in c = conj(G1) * G2 (real when the
    states are) a row block at a time, so no other full-size matrix outlives it."""
    p = np.asarray(prior, dtype=np.float64)
    if not np.isfinite(p).all():
        raise PreconditionError("probabilities must be finite")
    if (p < 0).any():
        raise PreconditionError("negative probability")
    if abs(p.sum() - 1.0) > 1e-12:
        raise PreconditionError("probabilities must sum to 1 within 1e-12")
    r = np.sqrt(p).ravel()
    if r.size != c.shape[0]:
        raise DimensionMismatch("prior length differs from the number of states")
    for i in range(0, r.size, _BLOCK_ROWS):
        c[i : i + _BLOCK_ROWS] *= np.outer(r[i : i + _BLOCK_ROWS], r)
    lam, _, iters, res = power_iteration(c)
    max_diag = float(np.real(np.diag(c)).max())
    if lam < max_diag - 1e-9:
        raise ConvergenceError(
            f"lambda1={lam} below max diagonal {max_diag}: spectral estimate unsound"
        )
    eigh_lam = None
    if c.shape[0] <= 64:
        eigh_lam = float(np.linalg.eigvalsh(c).max())
        if abs(eigh_lam - lam) > 1e-8:
            raise ConvergenceError(
                f"power iteration {lam} and dense eigensolver {eigh_lam} disagree"
            )
    raw = dim * lam
    return BoundReport(
        c_matrix=c,
        lambda1=lam,
        f2_bound_raw=raw,
        f2_bound=min(1.0, raw),
        iterations=iters,
        residual=res,
        lambda1_eigh=eigh_lam,
    )


def conversion_bound(
    family1: Sequence[StateVector], family2: Sequence[StateVector], prior: Sequence[float]
) -> BoundReport:
    """Bound for turning family1[i] into family2[i], in the input states' dimension."""
    if not len(family1) == len(family2) == len(prior):
        raise PreconditionError("family and prior lengths differ")
    c, g2 = gram_matrix(family1), gram_matrix(family2)
    c = np.conj(c, out=c.astype(np.result_type(c, g2), copy=False))  # copied if only G2 is complex
    c *= g2
    del g2  # C is the one full-size matrix from here on
    return _bound_from_grams(c, prior, family1[0].amps.size)


def cloning_bound(states, prior: Sequence[float], copies: int) -> BoundReport:
    """Bound for turning one copy into `copies` total copies, of StateVectors or of the rows
    of an amplitude matrix.

    The target Gram matrix is the input Gram matrix raised entrywise to the
    power `copies`, so C is its conjugate times that power, times the prior
    matrix.
    """
    if copies < 1:
        raise PreconditionError("need at least one output copy")
    c = gram_matrix(states)
    for i in range(0, c.shape[0], _BLOCK_ROWS):
        row = c[i : i + _BLOCK_ROWS]
        g2 = row**copies
        np.conj(row, out=row)
        row *= g2  # conj(g1) * g2, the operands in the order that fixes its bits
    dim = states.shape[1] if isinstance(states, np.ndarray) else states[0].amps.size
    return _bound_from_grams(c, prior, dim)


# -- subspace counting ---------------------------------------------------------


def count_ordered_bases(a: int, b: int, q: int) -> int:
    """Product (q^b - 1)(q^b - q)...(q^b - q^{a-1}): ordered independent a-tuples."""
    if not 0 <= a <= b:
        raise PreconditionError("need 0 <= a <= b")
    out = 1
    for i in range(a):
        out *= q**b - q**i
    return out


def count_subspaces(a: int, b: int, q: int) -> int:
    """Gaussian binomial: number of a-dimensional subspaces of F_q^b."""
    if not 0 <= a <= b:
        raise PreconditionError("need 0 <= a <= b")
    if a == 0:
        return 1
    return count_ordered_bases(a, b, q) // count_ordered_bases(a, a, q)


# -- worked subspace example -----------------------------------------------------


def subspace_example_exact(n: int) -> dict:
    """Exhaustive two-copy cloning bound for the half-dimensional family, q=2.

    Enumerates every subspace, writes the family's amplitudes (1/sqrt|S| on S, in
    subspace order) into one matrix by a single scatter, and compares lambda_1
    against the analytic ceilings 2 q^{-3n/2} and (for d lambda_1) 2 q^{-n/2}.
    """
    if n % 2 != 0:
        raise PreconditionError("need even n")
    if n > 6:
        raise PreconditionError("exact enumeration capped at n = 6")
    check_num_qubits(n)
    subs = sorted(all_subspaces(n, n // 2), key=lambda s: s.rows)
    points = np.array([subspace_elements(s) for s in subs])
    count = len(subs)
    amps = np.zeros((count, 1 << n))
    amps[np.arange(count)[:, None], points] = 1.0 / np.sqrt(points.shape[1])
    report = cloning_bound(amps, [1.0 / count] * count, copies=2)
    lam_cap = 2.0 * 2.0 ** (-3 * n / 2)
    f2_cap = 2.0 * 2.0 ** (-n / 2)
    return {
        "n": n,
        "q": 2,
        "subspace_count": count,
        "expected_count": count_subspaces(n // 2, n, 2),
        "lambda1": report.lambda1,
        "lambda1_cap": lam_cap,
        "lambda1_ok": bool(report.lambda1 <= lam_cap + 1e-12),
        "f2_bound_raw": report.f2_bound_raw,
        "f2_cap": f2_cap,
        "f2_ok": bool(report.f2_bound_raw <= f2_cap + 1e-12),
        "report": report.to_json(),
    }


def half_subspace_lambda1(n: int, q: int) -> Tuple[int, int]:
    """Exact lambda_1 of the half-dimensional family's two-copy bound matrix, as ints (num, den).

    C[S, T] = q^(3(dim S&T - h)) / [n, h]_q with h = n/2 lies in the
    Bose-Mesner algebra of the Grassmann scheme, so every row has the same
    sum and that sum is lambda_1; q^((h-k)^2) [h,k]_q [n-h,h-k]_q subspaces T
    meet a fixed S in dimension k.  num / den is correctly rounded.
    """
    h = n // 2
    row = sum(
        q ** ((h - k) ** 2 + 3 * k) * count_subspaces(k, h, q) * count_subspaces(h - k, n - h, q)
        for k in range(h + 1)
    )
    return row, q ** (3 * h) * count_subspaces(h, n, q)


def subspace_example_analytic(n: int, q: int) -> dict:
    """Term-by-term evaluation of the bound chain with the printed counters.

    The printed product N_{a,b} counts ordered independent tuples; the
    chain's ratio is evaluated verbatim with it.  That reading of the chain
    falls below the exact lambda_1 (the Grassmann row sum, reported next to
    it), so its outputs are named for the chain, not called bounds.
    """
    if n % 2 != 0:
        raise PreconditionError("need even n")
    if q < 2:
        raise PreconditionError("need a field size q >= 2")
    half = n // 2
    terms = []
    total = 0.0
    for k in range(half + 1):
        ratio = (
            count_ordered_bases(k, half, q)
            * count_ordered_bases(half - k, n, q)
            / count_ordered_bases(half, n, q)
        )
        term = float(q) ** (3 * k - 3 * n / 2) * ratio
        terms.append({"k": k, "ratio": ratio, "term": term})
        total += term
    lam_cap = 2.0 * float(q) ** (-3 * n / 2)
    num, den = half_subspace_lambda1(n, q)
    return {
        "n": n,
        "q": q,
        "terms": terms,
        "lambda1_chain": total,
        "lambda1_exact": num / den,
        "lambda1_cap": lam_cap,
        "chain_below_cap": bool(total <= lam_cap + 1e-12),
        "f2_chain": float(q) ** n * total,
        "f2_exact": q**n * num / den,
        "f2_cap": 2.0 * float(q) ** (-n / 2),
        "subspace_count_gaussian": count_subspaces(half, n, q),
        "ordered_tuple_count": count_ordered_bases(half, n, q),
    }
