"""Reference computations for the benchmark's output checks.

Nothing here imports boltlab: every value a check compares against is
recomputed from the input files or from a closed form, so a fault in the
program cannot also hide in its reference.  ``python3 perfbench/reference.py``
runs the self-test against hand values.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import stats

# Tail probability below which a sampled count counts as out of band.  Each
# run makes a few dozen such tests, so a correct program trips one about
# once in 10^7 runs.
ALPHA = 1e-9


def key_matrices(doc: dict) -> tuple:
    """(n, m, mats) from a key file; mats[i][j] is row j of A_i as an int."""
    n, m = int(doc["n"]), int(doc["m"])
    nbytes = (m + 7) // 8
    mats = []
    for hexdata in doc["mats"]:
        data = bytes.fromhex(hexdata)
        mats.append(
            [int.from_bytes(data[j * nbytes:(j + 1) * nbytes], "little") for j in range(m)]
        )
    return n, m, mats


def _parity(a: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(a) & 1).astype(np.uint32)


def digest_table(doc: dict) -> np.ndarray:
    """Brute-force digest of every input x: bit i is sum_j x_j (row_j(A_i) . x)."""
    n, m, mats = key_matrices(doc)
    xs = np.arange(1 << m, dtype=np.uint32)
    table = np.zeros(1 << m, dtype=np.uint32)
    for i, rows in enumerate(mats):
        bit = np.zeros(1 << m, dtype=np.uint32)
        for j, row in enumerate(rows):
            bit ^= ((xs >> np.uint32(j)) & np.uint32(1)) & _parity(xs & np.uint32(row))
        table |= bit << np.uint32(i)
    return table


def naive_digest(doc: dict, x: int) -> int:
    """One digest by the definition y_i = x^T A_i x, entry by entry."""
    n, m, mats = key_matrices(doc)
    out = 0
    for i, rows in enumerate(mats):
        acc = 0
        for j in range(m):
            for k in range(m):
                acc ^= ((x >> j) & 1) & ((rows[j] >> k) & 1) & ((x >> k) & 1)
        out |= acc << i
    return out


def phi_span_acceptance(table: np.ndarray, n: int, amps: np.ndarray) -> float:
    """Probability that the projector onto span{phi_r} accepts the state.

    phi_r(x) = 2^{-m/2} (-1)^{r . f(x)}; the span's orthonormal basis comes
    from an SVD, so empty fibers (a rank-deficient family) are handled.
    """
    cols = []
    for r in range(1 << n):
        signs = 1.0 - 2.0 * _parity(table & np.uint32(r)).astype(np.float64)
        cols.append(signs / np.sqrt(table.size))
    u, s, _ = np.linalg.svd(np.stack(cols, axis=1), full_matrices=False)
    basis = u[:, s > 1e-10 * s.max()]
    return float(np.linalg.norm(basis.T @ amps) ** 2)


def rank_gf2(rows) -> int:
    """Rank of packed GF(2) rows by plain elimination."""
    work = [r for r in rows if r]
    rank = 0
    while work:
        pivot = max(work)
        top = pivot.bit_length() - 1
        work = [r ^ pivot if (r >> top) & 1 else r for r in work if r != pivot]
        work = [r for r in work if r]
        rank += 1
    return rank


def span_elements(rows) -> list:
    """Every element of the row span, ascending."""
    elems = {0}
    for r in rows:
        elems |= {e ^ r for e in elems}
    return sorted(elems)


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def half_subspace_lambda1(n: int, q: int = 2) -> Fraction:
    """Exact top eigenvalue of the two-copy cloning matrix of the family of
    all n/2-dimensional subspace states.

    C[S, T] = q^(3(dim S&T - h)) / [n, h]_q with h = n/2.  C lies in the
    Bose-Mesner algebra of the Grassmann scheme, so every row has the same
    sum and that sum is lambda_1.  q^((h-k)^2) [h,k]_q [n-h,h-k]_q subspaces
    T meet a fixed S in dimension k.
    """
    h = n // 2
    total = Fraction(0)
    for k in range(h + 1):
        meet = q ** ((h - k) ** 2) * gaussian_binomial(h, k, q) * gaussian_binomial(n - h, h - k, q)
        total += meet * Fraction(1, q ** (3 * (h - k)))
    return total / gaussian_binomial(n, h, q)


def counterfeit_mean_f2(adversary: str, n: int) -> float:
    """Closed-form squared fidelity of the built-in counterfeiters.

    measure-copy returns |x>|x> with x in S: each copy scores |S|^-1 = 2^-n/2.
    honest-forward returns the note (score 1) and |0> (score 2^-n/2).
    """
    per_copy = 2.0 ** (-n / 2)
    return {"measure-copy": per_copy * per_copy, "honest-forward": per_copy}[adversary]


def binomial_in_band(k: int, trials: int, p: float, upper_only: bool = False) -> bool:
    """True unless k is in a tail of Binomial(trials, p) of mass below ALPHA."""
    p = min(max(p, 0.0), 1.0)
    high = stats.binom.sf(k - 1, trials, p)  # P(X >= k)
    if upper_only:
        return bool(high >= ALPHA)
    low = stats.binom.cdf(k, trials, p)  # P(X <= k)
    return bool(high >= ALPHA and low >= ALPHA)


def chi2_fit(counts: dict, probs: dict) -> tuple:
    """Pearson statistic of observed counts against probabilities, with the
    fixed threshold at tail mass ALPHA.  Keys absent from probs must not occur."""
    total = sum(counts.values())
    stat = 0.0
    for key, p in probs.items():
        expected = total * p
        stat += (counts.get(key, 0) - expected) ** 2 / expected
    threshold = float(stats.chi2.isf(ALPHA, len(probs) - 1))
    return stat, threshold


def self_test():
    """Check the helpers against hand values; raises AssertionError."""
    if gaussian_binomial(4, 2) != 35 or gaussian_binomial(6, 3) != 1395:
        raise AssertionError("Gaussian binomials disagree with [4,2]_2=35, [6,3]_2=1395")
    if half_subspace_lambda1(4) != Fraction(1, 10):
        raise AssertionError(f"lambda1(4) = {half_subspace_lambda1(4)}, expected 1/10")
    if abs(float(half_subspace_lambda1(6)) - 0.018996415770609) > 1e-14:
        raise AssertionError("lambda1(6) disagrees with 0.018996415770609")
    if counterfeit_mean_f2("measure-copy", 4) != 1 / 16:
        raise AssertionError("measure-copy fidelity at n=4 is not 1/16")
    if rank_gf2([0b011, 0b101, 0b110]) != 2 or span_elements([1, 2]) != [0, 1, 2, 3]:
        raise AssertionError("GF(2) rank or span enumeration is wrong")
    rng = np.random.default_rng(0)
    m, nbytes = 5, 1
    mats = []
    for _ in range(2):
        rows = [int(rng.integers(0, 1 << m)) & ~((1 << j) - 1) for j in range(m)]
        mats.append(b"".join(r.to_bytes(nbytes, "little") for r in rows).hex())
    doc = {"n": 2, "m": m, "mats": mats}
    table = digest_table(doc)
    if any(int(table[x]) != naive_digest(doc, x) for x in range(1 << m)):
        raise AssertionError("vectorized digest evaluator disagrees with the definition")


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
