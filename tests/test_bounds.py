import tracemalloc

import numpy as np
import pytest

from boltlab.bounds import (
    cloning_bound,
    conversion_bound,
    count_ordered_bases,
    count_subspaces,
    gram_matrix,
    power_iteration,
    subspace_example_analytic,
    subspace_example_exact,
)
from boltlab import bounds, qsim
from boltlab.errors import DimensionMismatch, PreconditionError
from boltlab.gf2 import all_subspaces
from boltlab.qsim import StateVector
from oracles import (
    basis_state, from_amplitudes, intersection_dim, prior_matrix, subspace_family_states,
    three_product_power_iteration,
)


def _random_states(count, q, rng):
    out = []
    for _ in range(count):
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        out.append(from_amplitudes(q, amps, normalize=True))
    return out


def test_gram_identical_states():
    s = basis_state(2, 3)
    g = gram_matrix([s, s, s])
    assert np.allclose(g, np.ones((3, 3)))


def test_gram_orthonormal_family():
    fam = [basis_state(2, i) for i in range(4)]
    assert np.allclose(gram_matrix(fam), np.eye(4))


def _subspace_gram_closed_form(subs, n):
    """Entries 2^(dim(S & T) - n/2), from intersection ranks."""
    size = len(subs)
    g = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            d = intersection_dim(subs[i], subs[j])
            g[i, j] = g[j, i] = 2.0 ** (d - n / 2)
    return g


def test_gram_subspace_closed_form():
    states, subs = subspace_family_states(4)
    g = gram_matrix(states)
    assert np.allclose(g, _subspace_gram_closed_form(subs, 4), atol=1e-12)


def test_prior_matrix_cases():
    assert np.allclose(prior_matrix([0.25] * 4), np.full((4, 4), 0.25))
    pm = prior_matrix([0.0, 1.0])
    assert pm[1, 1] == 1.0 and pm.sum() == 1.0
    pm = prior_matrix([0.75, 0.25])
    assert pm[0, 1] == pytest.approx(np.sqrt(3) / 4)


def test_prior_checks_in_their_order():
    # finite, non-negative, sums to 1, then the length: a prior that breaks several checks
    # gets the first one's error
    fam = [basis_state(2, i) for i in range(3)]
    for prior, kind, text in [([np.nan, -1.0], PreconditionError, "finite"),
                              ([0.5, -0.1, 0.6, 0.0], PreconditionError, "negative"),
                              ([0.5, 0.4], PreconditionError, "sum to 1"),
                              ([0.5, 0.5], DimensionMismatch, "prior length")]:
        with pytest.raises(kind, match=text):
            cloning_bound(fam, prior, 2)
    assert cloning_bound(fam, [[0.5, 0.25, 0.25]], 2).lambda1 == pytest.approx(0.5)  # read flat


def test_conversion_bound_single_state():
    s = basis_state(3, 0)
    report = conversion_bound([s], [s], [1.0])
    assert np.allclose(report.c_matrix, [[1.0]])
    assert report.f2_bound_raw == pytest.approx(8.0)
    assert report.f2_bound == 1.0  # clipped: the bound is vacuous here


def test_conversion_bound_orthonormal_families():
    fam = [basis_state(3, i) for i in range(4)]
    report = conversion_bound(fam, fam, [0.25] * 4)
    assert np.allclose(report.c_matrix, np.eye(4) / 4)
    assert report.lambda1 == pytest.approx(0.25, abs=1e-10)
    assert report.f2_bound_raw == pytest.approx(2.0)


def test_power_iteration_matches_eigh():
    rng = np.random.default_rng(0)
    for size in [2, 3, 5, 8, 13, 21, 34, 40]:
        m = rng.normal(size=(size, size))
        c = m @ m.T / size  # random PSD
        lam, vec, _, res = power_iteration(c)
        top = np.linalg.eigvalsh(c).max()
        assert abs(lam - top) < 1e-8
        assert res < 1e-9


def test_power_iteration_zero_matrix():
    lam, _, _, _ = power_iteration(np.zeros((4, 4)))
    assert lam == 0.0


def _random_psd(size, complex_, rng):
    m = rng.normal(size=(size, size)) + (1j * rng.normal(size=(size, size)) if complex_ else 0)
    rank = int(rng.integers(1, size + 1))
    return m[:, :rank] @ m[:, :rank].conj().T / size


def test_power_iteration_is_the_three_product_reference_bit_for_bit():
    # one product per step carries C x into the next step; the three-product reference
    # computes that same product three times, so lambda, the vector's bytes, the iterations
    # and the residual agree exactly
    rng = np.random.default_rng(41)
    cases = [_random_psd(int(rng.integers(2, 201)), i % 2 == 1, rng) for i in range(60)]
    cases += [np.zeros((5, 5)), np.zeros((3, 3), complex), np.array([[0.25]]),
              np.array([[0.5 + 0j]])]
    # exact 2x2 matrices at lambda1 near 2e6, and one whose top two eigenvalues lie 5e-9 apart,
    # so that its residual falls too slowly and it restarts 97 times
    cases += [np.array([[a, b], [b, 20.0]]) * 10.0**e
              for a, b, e in ((9, 8, 5), (5, 2, 5), (11, 1, 5), (10, 5, 5))]
    restarting = [np.diag([1.0, 1.0 - 5e-9])]
    for c in cases + restarting:
        restarts = []
        want = three_product_power_iteration(c, restarts)
        got = power_iteration(c)
        assert got[0] == want[0] and got[2:] == want[2:], c.shape
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
        assert restarts or not any(c is r for r in restarting)


@pytest.mark.parametrize("seed", range(3))
def test_power_iteration_tolerances_are_relative_to_lambda1(seed):
    # an absolute 1e-10 lies below the residual's rounding floor once lambda1 is large: the
    # 2x2 restarted at step 74, and these 27x27 matrices did not converge in 100,000 steps
    m = np.random.default_rng(seed).normal(size=(27, 27))
    for c in (np.array([[9.0, 8.0], [8.0, 20.0]]) * 1e5, m @ m.T / 27 * 1.1e7):
        restarts = []
        three_product_power_iteration(c, restarts)
        lam, _, steps, res = power_iteration(c)
        top = np.linalg.eigvalsh(c).max()
        assert restarts == [] and steps <= 3000 and res < 1e-10 * lam, (steps, restarts)
        assert abs(lam - top) <= 1e-12 * top


def test_bound_reports_lambda_dominates_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        fam1 = _random_states(5, 3, rng)
        fam2 = _random_states(5, 3, rng)
        w = rng.random(5)
        prior = (w / w.sum()).tolist()
        report = conversion_bound(fam1, fam2, prior)
        assert report.lambda1 >= max(prior) - 1e-9
        # PSD invariant
        assert np.linalg.eigvalsh(report.c_matrix).min() >= -1e-9


def _real_family(count, q, rng):
    amps = np.abs(rng.normal(size=(count, 1 << q))) + 0.1
    return [StateVector(q, a / np.linalg.norm(a)) for a in amps]


def test_bound_matrices_are_the_whole_matrix_products_bit_for_bit():
    # C is built in place a row block at a time; every entry has the bits of the
    # whole-matrix products conj(G1) * G2 * prior_matrix, at 100 states (four blocks, the
    # last one short)
    rng = np.random.default_rng(43)
    w = rng.random(100)
    prior = w / w.sum()
    prior[0] += 1.0 - prior.sum()
    pm = prior_matrix(prior)
    fams = {"real": _real_family(100, 3, rng), "complex": _random_states(100, 3, rng)}
    for name, fam in fams.items():
        g = gram_matrix(fam)
        for copies in (1, 2, 3, 5):
            c = cloning_bound(fam, prior, copies).c_matrix
            want = np.conj(g) * g**copies * pm
            assert c.dtype == want.dtype and c.tobytes() == want.tobytes(), (name, copies)
        for other, fam2 in fams.items():
            c = conversion_bound(fam, fam2, prior).c_matrix
            want = np.conj(g) * gram_matrix(fam2) * pm
            assert c.dtype == want.dtype and c.tobytes() == want.tobytes(), (name, other)


def _allocated(call):
    """Peak bytes that numpy and Python allocate during call, output included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bounds_hold_one_full_size_matrix():
    # 400 real states: cloning holds C alone, conversion the two Gram matrices at once, and
    # neither builds the whole prior matrix (it and numpy's broadcast buffer would take
    # conversion to 2.11 full-size matrices)
    n = 400
    rng = np.random.default_rng(47)
    fam1, fam2 = _real_family(n, 2, rng), _real_family(n, 2, rng)
    prior = [1 / n] * n
    full = n * n * 8
    assert _allocated(lambda: cloning_bound(fam1, prior, 2)) <= 1.25 * full
    assert _allocated(lambda: conversion_bound(fam1, fam2, prior)) <= 2.0625 * full


def test_cloning_orthonormal_is_d_over_n():
    fam = [basis_state(3, i) for i in range(4)]
    for copies in (1, 2, 5):
        report = cloning_bound(fam, [0.25] * 4, copies)
        assert report.f2_bound_raw == pytest.approx(8 / 4)


def test_cloning_identical_states_is_vacuous():
    s = basis_state(2, 1)
    report = cloning_bound([s, s, s], [1 / 3] * 3, 2)
    assert report.lambda1 == pytest.approx(1.0, abs=1e-9)  # all-ones / n has top eig 1
    assert report.f2_bound_raw == pytest.approx(4.0)
    assert report.f2_bound == 1.0


def test_cloning_many_copies_approaches_d_over_n():
    # distinct states: entrywise powers drive the Gram matrix to the identity
    rng = np.random.default_rng(2)
    fam = _random_states(6, 3, rng)
    report = cloning_bound(fam, [1 / 6] * 6, 64)
    assert abs(report.lambda1 - 1 / 6) < 0.01 / 6
    assert abs(report.f2_bound_raw - 8 / 6) < 0.01 * 8 / 6


def test_bounds_hold_for_the_universal_cloner_on_the_six_pauli_states():
    # rho = (2/3) P_sym (|psi><psi| x I) P_sym reaches F^2 = 2/3 on every pure qubit state
    # (Buzek and Hillery 1996); the family is complex, so C must take conj(G1)
    h = 2**-0.5
    pauli = [from_amplitudes(1, a)
             for a in ([1, 0], [0, 1], [h, h], [h, -h], [h, 1j * h], [h, -1j * h])]
    twice = [from_amplitudes(2, np.kron(s.amps, s.amps)) for s in pauli]
    sym = (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]) / 2  # the projector onto the symmetric subspace
    f2 = np.mean([np.vdot(t.amps, sym @ np.kron(np.outer(s.amps, s.amps.conj()), np.eye(2))
                          @ sym @ t.amps).real * 2 / 3 for s, t in zip(pauli, twice)])
    assert f2 == pytest.approx(2 / 3, abs=1e-12)
    assert cloning_bound(pauli, [1 / 6] * 6, 2).f2_bound_raw >= 2 / 3 - 1e-12
    assert conversion_bound(pauli, twice, [1 / 6] * 6).f2_bound_raw >= 2 / 3 - 1e-12


def test_count_subspaces_small_cases():
    assert count_subspaces(1, 2, 2) == 3
    assert count_subspaces(2, 4, 2) == 35
    assert count_subspaces(0, 5, 2) == 1
    assert count_subspaces(3, 3, 2) == 1
    # enumeration oracle
    assert len(all_subspaces(4, 2)) == 35
    assert len(all_subspaces(2, 1)) == 3


def test_count_ordered_bases_printed_product():
    assert count_ordered_bases(1, 2, 2) == 3  # q - 1 = 1 per line, so equal here
    assert count_ordered_bases(2, 2, 2) == 6  # but it counts tuples, not subspaces
    assert count_subspaces(2, 2, 2) == 1


def test_subspace_example_exact_n4():
    doc = subspace_example_exact(4)
    assert doc["subspace_count"] == 35 == doc["expected_count"]
    # the uniform vector is the Perron eigenvector: lambda1 is the common row
    # sum (1 + 18/8 + 16/64) / 35 = 0.1, exactly
    assert doc["lambda1"] == pytest.approx(0.1, abs=1e-9)
    # at n=4 the asymptotic ceilings do not hold; the report says so honestly
    assert doc["lambda1_ok"] is False
    assert doc["f2_ok"] is False


def test_subspace_example_exact_n2():
    doc = subspace_example_exact(2)
    assert doc["subspace_count"] == 3
    # row sum (1 + 2/8) / 3
    assert doc["lambda1"] == pytest.approx((1 + 0.25) / 3, abs=1e-9)
    assert doc["f2_cap"] == pytest.approx(1.0)  # vacuous at n=2


def test_subspace_example_analytic_terms():
    doc = subspace_example_analytic(4, 2)
    assert doc["ordered_tuple_count"] == 210
    assert doc["subspace_count_gaussian"] == 35
    # per-term ratio bound q^{-k n/2} from the chain's algebra
    for term in doc["terms"]:
        k = term["k"]
        assert term["ratio"] <= 2.0 ** (-k * 4 / 2) + 1e-12


def test_subspace_example_analytic_chain_below_exact():
    # read with ordered-tuple counts, the chain falls below the exact lambda1,
    # so it is reported as the chain's value and not as an upper bound
    doc = subspace_example_analytic(8, 2)
    assert doc["lambda1_chain"] < doc["lambda1_exact"]
    assert doc["f2_chain"] < doc["f2_exact"]
    assert doc["chain_below_cap"] is True
    assert doc["lambda1_exact"] > doc["lambda1_cap"]  # while the exact lambda1 is above it
    doc = subspace_example_analytic(4, 2)
    assert doc["chain_below_cap"] is False


def test_subspace_example_analytic_exact_matches_enumeration():
    for n in (2, 4, 6):
        doc = subspace_example_analytic(n, 2)
        assert doc["lambda1_exact"] == pytest.approx(
            subspace_example_exact(n)["lambda1"], rel=0, abs=1e-12
        )
        assert doc["f2_exact"] == pytest.approx(2**n * doc["lambda1_exact"], rel=1e-15)
    assert subspace_example_analytic(4, 2)["lambda1_exact"] == 0.1


def _check_named_bounds(doc, lambda1_exact, f2_exact, slack=0.0):
    """Every field named an upper bound or a bound is at least the exact value."""
    for name, value in doc.items():
        if "upper" in name or "bound" in name:
            exact = f2_exact if name.startswith("f2") else lambda1_exact
            assert value >= exact * (1 - slack), (doc["n"], doc["q"], name)


def test_subspace_example_reports_name_no_false_bound():
    for q in (2, 3, 4):
        for n in range(2, 41, 2):
            doc = subspace_example_analytic(n, q)
            _check_named_bounds(doc, doc["lambda1_exact"], doc["f2_exact"])
    for n in (2, 4, 6):  # the exact report's f2_bound_raw is d * lambda1 itself
        exact = subspace_example_analytic(n, 2)
        _check_named_bounds(subspace_example_exact(n), exact["lambda1_exact"],
                            exact["f2_exact"], slack=1e-12)


def test_gram_rejects_norm_defect():
    # defect between the constructor's loose guard (1e-6) and gram's 1e-9
    amps = np.array([0.5, 0.5, 0.5, 0.5]) * (1 + 2e-8)
    bad = from_amplitudes(2, amps, normalize=False)
    with pytest.raises(PreconditionError):
        gram_matrix([bad])


def test_an_amplitude_matrix_gives_the_bounds_its_states_give():
    rng = np.random.default_rng(17)
    for fam in (_random_states(12, 3, rng), subspace_family_states(4)[0]):
        amps, prior = np.stack([s.amps for s in fam]), [1 / len(fam)] * len(fam)
        assert gram_matrix(amps).tobytes() == gram_matrix(fam).tobytes()
        want, got = cloning_bound(fam, prior, 2), cloning_bound(amps, prior, 2)
        assert got.c_matrix.tobytes() == want.c_matrix.tobytes()
        assert got.to_json() == want.to_json()
    good = np.stack([basis_state(2, i).amps for i in range(3)])
    for bad, kind in ((good[:0], PreconditionError), (good * (1 + 2e-8), PreconditionError),
                      (np.where(good == 1, np.nan, good), PreconditionError),
                      (np.where(good == 1, np.inf, good), PreconditionError)):
        with pytest.raises(kind):
            gram_matrix(bad)
    with pytest.raises(DimensionMismatch):
        gram_matrix([basis_state(2, 0), basis_state(3, 0)])


def test_subspace_example_builds_its_family_in_one_matrix(monkeypatch):
    # the matrix is the stack of the family's StateVectors to the bit, and no state is built
    seen, built = [], []
    bound = bounds.cloning_bound
    monkeypatch.setattr(bounds, "cloning_bound", lambda states, *a, **k: seen.append(states)
                        or bound(states, *a, **k))
    post_init = qsim.StateVector.__post_init__
    monkeypatch.setattr(qsim.StateVector, "__post_init__",
                        lambda self: built.append(self.num_qubits) or post_init(self))
    for n in (2, 4, 6):
        subspace_example_exact(n)
    assert built == []
    monkeypatch.undo()
    for n, amps in zip((2, 4, 6), seen):
        want = np.stack([s.amps for s in subspace_family_states(n)[0]])
        assert amps.dtype == want.dtype and amps.tobytes() == want.tobytes()
