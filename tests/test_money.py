import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from boltlab.errors import PreconditionError
from boltlab.gf2 import (
    BitMatrix, all_subspaces, random_subspace_rows, random_subspaces, subspace_elements,
)
from boltlab import jsonio, money, qsim
from oracles import (
    basis_state, binomial_band, counterfeit_experiment, counterfeit_f2, counterfeit_success,
    dual_space, fidelity, fixed_guess, from_amplitudes, hadamard_all, intersection_dim,
    note_state, orthogonal_to, project_onto_span, random_matrix, random_subspace_between,
    span_canonical, subspace_contains, subspace_state, two_tests,
)


def test_money_gen_state_shape():
    note = money.money_gen(2, np.random.default_rng(0))
    amps = note_state(note).amps
    nonzero = amps[np.abs(amps) > 0]
    assert len(nonzero) == 2
    assert np.allclose(np.abs(nonzero), 2**-0.5)

    note = money.money_gen(8, np.random.default_rng(1))
    amps = note_state(note).amps
    nonzero = amps[np.abs(amps) > 0]
    assert len(nonzero) == 16
    assert np.allclose(np.abs(nonzero), 0.25)


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_a_note_dumps_the_bytes_of_its_dense_state(n):
    # the note is held as its support; its dump is the dense note's, byte for byte
    for seed in range(6):
        note = money.money_gen(n, np.random.default_rng(seed))
        assert np.array_equal(note.support, sorted(subspace_elements(note.subspace)))
        assert (jsonio.dumps(qsim.state_dump(note))
                == jsonio.dumps(qsim.state_dump(subspace_state(note.subspace, n))))


def test_making_and_dumping_an_n20_note_allocates_under_a_mebibyte():
    # what ``money gen`` does: the 2^10 points of S are spelled, and no 2^20 amplitudes (8 MiB)
    # are built
    tracemalloc.start()
    try:
        note = money.money_gen(20, np.random.default_rng(3))
        jsonio.dump(qsim.state_dump(note), out := io.BytesIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue().count(b"[") == 1 + note.support.size
    assert peak < 1 << 20, peak


def test_money_gen_rejects_odd_n():
    with pytest.raises(PreconditionError):
        money.money_gen(3, np.random.default_rng(0))


@pytest.mark.parametrize("n, rows, cols, match", [
    (4, (1,), 4, "2 independent rows"), (4, (1, 1), 4, "2 independent rows"),
    (4, (1, 2, 4), 4, "2 independent rows"), (4, (1, 2), 5, "rows of 4 bits"),
    (3, (1,), 3, "even"), (22, tuple(1 << i for i in range(11)), 22, "n <= 20"),
    (0, (), 0, "at least one qubit")])
def test_a_note_is_n_over_2_independent_rows_of_an_even_n(n, rows, cols, match):
    with pytest.raises(PreconditionError, match=match):
        money.note_for_subspace(BitMatrix(rows, cols), n, np.random.default_rng(0))


def test_honest_note_verifies_with_certainty():
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        note = money.money_gen(n, rng)
        state = note_state(note)
        analysis = money.money_verify_analysis(state, note.subspace)
        assert analysis.probability == pytest.approx(1.0, abs=1e-12)
        assert analysis.accepts(rng)
        # idempotence across repeated verifications: what passes is the note
        _, post = two_tests(state, note.subspace)
        assert 1.0 - fidelity(post, state) < 1e-9
        again = money.money_verify_analysis(post, note.subspace)
        assert again.probability == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - fidelity(two_tests(post, note.subspace)[1], state) < 1e-9


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
def test_honest_note_of_power_of_two_amplitudes_verifies_at_exactly_one(n):
    # 2^(-n/4) is a power of two, so every sum on S is exact
    note = money.money_gen(n, np.random.default_rng(n))
    analysis = money.money_verify_analysis(note_state(note), note.subspace)
    assert (analysis.p0, analysis.p1, analysis.probability, analysis.projective) == (1.0,) * 4


def test_basis_state_inside_subspace():
    rng = np.random.default_rng(3)
    n = 6
    note = money.money_gen(n, rng)
    inside = sorted(
        int(i) for i in np.flatnonzero(np.abs(note_state(note).amps) > 0)
    )
    x = inside[-1]
    p = money.money_verify_analysis(basis_state(n, x), note.subspace).probability
    # passes the first test surely; the dual test passes with |S_perp|/2^n
    assert p == pytest.approx(2.0 ** (-n / 2), abs=1e-12)


def test_basis_state_outside_subspace_rejected():
    rng = np.random.default_rng(4)
    n = 6
    note = money.money_gen(n, rng)
    amps = note_state(note).amps
    outside = [i for i in range(1 << n) if abs(amps[i]) == 0]
    analysis = money.money_verify_analysis(basis_state(n, outside[0]), note.subspace)
    assert analysis.probability == 0.0 and not analysis.accepts(rng)


def test_projective_probability_honest_and_disjoint():
    rng = np.random.default_rng(5)
    n = 4
    note = money.money_gen(n, rng)
    p = money.money_verify_analysis(note_state(note), note.subspace).projective
    assert p == pytest.approx(1.0, abs=1e-12)
    # an honest note for a transversal subspace overlaps at 2^{-n}
    while True:
        other = random_subspaces(n, n // 2, 1, rng)[0]
        if intersection_dim(other, note.subspace) == 0:
            break
    other_state = subspace_state(other, n)
    p = money.money_verify_analysis(other_state, note.subspace).projective
    assert p == pytest.approx(2.0**-n, abs=1e-12)


def test_overlap_closed_form():
    # |<$_S|$_T>| = 2^(dim(S&T) - n/2) for every sampled pair
    rng = np.random.default_rng(6)
    n = 8
    for _ in range(20):
        s = random_subspaces(n, n // 2, 1, rng)[0]
        t = random_subspaces(n, n // 2, 1, rng)[0]
        overlap = abs(
            np.vdot(subspace_state(s, n).amps, subspace_state(t, n).amps)
        )
        assert overlap == pytest.approx(
            2.0 ** (intersection_dim(s, t) - n / 2), abs=1e-12
        )


def test_verify_agrees_with_projector_on_battery():
    # the two-test verifier is the rank-1 projector onto the honest note
    rng = np.random.default_rng(7)
    for n in (4, 6, 8):
        note = money.money_gen(n, rng)
        battery = [subspace_state(s, n) for s in random_subspaces(n, n // 2, 10, rng)]
        battery += [basis_state(n, int(rng.integers(1 << n))) for _ in range(10)]
        for _ in range(10):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            battery.append(from_amplitudes(n, amps, normalize=True))
        for state in battery:
            p_two = money.money_verify_analysis(state, note.subspace).probability
            p_proj, _ = project_onto_span(state, [note_state(note)])
            assert abs(p_two - p_proj) < 1e-6


def test_hadamard_duality_for_sampled_subspaces():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 7)) * 2
        s = random_subspaces(n, n // 2, 1, rng)[0]
        state = subspace_state(s, n)
        dual = subspace_state(dual_space(s), n)
        assert np.abs(hadamard_all(state).amps - dual.amps).max() < 1e-10


_HALF_SUBSPACES = {n: all_subspaces(n, n // 2) for n in (2, 4, 6)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_HALF_SUBSPACES)), st.data())
def test_reference_membership_tables_are_the_spans(n, data):
    s = data.draw(st.sampled_from(_HALF_SUBSPACES[n]))
    primal = set(subspace_elements(s))
    dual = set(subspace_elements(dual_space(s)))
    assert orthogonal_to(dual_space(s).rows, n).tolist() == [x in primal for x in range(1 << n)]
    assert orthogonal_to(s.rows, n).tolist() == [x in dual for x in range(1 << n)]


def test_counterfeit_measure_and_copy():
    stats = money.counterfeit_experiment(
        4, money.measure_and_copy, 400, np.random.default_rng(9)
    )
    # each measured point overlaps the note at 2^{-n/2}, squared and doubled
    assert stats["mean_f2"] == pytest.approx(2.0**-4, abs=1e-12)
    assert stats["per_trial_f2_sd"] == 0.0
    lo, hi = stats["wilson_95"]
    assert lo <= stats["success_rate"] <= hi


def test_counterfeit_honest_forwarding():
    stats = money.counterfeit_experiment(
        4, money.honest_forwarding, 200, np.random.default_rng(10)
    )
    # untouched note scores 1; |0> scores 2^{-n/2}
    assert stats["mean_f2"] == pytest.approx(2.0**-2, abs=1e-12)


def test_counterfeit_fixed_guess():
    stats = money.counterfeit_experiment(
        4, money.fixed_guess, 200, np.random.default_rng(11)
    )
    assert stats["mean_f2"] == pytest.approx(2.0**-4, abs=1e-12)


@pytest.mark.parametrize("adversary", sorted(money.BUILTIN_ADVERSARIES))
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_counterfeit_successes_lie_in_the_binomial_band(n, adversary):
    # 1,200 trials span two blocks of draws; a trial succeeds with probability F^2
    trials = 1200
    lo, hi = binomial_band(trials, counterfeit_success(adversary, n))
    for seed in range(1, 6):
        stats = money.counterfeit_experiment(
            n, money.BUILTIN_ADVERSARIES[adversary], trials, np.random.default_rng(seed)
        )
        assert lo <= stats["successes"] <= hi, (seed, stats["successes"], lo, hi)


@pytest.mark.parametrize("adversary", sorted(money.BUILTIN_ADVERSARIES))
def test_counterfeit_at_n20_builds_no_state_and_stays_under_a_mebibyte(adversary, monkeypatch):
    # a dense run builds a 2^20-amplitude note (8 MiB) per trial
    built = []
    post_init = qsim.StateVector.__post_init__
    monkeypatch.setattr(qsim.StateVector, "__post_init__",
                        lambda self: built.append(self.num_qubits) or post_init(self))
    tracemalloc.start()
    try:
        rep = money.counterfeit_experiment(
            20, money.BUILTIN_ADVERSARIES[adversary], 3000, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [] and peak < 1 << 20
    assert rep["mean_f2"] == np.full(3000, counterfeit_f2(adversary, 20)).mean()


def test_measure_copy_points_are_uniform_on_s():
    rng = np.random.default_rng(13)
    notes = random_subspace_rows(4, 2, 6, rng)
    outputs = money.measure_and_copy(np.repeat(notes, 4000, axis=0), rng)
    assert (outputs[:, 0] == outputs[:, 1]).all()
    for i, rows in enumerate(notes.tolist()):
        points = outputs[i * 4000 : (i + 1) * 4000, 0]
        counts = Counter(points.tolist())
        assert set(counts) == set(subspace_elements(BitMatrix(tuple(rows), 4)))
        assert chisquare(list(counts.values())).pvalue > 1e-6


def test_adversaries_read_one_uniform_per_measured_note():
    # rng.random(block) reads the generator as block scalar draws do
    for block in (1, 7, 1024):
        notes = random_subspace_rows(8, 4, block, np.random.default_rng(block))
        for name, adversary in money.BUILTIN_ADVERSARIES.items():
            want, got = np.random.default_rng(5), np.random.default_rng(5)
            for _ in range(block if name == "measure-copy" else 0):
                want.random()
            adversary(notes, got)
            assert want.random() == got.random()


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_output_fidelities_are_the_dense_overlaps(n):
    rng = np.random.default_rng(n)
    notes = random_subspace_rows(n, n // 2, 12, rng)
    points = rng.integers(0, 1 << n, size=(12, 2))
    points[:, 0] = money.measure_and_copy(notes, rng)[:, 0]  # one point of S per note
    outputs = np.where(np.arange(12)[:, None] % 3 == 2, money.NOTE, points)
    got = money.output_fidelities(notes, outputs, n)
    for rows, out, fid in zip(notes.tolist(), outputs.tolist(), got.tolist()):
        s = BitMatrix(tuple(rows), n)
        note = subspace_state(s, n)
        for x, f in zip(out, fid):
            if x == money.NOTE:
                assert f == 1.0 and abs(fidelity(note, note) - 1.0) < 1e-12
            else:
                assert f == fidelity(note, basis_state(n, x))  # to the bit
                assert (f > 0) == (x in subspace_elements(s))


@pytest.mark.parametrize("n", [2, 6])
def test_honest_forwarding_scores_its_note_exactly(n):
    # the dense <note|note> rounds to 0.9999999999999996 here; the description scores 1.0
    for trials in (1, 150, 2500):
        rep = money.counterfeit_experiment(
            n, money.honest_forwarding, trials, np.random.default_rng(trials))
        assert rep["mean_f2"] == np.full(trials, counterfeit_f2("honest-forward", n)).mean()
        assert rep["per_trial_f2_sd"] == 0.0
        assert abs(rep["mean_f2"] - counterfeit_success("honest-forward", n)) < 1e-15


def test_counterfeit_hybrid_walls():
    # with walls T1-perp <= S <= T0 the sampled subspace stays between them
    rng = np.random.default_rng(12)
    n = 6
    t0 = random_subspaces(n, 5, 1, rng)[0]
    t1 = random_subspace_between(dual_space(t0), BitMatrix.identity(n), 5, rng)
    seen = []

    def spy(state, trng):
        seen.append(state)
        return fixed_guess(state, trng)

    counterfeit_experiment(n, spy, 20, rng, t0=t0, t1=t1)
    lower = span_canonical(dual_space(t1))
    lower_pts = set(subspace_elements(lower))
    for state in seen:
        support = {int(i) for i in np.flatnonzero(np.abs(state.amps) > 0)}
        assert len(support) == 2 ** (n // 2)
        assert lower_pts <= support  # contains T1-perp
        for v in support:  # contained in T0
            assert subspace_contains(t0, BitMatrix((v,), n))


def test_wilson_interval_basics():
    lo, hi = money.wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = money.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo <= hi <= 1.0


def test_wilson_interval_ends_are_exact_at_no_and_all_successes():
    for trials in [*range(1, 300), 1000, 10000, 10 ** 6]:
        lo, hi = money.wilson_interval(0, trials)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = money.wilson_interval(trials, trials)
        assert 0.0 < lo < 1.0 and hi == 1.0
        for s in {1, trials // 2, trials - 1} - {0, trials}:
            lo, hi = money.wilson_interval(s, trials)
            assert 0.0 <= lo <= s / trials <= hi <= 1.0
    rep = money.counterfeit_experiment(10, money.measure_and_copy, 100, np.random.default_rng(1))
    assert rep["successes"] == 0 and rep["wilson_95"][0] == 0.0


# -- the closed form against the dense reference ----------------------------------
#
# The reference (``oracles.two_tests``) is the earlier verifier: both tests on the
# whole state, with 2^n membership tables built from the basis and the Hadamard on
# every qubit between them, the sampled run drawing as it goes and building its own
# post-state.  The projector's reference is the Gram-Schmidt span projector.


def _reference_battery(note, n, rng):
    """The note, basis states inside and outside S, another subspace's note and random
    complex states."""
    state = note_state(note)
    support = np.flatnonzero(np.abs(state.amps) > 0)
    outside = np.flatnonzero(np.abs(state.amps) == 0)
    battery = [state, basis_state(n, int(rng.choice(support))),
               basis_state(n, int(rng.choice(outside))),
               subspace_state(random_subspaces(n, n // 2, 1, rng)[0], n)]
    for _ in range(3):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        battery.append(from_amplitudes(n, amps, normalize=True))
    return battery


def _same_post(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and np.abs(a.amps - b.amps).max() < 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_matches_the_dense_reference(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 4, 6, 8, 10):
        note = money.money_gen(n, rng)
        for state in _reference_battery(note, n, rng):
            passed = []  # the reference's pass probabilities, in the order it reaches them
            p_ref, post = two_tests(state, note.subspace, lambda p: passed.append(p) or True)
            p0_ref, p1_ref = (passed + [0.0, 0.0])[:2]
            proj_ref, proj_post = project_onto_span(state, [note_state(note)])
            analysis = money.money_verify_analysis(state, note.subspace)
            got = (analysis.p0, analysis.p1, analysis.probability, analysis.projective)
            want = (p0_ref, p1_ref, p_ref, min(proj_ref, 1.0))
            assert np.abs(np.subtract(got, want)).max() < 1e-12, (n, got, want)
            assert max(got) <= 1.0 and _same_post(post, proj_post)
            for draw_seed in range(8):
                want_rng, got_rng = (np.random.default_rng(draw_seed) for _ in range(2))
                _, want_post = two_tests(state, note.subspace, lambda p: want_rng.random() < p)
                assert analysis.accepts(got_rng) == (want_post is not None)
                # the same number of draws: the streams continue alike
                assert want_rng.random() == got_rng.random()


@pytest.mark.parametrize("seed", range(5))
def test_a_state_that_passes_both_tests_is_the_note(seed):
    # H P_perp H P_S is the rank-1 projector onto the note: whatever passes is the note
    rng = np.random.default_rng(seed)
    for n in (2, 4, 6, 8):
        note = money.money_gen(n, rng)
        for state in _reference_battery(note, n, rng):
            p, post = two_tests(state, note.subspace)
            assert (post is None) == (p == 0.0)
            if post is not None:
                assert 1.0 - fidelity(post, note_state(note)) < 1e-12


def test_verify_analysis_allocates_under_a_quarter_of_the_amplitudes():
    # the analysis reads the 2^(n/2) amplitudes on S and builds no 2^n array
    note = money.money_gen(16, np.random.default_rng(4))
    state = note_state(note)
    tracemalloc.start()
    try:
        analysis = money.money_verify_analysis(state, note.subspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert analysis.probability == 1.0
    assert peak < state.amps.nbytes / 4


def test_cli_money_verify_builds_no_note(tmp_path, capsys, monkeypatch):
    from boltlab.cli import main

    note = tmp_path / "note.json"
    main(["money", "gen", "--n", "8", "--seed", "2", "--out", str(note)])
    capsys.readouterr()
    built = []
    monkeypatch.setattr(money, "note_for_subspace", lambda *args: built.append(args))
    assert main(["money", "verify", "--note", str(note)]) == 0
    assert built == []
    assert '"exact_acceptance_probability":1.0' in capsys.readouterr().out


def test_random_subspace_draws_as_rank_then_canonical_did():
    from boltlab.gf2 import rank

    for seed in range(20):
        n, d = 2 + seed % 7, seed % 5
        if d > n:
            continue
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        while True:
            cand = random_matrix(d, n, want_rng)
            if rank(cand) == d:
                break
        assert random_subspaces(n, d, 1, got_rng)[0] == span_canonical(cand)
        assert want_rng.random() == got_rng.random()
