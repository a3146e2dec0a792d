import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from boltlab.errors import PreconditionError
from boltlab.extraction import circuit_span_analysis, get_plan
from boltlab.gf2 import BitMatrix, BitVector, eliminate, solve_affine
from boltlab import lightning as lt
from boltlab.mqhash import HashKey, digest_table, fiber_counts, keygen, preimage_indices
from boltlab.cli import main
from boltlab.qsim import StateVector
from oracles import (
    DESK,
    allocating_wht,
    basis_state,
    binomial_band,
    circuit_reference,
    dense_joint_bolt,
    expanded_targets,
    fidelity,
    fresh_psi_state,
    from_amplitudes,
    game_accept_rate,
    gathered_fiber_sums,
    images_analysis,
    ideal_product_state,
    joint_delta_survey,
    measure_function,
    measured_variant_run,
    micro,
    minentropy_serial_rates,
    phase_images,
    phi_state,
    project_onto_span,
    psi_combination,
    serial_masses,
    solved_transcripts,
    span_projection,
    substitution_plan,
    tensor,
    transcript_fields,
)


def _desk_key(seed=11):
    return keygen(2, 12, np.random.default_rng(seed))


def _micro(seed=7, m=6):
    params = micro(m)
    return keygen(1, m, np.random.default_rng(seed)), params


def _in_span_state(key, coeffs):
    amps = np.zeros(1 << key.m, dtype=np.complex128)
    for r, c in enumerate(coeffs):
        amps += c * phi_state(key, r).amps
    return from_amplitudes(key.m, amps, normalize=True)


def test_params_invariants():
    with pytest.raises(PreconditionError):
        lt.LightningParams(n=2, m=2, k=2, u=2)  # n < m violated
    with pytest.raises(PreconditionError):
        lt.LightningParams(n=2, m=8, k=2, u=3)  # m >= u(n+1) violated
    with pytest.raises(PreconditionError):
        lt.LightningParams(n=2, m=12, k=2, u=1)  # u >= n violated
    assert DESK.m == 12 and DESK.u == 3


def test_setup_deterministic_and_seed_sensitive():
    p = DESK
    k1 = keygen(p.n, p.m, np.random.default_rng(5))
    k2 = keygen(p.n, p.m, np.random.default_rng(5))
    assert k1 == k2
    others = {str(keygen(p.n, p.m, np.random.default_rng(s)).to_json()) for s in range(100)}
    assert len(others) == 100


def test_gen_bolt_deterministic_under_seed():
    key = _desk_key()
    b1 = lt.gen_bolt(key, DESK, np.random.default_rng(33))
    b2 = lt.gen_bolt(key, DESK, np.random.default_rng(33))
    assert b1.serial == b2.serial
    assert np.array_equal(b1.registers[0].amps, b2.registers[0].amps)


def test_gen_bolt_product_structure():
    key = _desk_key()
    rng = np.random.default_rng(0)
    bolt = lt.gen_bolt(key, DESK, rng)
    assert bolt.mode == lt.MODE_PRODUCT
    assert len(bolt.registers) == DESK.k + 1
    fiber = set(preimage_indices(key, bolt.serial).tolist())
    for reg in bolt.registers:
        support = set(np.flatnonzero(np.abs(reg.amps) > 0).tolist())
        assert support == fiber
        nonzero = reg.amps[np.abs(reg.amps) > 0]
        assert np.allclose(nonzero, nonzero[0])


def test_phase_and_preimage_families_span_same_space():
    key = _desk_key()
    phis = [phi_state(key, r) for r in range(4)]
    psis = [fresh_psi_state(key, BitVector(y, 2)) for y in range(4)]
    for psi in psis:
        p, _ = project_onto_span(psi, phis)
        assert 1.0 - p < 1e-10
    for phi in phis:
        p, _ = project_onto_span(phi, psis)
        assert 1.0 - p < 1e-10


def test_honest_serial_is_deterministic():
    # the digest measurement on an honest register is a point mass
    key = _desk_key()
    bolt = lt.gen_bolt(key, DESK, np.random.default_rng(1))
    outcomes = measure_function(bolt.registers[0], digest_table(key))
    assert len(outcomes) == 1
    assert outcomes[0][0] == bolt.serial.bits
    assert outcomes[0][1] == pytest.approx(1.0, abs=1e-12)


def test_mini_verify_oracle_honest():
    key = _desk_key()
    rng = np.random.default_rng(2)
    bolt = lt.gen_bolt(key, DESK, rng)
    res = lt.mini_verify(key, DESK, bolt.registers[0], rng)
    assert res.accepted
    assert res.serial == bolt.serial
    assert res.analysis.cdf[0].tolist() == [bolt.serial.bits]  # the serial is certain


def test_mini_verify_basis_state_probability_is_inverse_fiber():
    key = _desk_key()
    counts = fiber_counts(key)
    tab = digest_table(key)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = int(rng.integers(1 << 12))
        p = lt.mini_verify_acceptance(key, DESK, basis_state(12, x))
        assert p == pytest.approx(1.0 / counts[tab[x]], abs=1e-12)


def test_mean_basis_acceptance_is_two_to_n_minus_m():
    key = _desk_key()
    counts = fiber_counts(key)
    # E_x[1/|fiber(f(x))|] = (#nonempty fibers) / 2^m
    mean = sum(counts[y] * (1.0 / counts[y]) for y in range(4) if counts[y]) / 2**12
    assert mean == pytest.approx(2.0**-10, abs=1e-15)


def _reference_projection(key, state, start=0):
    """Gram-Schmidt over the phase states on every m-qubit slice of the block."""
    phis = [phi_state(key, r) for r in range(1 << key.n)]
    blocks = state.amps.reshape(-1, 1 << key.m, 1 << start)
    proj = np.zeros_like(blocks)
    for h in range(blocks.shape[0]):
        for l in range(blocks.shape[2]):
            v = blocks[h, :, l]
            nrm = np.linalg.norm(v)
            if nrm == 0:
                continue
            p, post = project_onto_span(StateVector(key.m, v / nrm), phis)
            if post is not None:
                proj[h, :, l] = np.sqrt(p) * nrm * post.amps
    prob = float(np.linalg.norm(proj) ** 2)
    return prob, proj.reshape(-1) / np.sqrt(prob)


def _projector_keys():
    zero = BitMatrix(tuple([0] * 5), 5)
    yield _desk_key()
    for m in (4, 5, 6):
        yield _micro(m=m)[0]
    yield HashKey(2, 5, (zero, zero))  # every input hashes to 0: fibers 1-3 are empty


def test_fiber_mean_projector_equals_gram_schmidt():
    rng = np.random.default_rng(26)
    for key in _projector_keys():
        coeffs = rng.normal(size=1 << key.n) + 1j * rng.normal(size=1 << key.n)
        states = [basis_state(key.m, int(rng.integers(1 << key.m))),
                  _in_span_state(key, coeffs)]
        for _ in range(3):
            amps = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
            states.append(from_amplitudes(key.m, amps, normalize=True))
        for state in states:
            p, post = span_projection(key, state)
            p_ref, post_ref = _reference_projection(key, state)
            assert abs(p - p_ref) < 1e-12
            assert np.abs(post.amps - post_ref).max() < 1e-12


def test_fiber_mean_projector_on_joint_blocks():
    key, params = _micro(m=4)
    rng = np.random.default_rng(27)
    q = (params.k + 1) * key.m
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    states = [from_amplitudes(q, amps, normalize=True)]
    for seed in (6, 16):
        bolt = lt.gen_bolt(key, params, np.random.default_rng(seed), mode=lt.MODE_JOINT)
        states.append(bolt.registers[0])
    tab, counts = digest_table(key), fiber_counts(key)
    for state in states:
        for start in range(q - key.m + 1):
            p, post = span_projection(key, state, start)
            p_ref, post_ref = _reference_projection(key, state, start)
            assert abs(p - p_ref) < 1e-12
            assert np.abs(post.amps - post_ref).max() < 1e-12
        # on the top block the whole post-state is fixed by the analysis: psi_y beside below[y]
        a = lt.register_analysis(key, params, state)
        assert abs(a.stages[0][0] - min(p, 1.0)) < 1e-12
        rows = post.amps.reshape(1 << key.m, -1)
        assert np.abs(rows - a.below[tab] / np.sqrt(counts[tab])[:, None]).max() < 1e-12


def test_honest_register_accepts_with_probability_one():
    key = _desk_key()
    for y in np.flatnonzero(fiber_counts(key)):
        psi = fresh_psi_state(key, BitVector(int(y), key.n))
        assert abs(lt.mini_verify_acceptance(key, DESK, psi) - 1.0) <= 1e-15


_VERIFY_SHAPES = [(1, m) for m in range(2, 11)] + [(2, m) for m in range(6, 11)]


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from(_VERIFY_SHAPES), hs.integers(0, 2**32 - 1),
       hs.sampled_from([lt.ORACLE, lt.CIRCUIT]))
def test_honest_acceptance_never_exceeds_one(shape, seed, strategy):
    n, m = shape
    params = lt.LightningParams(n=n, m=m, k=2, u=n)
    rng = np.random.default_rng(seed)
    key = keygen(n, m, rng)
    bolt = lt.gen_bolt(key, params, rng)
    assert 0.0 <= lt.full_verify_acceptance(key, params, bolt, strategy) <= 1.0


def test_mini_verify_in_span_accepts_oracle():
    key = _desk_key()
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = _in_span_state(key, coeffs)
    assert lt.mini_verify_acceptance(key, DESK, state) == pytest.approx(1.0, abs=1e-12)
    res = lt.mini_verify(key, DESK, state, rng)
    assert res.accepted


def test_full_verify_honest_bolt():
    key = _desk_key()
    rng = np.random.default_rng(5)
    bolt = lt.gen_bolt(key, DESK, rng)
    res = lt.full_verify(key, DESK, bolt, rng)
    assert res.accepted and res.serial == bolt.serial
    # each register that read the serial is psi_serial: the honest bolt itself
    after = fresh_psi_state(key, res.serial)
    for before in bolt.registers:
        assert 1.0 - fidelity(before, after) < 1e-9
    # verification is idempotent on honest bolts
    res2 = lt.full_verify(key, DESK, lt.Bolt(res.serial, bolt.mode, (after,) * 3, 2), rng)
    assert res2.accepted and res2.serial == bolt.serial


def test_full_verify_with_classical_register():
    key = _desk_key()
    rng = np.random.default_rng(6)
    bolt = lt.gen_bolt(key, DESK, rng)
    x = preimage_indices(key, bolt.serial)[0]
    tampered = lt.Bolt(
        bolt.serial,
        bolt.mode,
        (bolt.registers[0], basis_state(12, int(x)), bolt.registers[2]),
        bolt.k,
    )
    p = lt.full_verify_acceptance(key, DESK, tampered)
    # the classical register alone caps acceptance at 1/|fiber| (~2^{n-m})
    fiber = fiber_counts(key)[bolt.serial.bits]
    assert p == pytest.approx(1.0 / fiber, abs=1e-12)
    assert p < 2.0**-9


def test_full_verify_serial_mismatch():
    key = _desk_key()
    rng = np.random.default_rng(7)
    ys = [BitVector(0, 2), BitVector(1, 2)]
    regs = (fresh_psi_state(key, ys[0]), fresh_psi_state(key, ys[1]), fresh_psi_state(key, ys[0]))
    bolt = lt.Bolt(ys[0], lt.MODE_PRODUCT, regs, 2)
    res = lt.full_verify(key, DESK, bolt, rng)
    assert res.outcome == lt.SERIAL_MISMATCH


# -- extraction / circuit strategy ------------------------------------------------


def test_extraction_round_trip_unitary():
    key, params = _micro()
    plan = get_plan(key, params.u)
    rng = np.random.default_rng(8)
    x = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
    x /= np.linalg.norm(x)
    assert np.abs(plan.unextract(plan.extract(x.copy())) - x).max() < 1e-12


def test_extraction_round_targets_are_permutations():
    # unextract gathers with the array extract scatters with: that inverts
    # the round only if the array is a permutation
    for key, u in [(_desk_key(7), DESK.u), (_desk_key(), DESK.u), (_micro()[0], _micro()[1].u)]:
        plan = get_plan(key, u)
        targets = expanded_targets(plan)
        assert len(targets) == u
        for target in targets:
            assert np.array_equal(np.sort(target), np.arange(1 << key.m))


@pytest.mark.parametrize("n, m, u, seed, rounds", [
    (2, 12, 3, 7, 3), (2, 12, 3, 3, 2), (2, 9, 3, 3, 1), (1, 4, 1, 2, 0),
])
def test_extraction_is_each_round_hadamard_then_relabel(n, m, u, seed, rounds):
    # the rounds after plan.rounds keep their indices: the plans here stop relabelling
    # after each of 3, 2, 1 and 0 rounds
    plan = get_plan(keygen(n, m, np.random.default_rng(seed)), u)
    assert plan.rounds == rounds
    x = np.random.default_rng(seed).normal(size=1 << m)
    ref = x
    for t, target in enumerate(expanded_targets(plan)):
        ref, moved = np.empty_like(ref), allocating_wht(ref, t * (n + 1))
        ref[target] = moved
    out = plan.extract(x)
    assert out.dtype == x.dtype and np.array_equal(out, ref)
    assert np.abs(plan.unextract(out) - x).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(hs.integers(0, 2**32 - 1))
def test_extraction_round_trip_desk(seed):
    plan = get_plan(_desk_key(7), DESK.u)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=1 << plan.m) + 1j * rng.normal(size=1 << plan.m)
    x /= np.linalg.norm(x)
    assert np.abs(plan.unextract(plan.extract(x)) - x).max() < 1e-12


def test_extraction_flag_ignores_inconsistent_transcripts():
    # the flag checks only the rank; half the flagged transcripts on the
    # desk key have no solution, and honest registers never reach them
    key = _desk_key(7)
    plan = get_plan(key, DESK.u)
    tmask = (1 << plan.transcript_qubits) - 1
    inconsistent = np.zeros(tmask + 1, dtype=bool)
    for tau in np.flatnonzero(plan.flag_ok):
        cs, ells = transcript_fields(plan, int(tau))
        rhs = BitVector(sum(c << t for t, c in enumerate(cs)), DESK.u)
        inconsistent[tau] = solve_affine(BitMatrix(tuple(ells), key.n), rhs) is None
    assert (int(plan.flag_ok.sum()), int(inconsistent.sum())) == (336, 168)
    on_bad = inconsistent[np.arange(1 << key.m) & tmask]

    def bad_mass(state):
        return float(np.sum(np.abs(plan.extract(state.amps.astype(complex))[on_bad]) ** 2))

    for y in range(1 << key.n):
        assert bad_mass(fresh_psi_state(key, BitVector(y, key.n))) < 1e-12
    masses = [bad_mass(basis_state(key.m, x)) for x in range(0, 1 << key.m, 97)]
    assert max(masses) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n, m, u, seed, dead", [
    (2, 12, 3, 7, [0, 0, 0]),  # the desk key
    (1, 6, 2, 7, [0, 0]),  # _micro()
    (2, 12, 3, 3, [0, 0, 16]),
    (2, 9, 3, 3, [0, 4, 0]),
    (1, 4, 1, 2, [1]),  # the root prefix dies
    (3, 16, 4, 2, [0, 0, 0, 0]),
    (2, 20, 3, 7, [0, 0, 0]),
])
def test_extraction_plan_matches_substitution_reference(n, m, u, seed, dead):
    # the plan reads each round's affine map off the key; the reference substitutes
    # affine maps into the key's quadratic forms, round by round
    key = keygen(n, m, np.random.default_rng(seed))
    plan = get_plan(key, u)
    live, targets = substitution_plan(key, u)
    assert all(l in (set(), set(range(1 << (n * t)))) for t, l in enumerate(live))
    assert plan.rounds == sum(map(bool, live))
    candidates = [1] + [len(l) << n for l in live[:-1]]
    assert [c - len(l) for c, l in zip(candidates, live)] == dead
    expanded = expanded_targets(plan)
    assert len(expanded) == len(targets) == u
    assert all(np.array_equal(a, b) for a, b in zip(expanded, targets))
    flag_ok = np.zeros(1 << plan.transcript_qubits, dtype=bool)
    for tau in range(1 << plan.transcript_qubits):
        ells = [(tau >> (t * (n + 1) + 1)) & ((1 << n) - 1) for t in range(u)]
        if all(sum(e << (n * s) for s, e in enumerate(ells[:t])) in live[t] for t in range(u)):
            flag_ok[tau] = len(eliminate(ells, n)[1]) == n
    assert np.array_equal(plan.flag_ok, flag_ok)


@pytest.mark.parametrize("n, m, u", [
    (2, 12, 3), (1, 6, 2), (2, 9, 3), (1, 4, 2), (1, 6, 3), (2, 12, 4),
])
@pytest.mark.parametrize("seed", range(20))
def test_every_prefix_of_a_round_shares_its_q(n, m, u, seed):
    # the reference eliminates each prefix's own Q; the plan one Q per round. Where
    # m = u(n + 1), most keys have a rank-deficient round, so the plan flags nothing
    key = keygen(n, m, np.random.default_rng(seed))
    plan = get_plan(key, u)
    live, targets = substitution_plan(key, u)
    assert all(l in (set(), set(range(1 << (n * t)))) for t, l in enumerate(live))
    assert plan.rounds == sum(map(bool, live))
    expanded = expanded_targets(plan)
    assert len(expanded) == len(targets) == u
    assert all(np.array_equal(a, b) for a, b in zip(expanded, targets))


def test_extraction_branch_relations_exact():
    # every supported branch of an extracted phi_r satisfies c_t = r . ell_t
    for key, u in [(_micro()[0], _micro()[1].u), (_desk_key(7), DESK.u)]:
        plan = get_plan(key, u)
        for r in range(1 << key.n):
            ext = plan.extract(phi_state(key, r).amps.astype(complex))
            for i in np.flatnonzero(np.abs(ext) > 1e-12):
                cs, ells = transcript_fields(plan, int(i) & ((1 << plan.transcript_qubits) - 1))
                for c, e in zip(cs, ells):
                    assert (e & r).bit_count() % 2 == c


def test_circuit_on_phi_states():
    key, params = _micro()
    for r in range(2):
        st = phi_state(key, r)
        an = circuit_span_analysis(key, params.u, st)
        # for a pure phi_r the zero test conditionally succeeds at the same
        # rate the rank flag does, and the post state is exactly phi_r
        assert an.zero_probability == pytest.approx(an.rank_ok_probability, abs=1e-9)
        accept = an.rank_ok_probability * an.zero_probability
        assert accept == pytest.approx(an.rank_ok_probability**2, abs=1e-9)
        assert 1.0 - fidelity(psi_combination(key, an.psi_amps), st) < 1e-9


def test_circuit_post_state_preserves_in_span_inputs():
    key, params = _micro()
    rng = np.random.default_rng(9)
    for _ in range(10):
        state = _in_span_state(key, rng.normal(size=2) + 1j * rng.normal(size=2))
        an = circuit_span_analysis(key, params.u, state)
        assert 1.0 - fidelity(psi_combination(key, an.psi_amps), state) < 1e-9


def test_circuit_rank_deficiency_rate_desk():
    # with u=3 rounds and n=2 unknowns, three uniform coefficient rows are
    # rank deficient with probability 22/64; honest registers pay that twice
    key = _desk_key()
    bolt = lt.gen_bolt(key, DESK, np.random.default_rng(10))
    an = circuit_span_analysis(key, DESK.u, bolt.registers[0])
    assert 0.5 <= an.rank_ok_probability <= 0.70
    assert an.rank_ok_probability * an.zero_probability < 0.5  # far below the ideal projector's 1.0


def test_circuit_acceptance_matches_independent_recomposition():
    # accept(psi) = sum_r |<phi_r| Pi_r psi>|^2 where Pi_r keeps the extracted
    # branches whose transcript solves to r; rebuild that directly from the
    # plan's primitives and compare with the production pipeline
    key, params = _micro()
    plan = get_plan(key, params.u)
    tau = np.arange(1 << key.m) & ((1 << plan.transcript_qubits) - 1)
    flags, sols = plan.flag_ok[tau], solved_transcripts(plan)[tau]
    rng = np.random.default_rng(26)
    for _ in range(12):
        amps = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
        state = from_amplitudes(key.m, amps, normalize=True)
        ext = plan.extract(state.amps.astype(complex))
        total = 0.0
        for r in range(2):
            masked = np.where(flags & (sols == r), ext, 0.0)
            branch = plan.unextract(masked)
            total += abs(np.vdot(phi_state(key, r).amps, branch)) ** 2
        an = circuit_span_analysis(key, params.u, state)
        assert an.rank_ok_probability * an.zero_probability == pytest.approx(total, abs=1e-12)


def _circuit_battery():
    """(key, u, states): basis, random complex, honest psi_y and phi_r states
    on two desk keys and micro keys with m = 4 and m = 6."""
    rng = np.random.default_rng(31)
    cases = [(_desk_key(7), DESK.u, 97), (_desk_key(), DESK.u, 97)]
    cases += [(_micro(m=m)[0], _micro(m=m)[1].u, 1) for m in (4, 6)]
    for key, u, stride in cases:
        states = [basis_state(key.m, x) for x in range(0, 1 << key.m, stride)]
        for _ in range(8):
            amps = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
            states.append(from_amplitudes(key.m, amps, normalize=True))
        states += [fresh_psi_state(key, BitVector(int(y), key.n))
                   for y in np.flatnonzero(fiber_counts(key))]
        states += [phi_state(key, r) for r in range(1 << key.n)]
        yield key, u, states


def test_circuit_analysis_matches_uncompute_reference():
    for key, u, states in _circuit_battery():
        for state in states:
            an = circuit_span_analysis(key, u, state)
            accept, rank_ok, zero, post = circuit_reference(key, u, state)
            assert abs(an.rank_ok_probability * an.zero_probability - accept) < 1e-12
            assert abs(an.rank_ok_probability - rank_ok) < 1e-12
            assert abs(an.zero_probability - zero) < 1e-12
            assert (an.psi_amps is None) == (post is None)
            if post is not None:  # the post-state is constant on each fiber
                assert np.abs(psi_combination(key, an.psi_amps).amps - post.amps).max() < 1e-12


def _plan_set():
    """(key, u) of the 168 plans of nine shapes, seeds 0-24 where m <= 12 and 0-5 above; they
    include plans with 0, 1, 2 and 3 rounds short of u."""
    for n, m, u in [(2, 12, 3), (1, 6, 2), (1, 8, 3), (2, 9, 3), (2, 14, 4), (1, 10, 4),
                    (1, 4, 1), (3, 16, 4), (2, 16, 3)]:
        for seed in range(25 if m <= 12 else 6):
            yield keygen(n, m, np.random.default_rng(seed)), u


def test_circuit_analysis_matches_phase_images_on_the_plan_set():
    # the analysis reads the zero test off one unextracted vector's fiber sums; the reference
    # takes inner products with each extracted phi_r masked to the transcripts that solve to r
    rng = np.random.default_rng(38)
    plans = 0
    for key, u in _plan_set():
        plans += 1
        images = phase_images(key, u)
        states = [fresh_psi_state(key, BitVector(int(y), key.n))
                  for y in np.flatnonzero(fiber_counts(key))]
        states += [basis_state(key.m, int(x)) for x in rng.integers(0, 1 << key.m, 2)]
        amps = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
        states.append(from_amplitudes(key.m, amps, normalize=True))
        for state in states:
            an = circuit_span_analysis(key, u, state)
            rank_ok, zero, psi_amps = images_analysis(key, u, images, state)
            assert an.rank_ok_probability == rank_ok
            assert abs(an.zero_probability - zero) < 1e-12
            assert (an.psi_amps is None) == (psi_amps is None)
            if psi_amps is not None:
                assert np.abs(an.psi_amps - psi_amps).max() < 1e-12
    assert plans == 168


def test_circuit_honest_law():
    # on a plan that relabels all u rounds, with L = prod_{i<n} (1 - 2^(i-u)) the share of
    # full-rank n x u matrices over F_2, an honest psi_y passes the rank flag with probability
    # L 2^(m-n) / |F_y| and then the zero test with probability L
    shapes = [((2, 12, 3), 6), ((2, 16, 3), 4), ((2, 18, 4), 3), ((3, 16, 3), 4),
              ((1, 10, 4), 8)]
    keys = [(keygen(2, 20, np.random.default_rng(7)), 3)]
    for (n, m, u), count in shapes:
        found = [key for key in (keygen(n, m, np.random.default_rng(s)) for s in range(40))
                 if get_plan(key, u).rounds == u][:count]
        assert len(found) == count
        keys += [(key, u) for key in found]
    registers = 0
    for key, u in keys:
        assert get_plan(key, u).rounds == u
        law = math.prod(1 - Fraction(1 << i, 1 << u) for i in range(key.n))
        counts = fiber_counts(key)
        for y in np.flatnonzero(counts):
            an = circuit_span_analysis(key, u, lt.Fiber(key, BitVector(int(y), key.n)))
            rank_ok = law * Fraction(1 << (key.m - key.n), int(counts[y]))
            assert abs(Fraction(an.rank_ok_probability) - rank_ok) < Fraction(1, 10**12)
            assert abs(Fraction(an.zero_probability) - law) < Fraction(1, 10**12)
            registers += 1
    assert registers >= 100


def test_circuit_analysis_peaks_at_two_buffers_and_an_index():
    # an extraction copies the register once and scatters each round's Hadamard output back
    # into that copy, so the analysis holds about 4x the register's float64 bytes above it
    # (8.0x while every register was cast to complex128); each plan relabels all u rounds
    rng = np.random.default_rng(39)
    for (n, m, u), seed in [((2, 16, 3), 0), ((2, 16, 3), 1), ((3, 16, 4), 2), ((1, 16, 4), 0)]:
        key = keygen(n, m, np.random.default_rng(seed))
        assert get_plan(key, u).rounds == u
        digest_table(key)
        amps = rng.normal(size=1 << m)
        for state in (fresh_psi_state(key, BitVector(int(np.flatnonzero(fiber_counts(key))[0]), n)),
                      StateVector(m, amps / np.linalg.norm(amps))):
            tracemalloc.start()
            try:
                an = circuit_span_analysis(key, u, state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert an.rank_ok_probability > 0
            assert peak <= 4.5 * (8 << m), (n, m, u, seed, peak / (8 << m))


def test_circuit_analysis_of_a_global_phase_is_the_real_analysis():
    # e^(i theta) times a real register is complex, so it takes the complex branch of the
    # dtype rule; its probabilities are the real register's and its post-state is e^(i theta)
    # times the real one's
    rng = np.random.default_rng(40)
    keys = [key for key in (_desk_key(s) for s in range(12)) if get_plan(key, DESK.u).rounds == 3]
    assert len(keys) >= 6
    worst = 0.0
    for key in keys:
        states = [fresh_psi_state(key, BitVector(int(y), key.n))
                  for y in np.flatnonzero(fiber_counts(key))]
        for _ in range(3):
            amps = rng.normal(size=1 << key.m)
            states.append(StateVector(key.m, amps / np.linalg.norm(amps)))
        for state in states:
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            real = circuit_span_analysis(key, DESK.u, state)
            turned = circuit_span_analysis(key, DESK.u, StateVector(key.m, phase * state.amps))
            assert state.amps.dtype == np.float64 and real.psi_amps.dtype == np.float64
            assert turned.psi_amps.dtype == np.complex128
            worst = max(worst, abs(turned.rank_ok_probability - real.rank_ok_probability),
                        abs(turned.zero_probability - real.zero_probability),
                        np.abs(turned.psi_amps - phase * real.psi_amps).max())
    assert worst < 1e-12, worst


def test_measured_variant_zero_test_matches_uncompute():
    # the literal variant reads p_zero as |<Pi_r U phi_r|collapsed>|^2; on
    # an extracted register collapsed onto one flagged transcript that equals
    # the all-zeros probability of the uncomputed branch
    key, params = _micro(m=6)
    plan = get_plan(key, params.u)
    tau_of = np.arange(1 << key.m) & ((1 << plan.transcript_qubits) - 1)
    rng = np.random.default_rng(32)
    amps = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
    psi = plan.extract(amps / np.linalg.norm(amps))
    tab = digest_table(key)
    solved, images = solved_transcripts(plan), phase_images(key, params.u)
    for tau in np.flatnonzero(plan.flag_ok):
        collapsed = np.where(tau_of == tau, psi, 0.0)
        if np.linalg.norm(collapsed) < 1e-9:
            continue
        collapsed /= np.linalg.norm(collapsed)
        r = int(solved[tau])
        signs = 1.0 - 2.0 * (np.bitwise_count(tab & np.uint32(r)) & 1)
        ref = abs(allocating_wht(plan.unextract(collapsed) * signs, *range(key.m))[0]) ** 2
        assert abs(abs(images[r] @ collapsed) ** 2 - ref) < 1e-12


def test_circuit_sampled_reject_kinds():
    # a pure phase state carries rank-deficient transcript mass 1 - p_rank;
    # an honest psi_y can interfere that mass away, so test on phi_r itself
    key, params = _micro()
    rng = np.random.default_rng(11)
    state = phi_state(key, 1)
    an = circuit_span_analysis(key, params.u, state)
    assert an.rank_ok_probability < 0.999
    kinds = set()
    accepted = 0
    for _ in range(200):
        res = lt.mini_verify(key, params, state, rng, strategy=lt.CIRCUIT)
        if res.accepted:
            accepted += 1
        else:
            kinds.add(res.reject_kind)
    assert lt.RANK_DEFICIENT in kinds
    assert abs(accepted / 200 - an.rank_ok_probability * an.zero_probability) < 0.12


def test_measured_variant_perturbs_and_underaccepts():
    key, params = _micro()
    rng = np.random.default_rng(12)
    st = phi_state(key, 1)
    an = circuit_span_analysis(key, params.u, st)
    coherent = an.rank_ok_probability * an.zero_probability
    accepts = 0
    trials = 300
    for _ in range(trials):
        ok, solved_r, _ = measured_variant_run(key, params.u, st, rng)
        if ok:
            accepts += 1
            assert solved_r is not None
    measured_rate = accepts / trials
    assert measured_rate < coherent - 0.1  # literal measurements destroy the state


def test_verify_checks_register_sizes():
    key = _desk_key()
    rng = np.random.default_rng(29)
    bolt = lt.gen_bolt(key, DESK, rng)
    wide = tuple(tensor(r, basis_state(1, 0)) for r in bolt.registers)
    with pytest.raises(PreconditionError):
        lt.full_verify(key, DESK, replace(bolt, registers=wide), rng)
    with pytest.raises(PreconditionError):
        lt.mini_verify(key, DESK, basis_state(key.m - 1, 0), rng)
    assert lt.mini_verify(key, DESK, wide[0], rng).serial == bolt.serial  # the top block


def test_circuit_joint_bolts_unsupported():
    key, params = _micro(m=4)
    rng = np.random.default_rng(13)
    bolt = lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT)
    with pytest.raises(PreconditionError):
        lt.full_verify(key, params, bolt, rng, strategy=lt.CIRCUIT)


# -- joint-micro generation -------------------------------------------------------


def test_joint_micro_generation_and_fidelity():
    key, params = _micro(m=4)
    rng = np.random.default_rng(14)
    survey = joint_delta_survey(key, params)
    delta = survey["nongeneric_mass"]
    for _ in range(4):
        bolt = lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT)
        ideal = ideal_product_state(key, bolt.serial, params.k + 1)
        assert fidelity(bolt.registers[0], ideal) >= 1.0 - delta


@pytest.mark.parametrize("n, m, k", [(1, 4, 1), (1, 4, 2), (1, 5, 1), (1, 5, 2), (1, 6, 1),
                                     (2, 6, 1)])
def test_joint_closed_form_is_the_dense_four_step_generation(n, m, k):
    params = lt.LightningParams(n=n, m=m, k=k, u=n)
    for key_seed in range(3):
        key = keygen(n, m, np.random.default_rng(key_seed))
        for seed in range(4):
            fast_rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = lt.gen_bolt(key, params, fast_rng, mode=lt.MODE_JOINT)
            dense = dense_joint_bolt(key, params, dense_rng)
            assert fast.serial == dense.serial
            assert fast_rng.bit_generator.state == dense_rng.bit_generator.state
            assert np.abs(fast.registers[0].amps - dense.registers[0].amps).max() <= 1e-12


def test_joint_micro_verifies():
    key, params = _micro(m=4)
    rng = np.random.default_rng(15)
    bolt = lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT)
    res = lt.full_verify(key, params, bolt, rng)
    assert res.accepted
    assert res.serial == bolt.serial


def test_dense_fiber_sums_are_the_sorted_gather_sums_byte_for_byte():
    # 60 keys (n <= 4, m <= 16), real and complex, with 0 and 3 qubits below the block: the
    # analysis gathers each fiber by a mask of the table, the reference sorts every input by
    # digest and cuts the sorted register at the fibers' starts; prob and below[digests] are
    # the analysis's arithmetic on the sums, so equal bytes there are equal sums
    rng = np.random.default_rng(41)
    for i in range(60):
        n = 1 + i % 4
        key = keygen(n, int(rng.integers(n + 1, 17)), rng)
        width = (1, 8)[i // 4 % 2]
        rows = rng.normal(size=(1 << key.m, width))
        if i // 8 % 2:
            rows = rows + 1j * rng.normal(size=rows.shape)
        rows /= np.linalg.norm(rows)
        sums = gathered_fiber_sums(key, rows)
        sizes, digests = lt.span_states(key)
        prob = float(np.sum(np.abs(sums) ** 2 / sizes[:, None]))
        below = np.zeros((1 << n, width), sums.dtype)
        below[digests] = sums / np.sqrt(sizes * prob)[:, None]
        a = lt.register_analysis(key, DESK, StateVector(key.m + width.bit_length() - 1, rows.reshape(-1)))
        assert a.stages == ((min(prob, 1.0), lt.SPAN_REJECT),), (n, key.m, i)
        assert a.below.dtype == below.dtype and a.below.tobytes() == below.tobytes(), (n, key.m, i)


def test_verifying_a_joint_bolt_copies_no_whole_register():
    # the fiber sums gathered the whole 2 MiB register before they were summed a block at a time
    key, params = _micro(m=6)
    params = replace(params, k=2)
    rng = np.random.default_rng(1)
    bolt = lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT)
    register = bolt.registers[0]
    lt.span_states(key)  # kept for the key, as by an earlier verification
    tracemalloc.start()
    try:
        res = lt.full_verify(key, params, bolt, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.accepted
    assert peak < register.amps.nbytes, (peak, register.amps.nbytes)


def test_joint_micro_serial_distribution_matches_fibers():
    key, params = _micro(m=4)
    serials = set()
    for seed in range(12):
        bolt = lt.gen_bolt(key, params, np.random.default_rng(seed), mode=lt.MODE_JOINT)
        serials.add(bolt.serial.bits)
    counts = fiber_counts(key)
    for s in serials:
        assert counts[s] > 0


# -- collapsing experiment --------------------------------------------------------


def test_collapsing_exact_advantage():
    key = _desk_key()
    doc = lt.collapsing_advantage_exact(key)
    assert doc["p_accept_b0"] == 1.0
    assert doc["p_accept_b1"] == pytest.approx(2.0**-10, abs=1e-15)
    assert doc["advantage"] >= 0.999


def test_collapsing_sampled_runs():
    key = _desk_key()
    rng = np.random.default_rng(16)
    ones_b0 = sum(lt.collapsing_experiment(key, DESK, 0, rng) for _ in range(50))
    ones_b1 = sum(lt.collapsing_experiment(key, DESK, 1, rng) for _ in range(50))
    assert ones_b0 == 50
    assert ones_b1 <= 2


# -- games -------------------------------------------------------------------------


def test_uniqueness_game_classical_storm():
    key = _desk_key()
    stats = lt.uniqueness_game(
        key, DESK, lt.classical_state_storm, 300, np.random.default_rng(17)
    )
    assert stats["trials"] == 300
    assert stats["accepts"] == 0  # acceptance probability ~ 2^-60


def test_uniqueness_game_cheat_duplicate_storm():
    key = _desk_key()
    stats = lt.uniqueness_game(
        key, DESK, lt.cheat_duplicate_storm, 40, np.random.default_rng(18)
    )
    assert stats["accepts"] == 40
    assert stats["empirical_rates"]["witness_given_accept"] >= 0.95


def test_uniqueness_game_rejects_joint_bolts():
    # a joint bolt's registers are entangled; measuring each block from the
    # unmeasured joint state would sample the product of the marginals
    key, params = _micro(m=4)

    def joint_storm(key, params, rng):
        bolt = lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT)
        return bolt, bolt

    with pytest.raises(PreconditionError):
        lt.uniqueness_game(key, params, joint_storm, 3, np.random.default_rng(28))


def test_uniqueness_game_affine_attack_storm():
    key = keygen(1, 8, np.random.default_rng(19))
    params = lt.LightningParams(n=1, m=8, k=2, u=2)
    stats = lt.uniqueness_game(
        key, params, lt.affine_attack_storm, 20, np.random.default_rng(20)
    )
    assert stats["empirical_rates"]["accept"] >= 0.5


BAND_SEEDS = range(1, 6)


def _band_keys():
    """The desk key and a micro key, with the key seed the CLI's --key-seed 7 gives."""
    return [(keygen(2, 12, np.random.default_rng(7)), DESK),
            (keygen(1, 4, np.random.default_rng(7)), micro())]


@pytest.mark.parametrize("storm, strategy, trials", [
    ("classical", lt.ORACLE, 300), ("cheat-duplicate", lt.ORACLE, 300),
    ("affine-attack", lt.ORACLE, 300), ("cheat-duplicate", lt.CIRCUIT, 100)])
def test_game_accepts_lie_in_the_band_of_the_closed_form(storm, strategy, trials):
    for key, params in _band_keys():
        lo, hi = binomial_band(trials, game_accept_rate(key, params, storm, strategy))
        for seed in BAND_SEEDS:
            rep = lt.uniqueness_game(key, params, lt.BUILTIN_STORMS[storm], trials,
                                     np.random.default_rng(seed), strategy)
            assert lo <= rep["accepts"] <= hi, (key.m, seed, rep["accepts"], lo, hi)


def test_circuit_duplicate_rate_on_the_band_keys():
    (desk, desk_params), (small, small_params) = _band_keys()
    assert game_accept_rate(desk, desk_params, "cheat-duplicate", lt.CIRCUIT) == pytest.approx(
        0.006511886, abs=1e-9)
    assert game_accept_rate(small, small_params, "cheat-duplicate", lt.CIRCUIT) == 0.0


def test_honest_serial_counts_lie_in_the_band_of_the_fiber_masses():
    for key, params in _band_keys():
        mass = serial_masses(key)
        for seed in BAND_SEEDS:
            rep = lt.minentropy_probe(key, params, lt.gen_bolt, 300, np.random.default_rng(seed))
            assert rep["accepted"] == 300
            assert {int(y, 16) for y in rep["serial_counts"]} <= set(np.flatnonzero(mass).tolist())
            for y in np.flatnonzero(mass):
                lo, hi = binomial_band(300, mass[y])
                count = rep["serial_counts"].get(BitVector(int(y), key.n).to_hex(), 0)
                assert lo <= count <= hi, (key.m, seed, y, count, lo, hi)


@pytest.mark.parametrize("producer", ["constant", "classical"])
def test_minentropy_producer_counts_lie_in_the_band_of_the_closed_form(producer):
    produce = {"constant": lt.constant_serial_producer, "classical": lt.classical_point_producer}
    for key, params in _band_keys():
        rates = minentropy_serial_rates(key, params, producer)
        lo, hi = binomial_band(300, rates.sum())
        for seed in BAND_SEEDS:
            rep = lt.minentropy_probe(key, params, produce[producer], 300,
                                      np.random.default_rng(seed))
            assert lo <= rep["accepted"] <= hi, (key.m, seed, rep["accepted"], lo, hi)
            assert {int(y, 16) for y in rep["serial_counts"]} <= set(np.flatnonzero(rates).tolist())
            for y in np.flatnonzero(rates):
                lo_y, hi_y = binomial_band(300, rates[y])
                count = rep["serial_counts"].get(BitVector(int(y), key.n).to_hex(), 0)
                assert lo_y <= count <= hi_y, (key.m, seed, y, count, lo_y, hi_y)


def test_collapse_counts_lie_in_the_band_of_the_nonempty_fibers(capsys):
    for (key, _), flags in zip(_band_keys(), (["--n", "2", "--m", "12"],
                                              ["--n", "1", "--m", "4", "--k", "1", "--u", "2"])):
        lo, hi = binomial_band(300, np.count_nonzero(serial_masses(key)) / 2.0**key.m)
        for seed in BAND_SEEDS:
            assert main(["lightning", "collapse", *flags, "--key-seed", "7", "--trials", "300",
                         "--seed", str(seed)]) == 0
            runs = json.loads(capsys.readouterr().out)["sampled"]
            assert runs["b0_ones"] == 300
            assert lo <= runs["b1_ones"] <= hi, (key.m, seed, runs["b1_ones"], lo, hi)


def test_minentropy_probe_honest():
    key = _desk_key()
    rep = lt.minentropy_probe(
        key, DESK, lt.gen_bolt, 1500, np.random.default_rng(21)
    )
    assert rep["accepted"] == 1500
    exact = lt.exact_digest_minentropy(key)
    assert rep["exact_digest_minentropy"] == exact
    assert abs(rep["estimate_bits"] - exact) < 0.7


def test_minentropy_probe_constant_serial():
    key = _desk_key()
    rep = lt.minentropy_probe(
        key, DESK, lt.constant_serial_producer, 60, np.random.default_rng(22)
    )
    assert rep["estimate_bits"] == 0.0


def test_minentropy_probe_rejecting_storm():
    key = _desk_key()
    rep = lt.minentropy_probe(
        key, DESK, lt.classical_point_producer, 60, np.random.default_rng(23)
    )
    assert rep["accepted"] == 0
    assert rep["estimate_bits"] is None


def test_phase_state_overlaps_are_fiber_fourier_coefficients():
    # <phi_r|phi_s> = sum_z p_z (-1)^{(r^s).z}: the phase family is orthogonal
    # exactly when the digest distribution is uniform, which random keys
    # generally are not
    key = _desk_key()
    p = fiber_counts(key) / 2**12
    for r in range(4):
        for s in range(4):
            want = sum(
                p[z] * (-1) ** bin((r ^ s) & z).count("1") for z in range(4)
            )
            got = np.vdot(phi_state(key, r).amps, phi_state(key, s).amps)
            assert abs(got - want) < 1e-12


def test_serial_distribution_matches_fiber_masses():
    # generation hashes a uniform input, so serial y appears with the exact
    # probability |fiber(y)| / 2^m
    key = _desk_key()
    rng = np.random.default_rng(25)
    counts = np.zeros(4)
    trials = 2000
    for _ in range(trials):
        counts[lt.gen_bolt(key, DESK, rng).serial.bits] += 1
    expected = fiber_counts(key) / 2**12
    for y in range(4):
        sigma = np.sqrt(trials * expected[y] * (1 - expected[y]))
        assert abs(counts[y] - trials * expected[y]) < 4 * sigma


def test_bolt_json_round_trip():
    key = _desk_key()
    rng = np.random.default_rng(24)
    bolt = lt.gen_bolt(key, DESK, rng)
    doc = lt.bolt_to_json(bolt)
    back = lt.bolt_from_json(doc)
    assert back.serial == bolt.serial
    assert back.mode == bolt.mode
    for a, b in zip(bolt.registers, back.registers):
        assert 1.0 - fidelity(a, b) < 1e-9


@pytest.mark.parametrize("n, m, seed", [(2, 12, 7), (2, 12, 11), (1, 4, 3), (1, 6, 7), (2, 8, 2),
                                        (3, 12, 5), (4, 12, 6), (4, 20, 7)])
def test_span_states_are_the_nonempty_fibers_whose_masks_gather_in_stable_order(n, m, seed):
    key = keygen(n, m, np.random.default_rng(seed))
    table, counts = digest_table(key), fiber_counts(key)
    sizes, digests = lt.span_states(key)
    assert np.array_equal(sizes, counts[counts > 0]) and np.array_equal(digests, np.flatnonzero(counts))
    gathered = np.concatenate([np.flatnonzero(table == d) for d in digests])
    assert np.array_equal(gathered, np.argsort(table, kind="stable"))


def test_an_m18_oracle_analysis_holds_the_register_and_a_byte_per_input():
    # the table is built and kept for the key, as by an earlier command; a dense register's
    # analysis adds one fiber's mask and rows (the permutation and its gather added 8 bytes per
    # input), a description's its fiber's size and one broadcast amplitude
    key = keygen(2, 18, np.random.default_rng(3))
    digest_table(key)
    amps = np.random.default_rng(4).normal(size=1 << 18)
    dense = StateVector(18, amps / np.linalg.norm(amps))  # real, as a bolt file's register loads
    fiber = lt.Fiber(key, BitVector(int(np.argmax(fiber_counts(key))), 2))
    for register, limit in ((dense, 4 << 18), (fiber, 256 << 10)):
        tracemalloc.start()
        try:
            a = lt.register_analysis(key, DESK, register)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.below is not None
        assert peak < limit, (type(register).__name__, peak)
