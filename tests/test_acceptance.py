"""Acceptance suite: one test per criterion, tolerances pinned, one printed line each.

The suite runs at desk scale with the fixed seed 7 throughout.  Four
criteria assert properties that do not hold at these parameter sizes (the
coherent-extraction acceptance rate, exact orthogonality of the phase
family, oracle/circuit probability agreement, and the asymptotic subspace
ceilings at n=4); they are implemented exactly as stated and fail honestly,
with the measured values in the failure message.  README.md and the module
docstrings discuss the arithmetic behind each gap.
"""
import time

import numpy as np
import pytest

from boltlab import lightning as lt, money, qsim
from boltlab.attacks import find_affine_collision_space, find_collision, find_nonaffine_multicollision
from boltlab.bounds import cloning_bound, power_iteration, subspace_example_exact
from boltlab.cli import main as cli_main
from boltlab.errors import AttackFailure, PreconditionError
from boltlab.gf2 import BitVector, enumerate_affine
from boltlab.mqhash import eval_digest, fiber_counts, keygen
from boltlab.qsim import StateVector
from oracles import (
    DESK,
    apply_bijection,
    basis_state,
    circuit_reference,
    dual_space,
    fidelity,
    fresh_psi_state,
    from_amplitudes,
    hadamard_all,
    ideal_product_state,
    joint_delta_survey,
    measure_function,
    micro,
    note_state,
    phi_state,
    project_onto_span,
    register_values,
    span_projection,
    subspace_family_states,
    subspace_state,
    two_tests,
)

SEED = 7


def _key():
    return keygen(2, 12, np.random.default_rng(SEED))


def _line(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _budget(num: int, t0: float, limit: float):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s over budget {limit}s"


def test_criterion_01_honest_bolt_correctness():
    t0 = time.monotonic()
    key = _key()
    rng = np.random.default_rng(100)
    oracle_ok = 0
    circuit_ok = 0
    circuit_serial_ok = True
    fid_min = 1.0
    for _ in range(50):
        bolt = lt.gen_bolt(key, DESK, rng)
        res = lt.full_verify(key, DESK, bolt, rng, strategy=lt.ORACLE)
        if res.accepted and res.serial == bolt.serial:
            oracle_ok += 1
            for before in bolt.registers:  # each register that read the serial is psi_serial
                fid_min = min(fid_min, fidelity(before, fresh_psi_state(key, res.serial)))
        res_c = lt.full_verify(key, DESK, bolt, rng, strategy=lt.CIRCUIT)
        if res_c.accepted:
            circuit_ok += 1
            circuit_serial_ok &= res_c.serial == bolt.serial
    ok = (
        oracle_ok == 50
        and fid_min >= 1 - 1e-9
        and circuit_serial_ok
        and circuit_ok >= 0.95 * 50
    )
    _line(
        1,
        ok,
        f"oracle {oracle_ok}/50, min post fidelity {fid_min:.2e} defect "
        f"{1 - fid_min:.2e}, circuit {circuit_ok}/50 (need >= 48)",
    )
    _budget(1, t0, 60)
    assert oracle_ok == 50
    assert fid_min >= 1 - 1e-9
    assert circuit_serial_ok
    assert circuit_ok >= 0.95 * 50, (
        f"circuit strategy accepted {circuit_ok}/50; the u=3 extraction's "
        f"transcript is rank-deficient with probability 22/64 per register, "
        f"capping honest acceptance near (0.66^2)^3 ~ 0.08"
    )


def test_criterion_02_span_equivalence():
    t0 = time.monotonic()
    key = _key()
    phis = [phi_state(key, r) for r in range(4)]
    worst_defect = 0.0
    for z in range(4):
        psi = fresh_psi_state(key, BitVector(z, 2))
        p, _ = project_onto_span(psi, phis)
        worst_defect = max(worst_defect, 1.0 - p)
    gram = np.array([[np.vdot(a.amps, b.amps) for b in phis] for a in phis])
    max_offdiag = float(np.abs(gram - np.diag(np.diag(gram))).max())
    ok = worst_defect < 1e-10 and max_offdiag < 1e-10
    _line(
        2,
        ok,
        f"span defect {worst_defect:.2e} (< 1e-10), max |<phi_r|phi_s>| "
        f"{max_offdiag:.2e} (need < 1e-10), fibers {fiber_counts(key).tolist()}",
    )
    _budget(2, t0, 10)
    assert worst_defect < 1e-10
    assert max_offdiag < 1e-10, (
        f"phase states are orthogonal only when every digest fiber has size "
        f"exactly 2^(m-n); this key's fibers are {fiber_counts(key).tolist()} "
        f"and the overlap is the Gauss sum 2^-m * sum_x (-1)^(t.f(x))"
    )


def test_criterion_03_joint_micro_matches_idealization():
    t0 = time.monotonic()
    params = micro(4)
    key = keygen(1, 4, np.random.default_rng(SEED))
    survey = joint_delta_survey(key, params)
    delta = survey["nongeneric_mass"]
    rng = np.random.default_rng(200)
    fids = []
    for _ in range(5):
        bolt = lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT)
        ideal = ideal_product_state(key, bolt.serial, params.k + 1)
        fids.append(fidelity(bolt.registers[0], ideal))
    ok = all(f >= 1.0 - delta for f in fids)
    _line(3, ok, f"fidelities {[f'{f:.4f}' for f in fids]}, computed delta {delta:.4f}")
    _budget(3, t0, 30)
    assert ok


def test_criterion_04_oracle_circuit_equivalence():
    t0 = time.monotonic()
    gaps = []
    post_gaps = []
    count = 0
    for m in (4, 5, 6):
        params = micro(m)
        key = keygen(1, m, np.random.default_rng(SEED + m))
        rng = np.random.default_rng(300 + m)
        battery = []
        for _ in range(25):
            battery.append(lt.gen_bolt(key, params, rng).registers[0])
        for _ in range(20):
            battery.append(basis_state(m, int(rng.integers(1 << m))))
        for _ in range(15):
            amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
            battery.append(from_amplitudes(m, amps, normalize=True))
        for _ in range(10):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps = c[0] * phi_state(key, 0).amps + c[1] * phi_state(key, 1).amps
            battery.append(from_amplitudes(m, amps, normalize=True))
        count += len(battery)
        for state in battery:
            p_o = lt.mini_verify_acceptance(key, params, state, lt.ORACLE)
            p_c = lt.mini_verify_acceptance(key, params, state, lt.CIRCUIT)
            gaps.append(abs(p_o - p_c))
            if p_o > 1 - 1e-9:  # in-span input: compare accepted post-states
                _, post_o = span_projection(key, state)
                post_c = circuit_reference(key, params.u, state)[3]
                if post_c is not None:
                    post_gaps.append(1.0 - fidelity(post_o, post_c))
    max_gap = max(gaps)
    max_post_gap = max(post_gaps)
    ok = count >= 200 and max_gap < 1e-6
    _line(
        4,
        ok,
        f"{count} states, max acceptance gap {max_gap:.3e} (need < 1e-6), "
        f"max in-span post-state defect {max_post_gap:.3e}",
    )
    _budget(4, t0, 120)
    assert count >= 200
    assert max_post_gap < 1e-6
    assert max_gap < 1e-6, (
        f"max oracle/circuit acceptance gap {max_gap:.3e}: the circuit "
        f"measurement equals the span projector restricted to full-rank "
        f"transcripts, and the deficient mass is ~2^-u per phase state at n=1"
    )


def test_criterion_05_collapsing_distinguisher():
    t0 = time.monotonic()
    key = _key()
    doc = lt.collapsing_advantage_exact(key)
    expected = 1.0 - 2.0 ** (2 - 12)
    ok = doc["advantage"] == pytest.approx(expected, abs=1e-15) and doc["advantage"] >= 0.999
    _line(5, ok, f"exact advantage {doc['advantage']:.10f} = 1 - 2^-10, >= 0.999")
    _budget(5, t0, 10)
    assert doc["p_accept_b0"] == 1.0
    assert doc["p_accept_b1"] == pytest.approx(2.0**-10, abs=1e-15)
    assert doc["advantage"] >= 0.999


def test_criterion_06_attack_suite():
    t0 = time.monotonic()
    key = _key()
    rng = np.random.default_rng(400)
    for _ in range(100):
        x, xp, _, _, _ = find_collision(key, rng)
        assert eval_digest(key, x) == eval_digest(key, xp) and x != xp

    success = 0
    for i in range(200):
        k2 = keygen(2, 12, np.random.default_rng(1000 + i))  # m = kn + 8 at k = 2
        try:
            find_nonaffine_multicollision(k2, 2, rng, max_tries=8)
            success += 1
        except AttackFailure:
            pass

    failures = 0
    for i in range(200):
        k3 = keygen(2, 4, np.random.default_rng(2000 + i))  # m=4 < (k+1/2)n = 5
        try:
            find_nonaffine_multicollision(k3, 5, rng, max_tries=4)
        except (AttackFailure, PreconditionError):
            failures += 1

    space, digest, _, _ = find_affine_collision_space(key, 3, rng)
    pts = enumerate_affine(space)
    exhaustive = len(pts) == 8 and all(eval_digest(key, p) == digest for p in pts)

    ok = success >= 190 and failures >= 198 and exhaustive
    _line(
        6,
        ok,
        f"collisions 100/100, non-affine {success}/200 (need >= 190), "
        f"boundary failures {failures}/200 (need >= 198), affine r=3 exhaustive {exhaustive}",
    )
    _budget(6, t0, 60)
    assert success >= 0.95 * 200
    assert failures >= 0.99 * 200
    assert exhaustive


def test_criterion_07_uniqueness_game_boundary():
    t0 = time.monotonic()
    key = _key()
    stats = lt.uniqueness_game(
        key, DESK, lt.classical_state_storm, 2000, np.random.default_rng(500)
    )
    bound = 2.0 ** (2 * (DESK.k + 1) * (DESK.n - DESK.m))
    sigma = np.sqrt(bound * (1 - bound) / 2000)
    classical_ok = stats["empirical_rates"]["accept"] <= bound + 3 * sigma

    cheat = lt.uniqueness_game(
        key, DESK, lt.cheat_duplicate_storm, 200, np.random.default_rng(501)
    )
    cheat_ok = cheat["accepts"] > 0 and cheat["empirical_rates"]["witness_given_accept"] >= 0.95

    bkey = keygen(1, 8, np.random.default_rng(SEED))
    bparams = lt.LightningParams(n=1, m=8, k=2, u=2)
    aff = lt.uniqueness_game(
        bkey, bparams, lt.affine_attack_storm, 50, np.random.default_rng(502)
    )
    affine_ok = aff["empirical_rates"]["accept"] >= 0.5

    ok = classical_ok and cheat_ok and affine_ok
    _line(
        7,
        ok,
        f"classical accept rate {stats['empirical_rates']['accept']:.2e} "
        f"<= {bound + 3 * sigma:.2e}, "
        f"cheat witness rate {cheat['empirical_rates']['witness_given_accept']:.3f} (>= 0.95), "
        f"affine accept rate {aff['empirical_rates']['accept']:.2f} (>= 0.5)",
    )
    _budget(7, t0, 180)
    assert classical_ok and cheat_ok and affine_ok


def test_criterion_08_money_correctness_and_projectivity():
    t0 = time.monotonic()
    rng = np.random.default_rng(600)
    # "probability 1" is computed exactly (no sampling); the value carries a
    # few ulps of float roundoff because 2^{-k/2} amplitudes are irrational
    exact_ps = []
    for n in (2, 4, 8, 12):
        note = money.money_gen(n, rng)
        state = note_state(note)
        analysis = money.money_verify_analysis(state, note.subspace)
        exact_ps.append(analysis.probability)
        assert 1.0 - fidelity(two_tests(state, note.subspace)[1], state) < 1e-9

    agree_gap = 0.0
    for n in (4, 6, 8):
        note = money.money_gen(n, rng)
        battery = []
        for _ in range(15):
            from boltlab.gf2 import random_subspaces

            battery.append(subspace_state(random_subspaces(n, n // 2, 1, rng)[0], n))
            battery.append(basis_state(n, int(rng.integers(1 << n))))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            battery.append(from_amplitudes(n, amps, normalize=True))
        for state in battery:
            # the program's verifier against the dense span projector
            p_two = money.money_verify_analysis(state, note.subspace).probability
            p_proj, _ = project_onto_span(state, [note_state(note)])
            agree_gap = max(agree_gap, abs(p_two - p_proj))

    from boltlab.gf2 import random_subspaces

    dual_gap = 0.0
    for _ in range(100):
        n = 12
        s = random_subspaces(n, n // 2, 1, rng)[0]
        got = hadamard_all(subspace_state(s, n))
        want = subspace_state(dual_space(s), n)
        dual_gap = max(dual_gap, float(np.abs(got.amps - want.amps).max()))

    honest_ok = all(abs(p - 1.0) < 1e-12 for p in exact_ps)
    ok = honest_ok and agree_gap < 1e-6 and dual_gap < 1e-10
    _line(
        8,
        ok,
        f"honest exact acceptance {exact_ps}, verifier-vs-projector gap "
        f"{agree_gap:.2e} (< 1e-6), duality gap {dual_gap:.2e} (< 1e-10)",
    )
    _budget(8, t0, 60)
    assert honest_ok
    assert agree_gap < 1e-6
    assert dual_gap < 1e-10


def test_criterion_09_counterfeiting_vs_bound():
    t0 = time.monotonic()
    stats = money.counterfeit_experiment(
        4, money.measure_and_copy, 10_000, np.random.default_rng(700)
    )
    # per-trial F^2 is the constant 2^-4, so 3 sigma collapses to equality
    sigma = stats["per_trial_f2_sd"] / np.sqrt(stats["trials"])
    f2_ok = abs(stats["mean_f2"] - 2.0**-4) <= 3 * sigma + 1e-12

    states, _ = subspace_family_states(4)
    report = cloning_bound(states, [1.0 / len(states)] * len(states), copies=2)
    bound_ok = stats["mean_f2"] <= report.f2_bound + 1e-12

    ok = f2_ok and bound_ok
    _line(
        9,
        ok,
        f"mean F^2 {stats['mean_f2']:.6f} = 2^-4, cloning bound "
        f"{report.f2_bound:.4f} (raw {report.f2_bound_raw:.4f})",
    )
    _budget(9, t0, 120)
    assert f2_ok and bound_ok


def test_criterion_10_no_conversion_numerics():
    t0 = time.monotonic()
    rng = np.random.default_rng(800)
    worst = 0.0
    for size in range(2, 41):
        m = rng.normal(size=(size, size))
        c = m @ m.T / size
        lam, _, _, _ = power_iteration(c)
        worst = max(worst, abs(lam - float(np.linalg.eigvalsh(c).max())))
    eig_ok = worst < 1e-8

    doc = subspace_example_exact(4)
    lam_ok = doc["lambda1"] <= 2.0**-5
    f2_ok = 16 * doc["lambda1"] <= 0.5
    ok = eig_ok and doc["subspace_count"] == 35 and lam_ok and f2_ok
    _line(
        10,
        ok,
        f"power-vs-eigh max gap {worst:.2e} (< 1e-8), 35 subspaces, exact "
        f"lambda1 {doc['lambda1']:.4f} vs cap 2^-5 = 0.03125, d*lambda1 "
        f"{16 * doc['lambda1']:.3f} vs 0.5",
    )
    _budget(10, t0, 30)
    assert eig_ok
    assert doc["subspace_count"] == 35
    assert lam_ok and f2_ok, (
        f"exact lambda1 = {doc['lambda1']} is the Perron row sum "
        f"(1 + 18/8 + 16/64)/35 = 0.1 > 2^-5; the chain's geometric-sum step "
        f"needs q^(3 - n/2) <= 1/q, i.e. n >= 8 over F_2, so the asymptotic "
        f"ceilings do not apply at n=4"
    )


def test_criterion_11_simulator_hygiene():
    t0 = time.monotonic()
    rng = np.random.default_rng(900)
    amps = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    state = from_amplitudes(10, amps, normalize=True)
    worst_norm = 0.0
    for _ in range(10_000):
        op = rng.integers(3)
        if op == 0:
            state = StateVector(10, qsim.wht(state.amps, int(rng.integers(10))))
        elif op == 1:
            mask = int(rng.integers(1, 1 << 10))
            parity = np.bitwise_count(np.arange(1 << 10) & mask) & 1
            state = StateVector(10, state.amps * (1.0 - 2.0 * parity))
        else:
            mask = int(rng.integers(1 << 10))
            state = apply_bijection(state, lambda idx, m=mask: idx ^ m)
        worst_norm = max(worst_norm, abs(np.linalg.norm(state.amps) - 1.0))
    norm_ok = worst_norm <= 1e-12

    idem_worst = 0.0
    for _ in range(20):
        basis = [from_amplitudes(
            8, rng.normal(size=256) + 1j * rng.normal(size=256), normalize=True)
            for _ in range(4)]
        s = from_amplitudes(
            8, rng.normal(size=256) + 1j * rng.normal(size=256), normalize=True)
        _, once = project_onto_span(s, basis)
        p2, twice = project_onto_span(once, basis)
        idem_worst = max(idem_worst, abs(p2 - 1.0), 1.0 - fidelity(once, twice))
    idem_ok = idem_worst <= 1e-10

    sum_worst = 0.0
    for _ in range(50):
        s = from_amplitudes(
            8, rng.normal(size=256) + 1j * rng.normal(size=256), normalize=True)
        qs = [int(q) for q in rng.choice(8, size=3, replace=False)]
        dist = measure_function(s, register_values(s, qs))
        sum_worst = max(sum_worst, abs(sum(p for _, p, _ in dist) - 1.0))
    sum_ok = sum_worst <= 1e-9

    ok = norm_ok and idem_ok and sum_ok
    _line(
        11,
        ok,
        f"norm drift {worst_norm:.2e} (<= 1e-12 over 10^4 gates), projector "
        f"idempotence {idem_worst:.2e} (<= 1e-10), distribution sum defect "
        f"{sum_worst:.2e} (<= 1e-9)",
    )
    _budget(11, t0, 60)
    assert norm_ok and idem_ok and sum_ok


def test_criterion_12_reproducibility(capsys, tmp_path):
    t0 = time.monotonic()
    commands = [
        ["lightning", "game", "--n", "2", "--m", "12", "--key-seed", str(SEED),
         "--storm", "classical", "--trials", "500", "--seed", "7"],
        ["lightning", "collapse", "--n", "2", "--m", "12", "--key-seed", str(SEED),
         "--trials", "20", "--seed", "7"],
        ["money", "counterfeit", "--n", "4", "--adversary", "measure-copy",
         "--trials", "300", "--seed", "7"],
        ["bound", "subspace-example", "--n", "4", "--q", "2"],
        ["attack", "multicollide", "--n", "2", "--m", "12", "--key-seed", str(SEED),
         "--k", "2", "--seed", "7"],
    ]
    all_ok = True
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        all_ok &= first == second
    _line(12, all_ok, f"{len(commands)} CLI experiments byte-identical on rerun")
    _budget(12, t0, 30)
    assert all_ok
