"""Each distinct input analysed once per run, against the per-trial loops it replaced.

The counterfeit game keeps each distinct note subspace's state and the
builtin adversaries' outputs for its run; lightning's storms and producers
make descriptions (``Fiber``, ``Point``), whose analyses its key keeps, and
build no amplitudes but for the circuit strategy, once per description.
Every game draws from the run's one generator.  Both must give what the
references in ``oracles`` give (a new note or dense register in every trial):
lightning draw for draw, leaving the generator where the reference leaves it;
counterfeit, which draws a block of trials at a time, in its exact fields to
the bit and in successes that lie in the binomial band around the closed
form, for both loops.  A counterfeit run keeps every distinct note when all
of its possible notes fit in ``qsim.KEPT_AMPS`` amplitudes and none
otherwise, and what a run or key keeps dies with it by reference counting
alone.
"""
import gc
import weakref

import numpy as np
import pytest

from boltlab import extraction, money, mqhash, qsim
from boltlab import lightning as lt
from boltlab.gf2 import BitVector
from boltlab.mqhash import keygen
from oracles import (
    DESK, binomial_band, counterfeit_experiment, counterfeit_success, dense_registers,
    fresh_psi_state, micro,
)

SEEDS = range(1, 6)
MICRO = micro()


def _keys():
    return [(keygen(2, 12, np.random.default_rng(7)), DESK),
            (keygen(1, 4, np.random.default_rng(7)), MICRO)]


# -- money ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", sorted(money.BUILTIN_ADVERSARIES))
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_counterfeit_matches_the_per_trial_loop(n, adversary):
    adv = money.BUILTIN_ADVERSARIES[adversary]
    lo, hi = binomial_band(150, counterfeit_success(adversary, n))
    exact = ("trials", "mean_f2", "per_trial_f2_sd")
    for seed in SEEDS:
        fast = money.counterfeit_experiment(n, adv, 150, np.random.default_rng(seed))
        ref = counterfeit_experiment(n, adv, 150, np.random.default_rng(seed))
        assert [fast[k] for k in exact] == [ref[k] for k in exact]  # to the bit
        assert lo <= fast["successes"] <= hi and lo <= ref["successes"] <= hi


def test_counterfeit_builds_each_distinct_note_once(monkeypatch):
    built = []
    state = money.subspace_state
    monkeypatch.setattr(money, "subspace_state", lambda s, n: built.append(s.rows) or state(s, n))
    money.counterfeit_experiment(4, money.measure_and_copy, 600, np.random.default_rng(3))
    assert len(built) == len(set(built)) <= 35  # the half-dimensional subspaces of GF(2)^4


# -- lightning -------------------------------------------------------------------------


def _same_with_fresh_registers(monkeypatch, run):
    """run(rng) with descriptions, then with dense registers built anew per call and the
    game's points drawn from the dense psi_y: same results, and the run's one generator
    left at the same position."""
    fast, fast_rng = [], []
    for seed in SEEDS:
        fast_rng.append(np.random.default_rng(seed))
        fast.append(run(fast_rng[-1]))
    with monkeypatch.context() as m:
        dense_registers(m)
        for seed, rng in zip(SEEDS, fast_rng):
            ref_rng = np.random.default_rng(seed)
            assert run(ref_rng) == fast[seed - 1]
            assert ref_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("strategy", [lt.ORACLE, lt.CIRCUIT])
@pytest.mark.parametrize("storm", sorted(lt.BUILTIN_STORMS))
def test_games_match_the_per_trial_registers(storm, strategy, monkeypatch):
    for key, params in _keys():
        _same_with_fresh_registers(monkeypatch, lambda rng: lt.uniqueness_game(
            key, params, lt.BUILTIN_STORMS[storm], 20, rng, strategy))


@pytest.mark.parametrize("producer", [lt.gen_bolt, lt.constant_serial_producer,
                                      lt.classical_point_producer])
def test_minentropy_matches_the_per_trial_registers(producer, monkeypatch):
    for key, params in _keys():
        _same_with_fresh_registers(monkeypatch, lambda rng: lt.minentropy_probe(
            key, params, producer, 40, rng))


def test_collapse_matches_the_per_trial_registers(monkeypatch):
    def collapse_runs(key, params, rng):
        return [lt.collapsing_experiment(key, params, b, rng) for _ in range(60) for b in (0, 1)]

    for key, params in _keys():
        _same_with_fresh_registers(monkeypatch, lambda rng: collapse_runs(key, params, rng))


def test_descriptions_are_values_whose_analyses_their_key_keeps():
    key, params = _keys()[0]
    y, x = BitVector(1, 2), BitVector(5, 12)
    assert lt.Fiber(key, y) == lt.Fiber(key, y) and hash(lt.Fiber(key, y)) == hash(lt.Fiber(key, y))
    assert lt.Fiber(key, y) != lt.Fiber(key, BitVector(2, 2)) and lt.Point(key, x) != lt.Fiber(key, y)
    assert np.array_equal(lt.Fiber(key, y).amps, fresh_psi_state(key, y).amps)
    assert np.array_equal(lt.Point(key, x).amps, qsim.basis_state(12, 5).amps)
    a = lt.register_analysis(key, params, lt.Fiber(key, y))
    assert lt.register_analysis(key, params, lt.Fiber(key, y)) is a
    assert list(key.cache) == [(params.u, lt.ORACLE, lt.Fiber, y)]  # the key is not in it
    other = keygen(2, 12, np.random.default_rng(7))  # an equal key keeps its own analyses
    assert lt.register_analysis(other, params, lt.Fiber(other, y)) is not a
    assert lt.register_analysis(other, params, lt.Fiber(key, y)).stages == a.stages


# -- what is built, the keep rule and lifetimes ------------------------------------------


def _large_key():
    return keygen(2, 15, np.random.default_rng(7))  # 4 psi_y: 2^17 amplitudes


@pytest.fixture
def psi_builds(monkeypatch):
    """The digests whose psi_y is built, one entry per build."""
    built = []
    preimages = lt.preimage_indices
    monkeypatch.setattr(lt, "preimage_indices",
                        lambda key, y: built.append(y.bits) or preimages(key, y))
    return built


@pytest.fixture
def note_builds(monkeypatch):
    """The subspaces whose note state is built, one entry per build."""
    built = []
    state = money.subspace_state
    monkeypatch.setattr(money, "subspace_state", lambda s, n: built.append(s.rows) or state(s, n))
    return built


def test_oracle_runs_build_no_psi_y(psi_builds):
    for key, params in ((keygen(2, 12, np.random.default_rng(7)), DESK),
                        (_large_key(), lt.LightningParams(2, 15, 1, 3))):
        rng = np.random.default_rng(4)
        lt.minentropy_probe(key, params, lt.gen_bolt, 30, rng)
        lt.minentropy_probe(key, params, lt.constant_serial_producer, 3, rng)
        lt.uniqueness_game(key, params, lt.cheat_duplicate_storm, 10, rng)
        assert psi_builds == [] and len(key.cache) <= 4  # one analysis per digest


def test_the_circuit_builds_each_psi_y_once_per_key(psi_builds):
    key, rng = keygen(2, 12, np.random.default_rng(7)), np.random.default_rng(4)
    for _ in range(2):
        lt.uniqueness_game(key, DESK, lt.cheat_duplicate_storm, 20, rng, lt.CIRCUIT)
    # its amplitudes are built for the circuit analysis, kept per (u, strategy, description)
    assert len(psi_builds) == len(set(psi_builds)) == len(key.cache) <= 4
    assert all(slot[:2] == (DESK.u, lt.CIRCUIT) for slot in key.cache)


def test_n6_money_builds_a_note_per_trial(note_builds):
    money.counterfeit_experiment(6, money.measure_and_copy, 2000, np.random.default_rng(3))
    assert len(note_builds) == 2000 > len(set(note_builds))  # subspaces repeat, notes are not kept


def test_moving_the_bound_flips_each_decision(psi_builds, note_builds, monkeypatch):
    monkeypatch.setattr(qsim, "KEPT_AMPS", 35 * 16 - 1)  # one short of the 35 notes at n=4
    money.counterfeit_experiment(4, money.measure_and_copy, 600, np.random.default_rng(3))
    assert len(note_builds) == 600
    monkeypatch.setattr(qsim, "KEPT_AMPS", 1 << 30)  # lightning keeps no psi_y at any bound
    key = keygen(2, 12, np.random.default_rng(7))
    lt.minentropy_probe(key, DESK, lt.gen_bolt, 30, np.random.default_rng(4))
    assert psi_builds == []
    monkeypatch.setattr(qsim, "KEPT_AMPS", 1395 * 64)  # all 1,395 notes at n=6
    note_builds.clear()
    money.counterfeit_experiment(6, money.measure_and_copy, 2000, np.random.default_rng(3))
    assert len(note_builds) == len(set(note_builds)) < 2000


def test_kept_states_die_with_their_run():
    refs = []

    def spy(state, rng):
        refs.append(weakref.ref(state))
        return money.measure_and_copy(state, rng)

    enabled = gc.isenabled()
    gc.disable()  # reference counting alone must free them
    try:
        money.counterfeit_experiment(4, spy, 200, np.random.default_rng(8))
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_kept_analyses_die_with_their_key():
    key = keygen(2, 12, np.random.default_rng(9))
    y = lt.eval_digest(key, BitVector(0, 12))
    for strategy in (lt.ORACLE, lt.CIRCUIT):
        lt.mini_verify(key, DESK, lt.Fiber(key, y), np.random.default_rng(1), strategy)
    refs = [weakref.ref(x) for a in key.cache.values() for x in (a, a.below, *a.cdf)]
    assert len(refs) == 8
    enabled = gc.isenabled()
    gc.disable()  # reference counting alone must free them: nothing kept names the key
    try:
        del key
        for cached in (mqhash.digest_table, lt.span_states, extraction.get_plan):
            cached.cache_clear()  # these hold the key, and with it its kept analyses
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
