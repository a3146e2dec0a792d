"""Games on descriptions, against the per-trial loops they replaced.

The counterfeit game holds each note as its canonical basis, and the built-in
adversaries return descriptions (the note, or a basis point) that are scored in
closed form, so it builds no state; lightning's storms and producers make
descriptions (``Fiber``, ``Point``), whose analyses its key keeps, and build no
amplitudes but for the circuit strategy, once per description.  Every game
draws from the run's one generator.  Both must give what the references in
``oracles`` give (a new note or dense register in every trial): lightning draw
for draw, leaving the generator where the reference leaves it; counterfeit,
which draws a block of trials at a time, in its exact fields to the bit (the
note's self-fidelity is exactly 1 where the dense dot product rounds, so
honest-forward at n = 2 mod 4 is compared within 1e-12 and with its closed
form) and in successes that lie in the binomial band around the closed form,
for both loops.  What a key keeps dies with it by reference counting alone.
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
    DENSE_ADVERSARIES, DESK, basis_state, binomial_band, counterfeit_experiment, counterfeit_f2,
    counterfeit_success, dense_registers, fresh_psi_state, micro,
)

SEEDS = range(1, 6)
MICRO = micro()


def _keys():
    return [(keygen(2, 12, np.random.default_rng(7)), DESK),
            (keygen(1, 4, np.random.default_rng(7)), MICRO)]


# -- money ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", sorted(money.BUILTIN_ADVERSARIES))
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_counterfeit_matches_the_per_trial_loop(n, adversary):
    lo, hi = binomial_band(150, counterfeit_success(adversary, n))
    exact = ("trials", "mean_f2", "per_trial_f2_sd")
    for seed in SEEDS:
        fast = money.counterfeit_experiment(
            n, money.BUILTIN_ADVERSARIES[adversary], 150, np.random.default_rng(seed))
        ref = counterfeit_experiment(n, DENSE_ADVERSARIES[adversary], 150,
                                     np.random.default_rng(seed))
        if adversary == "honest-forward" and n % 4 == 2:  # the dense <note|note> rounds below 1
            assert fast["trials"] == ref["trials"]
            assert abs(fast["mean_f2"] - ref["mean_f2"]) < 1e-12
            assert ref["per_trial_f2_sd"] < 1e-12 and fast["per_trial_f2_sd"] == 0.0
            assert fast["mean_f2"] == np.full(150, counterfeit_f2(adversary, n)).mean()
        else:
            assert [fast[k] for k in exact] == [ref[k] for k in exact]  # to the bit
        assert lo <= fast["successes"] <= hi and lo <= ref["successes"] <= hi


@pytest.mark.parametrize("adversary", sorted(money.BUILTIN_ADVERSARIES))
def test_counterfeit_builds_no_note(adversary, monkeypatch):
    built = []
    post_init = qsim.StateVector.__post_init__
    monkeypatch.setattr(qsim.StateVector, "__post_init__",
                        lambda self: built.append(self.num_qubits) or post_init(self))
    for n in (2, 4, 6):  # n = 20 in test_money, with its memory
        money.counterfeit_experiment(n, money.BUILTIN_ADVERSARIES[adversary], 1100,
                                     np.random.default_rng(3))
    assert built == []


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
    assert np.array_equal(lt.Point(key, x).amps, basis_state(12, 5).amps)
    a = lt.register_analysis(key, params, lt.Fiber(key, y))
    assert lt.register_analysis(key, params, lt.Fiber(key, y)) is a
    assert list(key.cache) == [(params.u, lt.ORACLE, lt.Fiber, y)]  # the key is not in it
    other = keygen(2, 12, np.random.default_rng(7))  # an equal key keeps its own analyses
    assert lt.register_analysis(other, params, lt.Fiber(other, y)) is not a
    assert lt.register_analysis(other, params, lt.Fiber(key, y)).stages == a.stages


# -- what is built, and lifetimes ------------------------------------------


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
