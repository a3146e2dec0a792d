"""Each distinct input analysed once per run, against the per-trial loops it replaced.

The counterfeit game keeps each distinct note subspace's state, tables and the
builtin adversaries' outputs for its run; lightning keeps each digest's psi_y
on its key.  Both must give what the references in ``oracles`` give (a new
note or register in every trial), draw for draw and stream for stream, while
what they keep stays within ``qsim.KEPT_BYTES`` and dies with the run or key.
"""
import gc
import weakref
from unittest import mock

import numpy as np
import pytest

from boltlab import extraction, money, mqhash, qsim
from boltlab import lightning as lt
from boltlab.gf2 import BitVector, dual_space
from boltlab.mqhash import keygen
from oracles import DESK, counterfeit_experiment, fresh_psi_state, micro

SEEDS = range(1, 6)
MICRO = micro()


class Recorded(np.random.Generator):
    """A generator that remembers the streams it spawns, to compare their positions."""

    def spawn(self, n_children):
        self.children = super().spawn(n_children)
        return self.children


def _positions(rng):
    return [rng.bit_generator.state] + [c.bit_generator.state for c in getattr(rng, "children", [])]


def _rng(seed):
    return Recorded(np.random.PCG64(seed))


def _keys():
    return [(keygen(2, 12, np.random.default_rng(7)), DESK),
            (keygen(1, 4, np.random.default_rng(7)), MICRO)]


# -- money ---------------------------------------------------------------------------


@pytest.mark.parametrize("adversary", sorted(money.BUILTIN_ADVERSARIES))
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_counterfeit_matches_the_per_trial_loop(n, adversary):
    adv = money.BUILTIN_ADVERSARIES[adversary]
    for seed in SEEDS:
        fast_rng, ref_rng = _rng(seed), _rng(seed)
        fast = money.counterfeit_experiment(n, adv, 150, fast_rng)
        ref = counterfeit_experiment(n, adv, 150, ref_rng)
        assert fast == ref  # successes, and mean_f2 and per_trial_f2_sd to the bit
        assert _positions(fast_rng) == _positions(ref_rng)


def test_counterfeit_builds_each_distinct_note_once(monkeypatch):
    built = []
    state = money.subspace_state
    monkeypatch.setattr(money, "subspace_state", lambda s, n: built.append(s.rows) or state(s, n))
    money.counterfeit_experiment(4, money.measure_and_copy, 600, np.random.default_rng(3))
    assert len(built) == len(set(built)) <= 35  # the half-dimensional subspaces of GF(2)^4


def test_counterfeit_oracles_share_their_tables_within_a_run():
    seen = []

    def spy(state, oracles, rng):
        seen.append((state, oracles.serial))
        oracles.primal(np.arange(4))
        return money.honest_forwarding(state, oracles, rng)

    with mock.patch.object(money, "dual_space", wraps=dual_space) as duals:
        stats = money.counterfeit_experiment(2, spy, 40, np.random.default_rng(5))
    assert duals.call_count == len({id(state) for state, _ in seen}) <= 3  # one table per note
    assert len({serial for _, serial in seen}) == 40  # every trial draws its own serial
    assert stats == counterfeit_experiment(2, spy, 40, np.random.default_rng(5))


# -- lightning -------------------------------------------------------------------------


def _same_with_fresh_registers(monkeypatch, run):
    """run(rng) with psi_y kept, then with psi_y built anew per call: same results and streams."""
    fast, fast_rng = [], []
    for seed in SEEDS:
        fast_rng.append(_rng(seed))
        fast.append(run(fast_rng[-1]))
    with monkeypatch.context() as m:
        m.setattr(lt, "psi_state", fresh_psi_state)
        for seed, rng in zip(SEEDS, fast_rng):
            ref_rng = _rng(seed)
            assert run(ref_rng) == fast[seed - 1]
            assert _positions(ref_rng) == _positions(rng)


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


def test_psi_state_is_one_register_per_digest():
    key, _ = _keys()[0]
    y = BitVector(1, 2)
    assert lt.psi_state(key, y) is lt.psi_state(key, y)
    assert np.array_equal(lt.psi_state(key, y).amps, fresh_psi_state(key, y).amps)
    assert lt.psi_state(key, y) is not lt.psi_state(keygen(2, 12, np.random.default_rng(7)), y)


# -- the byte bound and lifetimes ----------------------------------------------------------


@pytest.fixture
def checked_stores(monkeypatch):
    """Every Kept store made, checked after each call: what it counts is what its values
    reach, analyses and post-states added since included, and within the bound."""
    stores = []

    class Checked(qsim.Kept):
        def __init__(self):
            super().__init__()
            stores.append(self)

        def get(self, key, build):
            value = super().get(key, build)
            sizes = {k: qsim.footprint(v) for k, v in self.values.items()}
            assert sizes == self.sizes and sum(sizes.values()) <= qsim.KEPT_BYTES
            return value

    monkeypatch.setattr(qsim, "Kept", Checked)
    return stores


def test_the_byte_bound_holds_through_a_long_run(checked_stores, monkeypatch):
    # room for about two desk psi_y with their analyses, so the run keeps evicting
    monkeypatch.setattr(qsim, "KEPT_BYTES", 400_000)
    key = keygen(2, 12, np.random.default_rng(7))
    for strategy in (lt.ORACLE, lt.CIRCUIT):
        for storm in ("cheat-duplicate", "affine-attack"):
            lt.uniqueness_game(key, DESK, lt.BUILTIN_STORMS[storm], 40,
                               np.random.default_rng(4), strategy)
    rng = np.random.default_rng(5)
    for _ in range(40):
        lt.collapsing_experiment(key, DESK, 0, rng)
    lt.minentropy_probe(key, DESK, lt.gen_bolt, 40, rng)
    store = key.cache["psi"]
    lt.psi_state(key, BitVector(0, 2))  # measures what the last trial added
    assert 0 < len(store.values) < 4
    kept = list(store.values.values())
    assert any(slot[0] == "verify" for v in kept for slot in v.cache if isinstance(slot, tuple))
    visited = set()

    def late_querier(state, oracles, rng):
        """Builds a note's oracle tables on its second visit alone, and returns states
        nothing keeps: the tables are all that note gains in that trial."""
        if id(state) in visited:
            oracles.primal(np.arange(4))
            oracles.dual(np.arange(4))
        visited.add(id(state))
        z = qsim.basis_state(state.num_qubits, 0)
        return z, z

    monkeypatch.setattr(qsim, "KEPT_BYTES", 30_000)
    for n, adversary in ((4, money.measure_and_copy), (8, money.honest_forwarding),
                         (6, late_querier)):
        money.counterfeit_experiment(n, adversary, 400, np.random.default_rng(6))
    assert len(checked_stores) == 4


def test_a_value_too_large_alone_is_not_kept(monkeypatch):
    monkeypatch.setattr(qsim, "KEPT_BYTES", 1000)
    key = keygen(2, 12, np.random.default_rng(7))
    y = BitVector(0, 2)
    assert lt.psi_state(key, y) is not lt.psi_state(key, y)  # 64 KiB each
    assert key.cache["psi"].values == key.cache["psi"].sizes == {}


def test_kept_states_die_with_their_run():
    refs = []

    def spy(state, oracles, rng):
        refs.append(weakref.ref(state))
        return money.measure_and_copy(state, oracles, rng)

    enabled = gc.isenabled()
    gc.disable()  # reference counting alone must free them
    try:
        money.counterfeit_experiment(4, spy, 200, np.random.default_rng(8))
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_kept_states_die_with_their_key():
    key = keygen(2, 12, np.random.default_rng(9))
    y = lt.eval_digest(key, BitVector(0, 12))
    reg = lt.psi_state(key, y)
    lt.mini_verify(key, DESK, reg, np.random.default_rng(1))
    refs = [weakref.ref(x) for x in (reg, reg.amps, lt.register_analysis(key, DESK, reg).post)]
    del key, reg
    for cached in (mqhash.digest_table, lt.span_states, extraction.get_plan):
        cached.cache_clear()  # these hold the key, and with it its kept registers
    gc.collect()  # a register's analysis slot names the key that keeps the register
    assert [r() for r in refs] == [None] * len(refs)
