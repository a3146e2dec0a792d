"""Descriptions against the dense registers they stand for.

The built-in storms and producers make ``Fiber`` (psi_y) and ``Point`` (|x>)
registers.  Their analyses, the oracle's from the size of the register's fiber
and the circuit's from amplitudes built for it, must equal those of the dense
register with ``==``: every stage probability, ``below`` and the serial's CDF.
The game draws its points from psi_y's preimages with psi_y's exact CDF, which
lies within the rounding of the dense psi_y's running sum and draws the same
points.  Games, min-entropy probes and collapse runs against dense registers
built anew per trial are in ``test_input_reuse``.  A trial of the
oracle at m=16 allocates less than one dense register would.
"""
import tracemalloc

import numpy as np
import pytest

from boltlab import lightning as lt, qsim
from boltlab.gf2 import BitVector
from boltlab.mqhash import digest_table, fiber_counts, keygen
from boltlab.qsim import StateVector
from oracles import DESK, basis_state, fresh_psi_state, state_cdf

KEY_SEEDS = range(5)


def _descriptions(key, rng, points=20):
    """Every psi_y of the key, and ``points`` random basis states."""
    fibers = [lt.Fiber(key, BitVector(int(y), key.n)) for y in np.flatnonzero(fiber_counts(key))]
    return fibers + [lt.Point(key, BitVector.random(key.m, rng)) for _ in range(points)]


def _same(a, b):
    """Analyses equal with ``==``: stages, ``below`` (values and type) and the CDF."""
    assert a.stages == b.stages
    assert (a.below is None) == (b.below is None) and (a.cdf is None) == (b.cdf is None)
    if a.below is not None:
        assert a.below.dtype == b.below.dtype and np.array_equal(a.below, b.below)
    if a.cdf is not None:
        assert all(np.array_equal(x, y) for x, y in zip(a.cdf, b.cdf))


@pytest.mark.parametrize("strategy", [lt.ORACLE, lt.CIRCUIT])
def test_description_analyses_equal_the_dense_registers(strategy):
    count = 0
    for seed in KEY_SEEDS:
        key, rng = keygen(2, 12, np.random.default_rng(seed)), np.random.default_rng(seed)
        for reg in _descriptions(key, rng):
            dense = (fresh_psi_state(key, reg.y) if isinstance(reg, lt.Fiber)
                     else basis_state(key.m, reg.x.bits))
            assert np.array_equal(reg.amps, dense.amps) and reg.num_qubits == dense.num_qubits
            _same(lt.register_analysis(key, DESK, reg, strategy),
                  lt.register_analysis(key, DESK, dense, strategy))
            count += 1
    assert count == 5 * (4 + 20)


def test_a_description_of_another_key_is_analysed_as_its_amplitudes():
    key, other = (keygen(2, 12, np.random.default_rng(s)) for s in (0, 1))
    for reg in _descriptions(key, np.random.default_rng(2), points=5):
        dense = StateVector(reg.num_qubits, reg.amps)
        _same(lt.register_analysis(other, DESK, reg), lt.register_analysis(other, DESK, dense))
    assert other.cache == {} and key.cache == {}  # analysed on a dense copy that died


SHAPES = [(1, 2), (1, 3), (2, 5), (1, 6), (2, 7), (2, 8), (3, 10), (2, 12), (4, 14)]


@pytest.mark.parametrize("n,m", SHAPES + [(2, 16), (2, 20)])
def test_the_point_cdf_is_the_dense_psi_cdf(n, m):
    # the exact CDF (i+1)/N against the dense psi_y's float one: the same support, within
    # N 2^-53, the rounding a running sum of N masses of 1/N may carry, and ending at exactly
    # 1.0, and the same point drawn, as qsim.draw draws, for each of 20,000 uniforms per fiber
    uniforms = np.random.default_rng(m).random(20_000)
    for seed in KEY_SEEDS:
        key = keygen(n, m, np.random.default_rng(seed))
        for y in np.flatnonzero(fiber_counts(key)):
            y = BitVector(int(y), n)
            support, cdf = lt._point_cdf(key, y)
            want_support, want = state_cdf(fresh_psi_state(key, y))
            assert np.array_equal(support, want_support)
            assert np.abs(cdf - want).max() <= cdf.size * 2.0 ** -53 and cdf[-1] == 1.0
            assert np.array_equal(np.searchsorted(cdf, uniforms, "right"),
                                  np.searchsorted(want, uniforms, "right"))


def test_an_m16_oracle_trial_allocates_less_than_a_register():
    # the per-key tables (digest table, span states) are kept across trials and not counted;
    # a min-entropy trial is a bolt and its verification (the run's exact min-entropy, one
    # bincount of the digest table, is not a trial's), a game trial both bolts and the points
    key = keygen(2, 16, np.random.default_rng(7))
    params = lt.LightningParams(2, 16, 2, 3)
    digest_table(key), lt.span_states(key)
    trials = {
        "minentropy": lambda rng: lt.full_verify(key, params, lt.gen_bolt(key, params, rng), rng),
        "game": lambda rng: lt.uniqueness_game(key, params, lt.cheat_duplicate_storm, 1, rng),
    }
    for name, trial in trials.items():
        key.cache.clear()  # the trial analyses its register anew
        tracemalloc.start()
        try:
            out = trial(np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.accepted if name == "minentropy" else out["accepts"] == 1)
        assert peak < (1 << 16) * 8, (name, peak)


def test_a_description_dumps_as_its_amplitudes_without_building_them(monkeypatch):
    # part for part, and with no 2^m amplitudes built
    monkeypatch.setattr(lt.Fiber, "amps", property(lambda self: pytest.fail("amps built")))
    monkeypatch.setattr(lt.Point, "amps", property(lambda self: pytest.fail("amps built")))
    for n, m in ((1, 6), (2, 12), (3, 14), (2, 16)):
        key = keygen(n, m, np.random.default_rng(m))
        for reg in _descriptions(key, np.random.default_rng(m), points=3):
            amps = np.zeros(1 << m)
            amps[reg.support] = 1.0 / np.sqrt(reg.support.size)  # as a description writes them
            got, want = qsim.state_dump(reg), qsim.state_dump(StateVector(m, amps))
            assert got["num_qubits"] == want["num_qubits"] and got["entries"] == want["entries"]
