"""Verification drawn from each register's one analysis, against the per-call path.

The reference is the earlier verifier (``oracles.dense_full_verify``): every
call runs the span test and a full ``sample_function`` on its whole register,
collapses it, verifies a joint bolt block by block on the collapsed state,
keeps nothing, and every bolt gets new register objects.  With it patched in,
each game, min-entropy probe, collapse run and verify must give the same
results, draw for draw.  The analysis keeps no post-state: what the reference
collapses a register to is psi_y, up to a global phase.
"""
import functools
import gc
import itertools
import json
import math
import weakref
from unittest import mock

import numpy as np
import pytest

from boltlab import jsonio, qsim
from boltlab import lightning as lt
from boltlab.attacks import is_nonaffine
from boltlab.cli import main
from boltlab.errors import PreconditionError
from boltlab.gf2 import BitVector
from boltlab.mqhash import digest_table, eval_digest, keygen, preimage_indices
from boltlab.qsim import StateVector
from oracles import (
    DESK, basis_state, collapse, dense_full_verify, dense_registers, dense_span_test, fidelity,
    fresh_psi_state, from_amplitudes, measure_register, micro, outcome_table, span_projection,
    tensor, uniform_over,
)

MICRO = micro()
SEEDS = (0, 3, 7)


def _desk_key(seed=7):
    return keygen(2, 12, np.random.default_rng(seed))


def _micro_key(seed=7):
    return keygen(1, 4, np.random.default_rng(seed))


# -- the per-call reference ---------------------------------------------------


def _mini_verify_acceptance(key, params, register, strategy=lt.ORACLE):
    return math.prod(p for p, _ in dense_span_test(key, params, register, strategy)[0])


def _cheat_duplicate_storm(key, params, rng):
    bolt = lt.gen_bolt(key, params, rng)
    regs = tuple(StateVector(r.num_qubits, r.amps.copy()) for r in bolt.registers)
    return bolt, lt.Bolt(bolt.serial, bolt.mode, regs, bolt.k)


def _collapsing_experiment(key, params, b, rng):
    x = BitVector.random(key.m, rng)
    if b == 0:
        state = fresh_psi_state(key, eval_digest(key, x))
    else:
        state = basis_state(key.m, x.bits)
    prob, _ = span_projection(key, state)
    return 1 if rng.random() < prob else 0


def _uniqueness_game(key, params, storm, trials, rng, strategy=lt.ORACLE):
    accepts = witness = 0
    serial_counts = {}
    for _ in range(trials):
        b0, b1 = storm(key, params, rng)
        r0 = lt.full_verify(key, params, b0, rng, strategy=strategy)
        r1 = lt.full_verify(key, params, b1, rng, strategy=strategy)
        if not (r0.accepted and r1.accepted and r0.serial == r1.serial):
            continue
        accepts += 1
        shex = r0.serial.to_hex()
        serial_counts[shex] = serial_counts.get(shex, 0) + 1
        points = []
        for res in (r0, r1):
            for reg in res.bolt.registers:
                value, _, _ = measure_register(reg, list(range(reg.num_qubits)), rng)
                points.append(BitVector(value, reg.num_qubits))
        distinct = len({p.bits for p in points}) == len(points)
        same_digest = len({eval_digest(key, p).bits for p in points}) == 1
        if distinct and same_digest and is_nonaffine(points):
            witness += 1
    return {
        "trials": trials,
        "accepts": accepts,
        "witness_count": witness,
        "empirical_rates": {"accept": accepts / trials if trials else 0.0,
                            "witness_given_accept": witness / accepts if accepts else None},
        "serial_counts": dict(sorted(serial_counts.items())),
    }


@functools.lru_cache(maxsize=None)
def _superposed_bolt(key, params):
    """One register spread over every nonempty fiber, k+1 times: in span, so the
    oracle accepts it, and its serial draws are random, so each of them counts."""
    rng = np.random.default_rng(key.m)
    ys = np.flatnonzero(np.bincount(digest_table(key)))
    coeffs = rng.normal(size=ys.size) + 1j * rng.normal(size=ys.size)
    amps = sum(c * fresh_psi_state(key, BitVector(int(y), key.n)).amps for y, c in zip(ys, coeffs))
    reg = from_amplitudes(key.m, amps, normalize=True)
    serial = BitVector(int(ys[0]), key.n)
    return lt.Bolt(serial, lt.MODE_PRODUCT, (reg,) * (params.k + 1), params.k)


def _superposed_storm(key, params, rng):
    bolt = _superposed_bolt(key, params)
    return bolt, bolt


def _storm_by_name(name):
    if name == "superposed":
        return _superposed_storm
    return lambda key, params, rng: lt.BUILTIN_STORMS[name](key, params, rng)


@pytest.fixture
def reference(monkeypatch):
    """Patch the per-call reference into lightning (new register objects everywhere)."""

    def install():
        dense_registers(monkeypatch)
        monkeypatch.setattr(lt, "full_verify", dense_full_verify)
        monkeypatch.setattr(lt, "mini_verify_acceptance", _mini_verify_acceptance)
        monkeypatch.setattr(lt, "collapsing_experiment", _collapsing_experiment)
        monkeypatch.setattr(lt, "uniqueness_game", _uniqueness_game)
        monkeypatch.setitem(lt.BUILTIN_STORMS, "cheat-duplicate", _cheat_duplicate_storm)
        monkeypatch.setattr(lt, "cheat_duplicate_storm", _cheat_duplicate_storm)

    return install


def _same_bolt(key, fast, ref):
    """After the fast verifier accepts, its k+1 registers are psi_serial: the reference's
    collapsed registers as rays; a joint bolt's one collapsed state is their tensor product."""
    assert fast.accepted == ref.accepted and fast.serial == ref.serial
    if ref.accepted:
        regs = (fresh_psi_state(key, fast.serial),) * (ref.bolt.k + 1)
        if ref.bolt.mode == lt.MODE_JOINT:
            regs = (functools.reduce(tensor, regs),)
        assert len(regs) == len(ref.bolt.registers)
        for a, b in zip(regs, ref.bolt.registers):
            assert 1.0 - fidelity(a, b) < 1e-12


# -- identical results with the reference patched in ---------------------------


GAME_CASES = [(storm, strategy) for storm in [*lt.BUILTIN_STORMS, "superposed"]
              for strategy in (lt.ORACLE, lt.CIRCUIT)]


@pytest.mark.parametrize("storm,strategy", GAME_CASES)
def test_games_match_the_per_call_reference(storm, strategy, reference):
    cases = [(_desk_key(), DESK, 30), (_micro_key(), MICRO, 40)]
    runs = lambda: [lt.uniqueness_game(key, params, _storm_by_name(storm), trials,
                                       np.random.default_rng(seed), strategy=strategy)
                    for key, params, trials in cases for seed in SEEDS]
    fast = runs()
    reference()
    assert runs() == fast


PRODUCERS = {
    "honest": lambda key, params, rng: lt.gen_bolt(key, params, rng),
    "constant": lambda key, params, rng: lt.constant_serial_producer(key, params, rng),
    "classical": lambda key, params, rng: lt.classical_point_producer(key, params, rng),
    "joint": lambda key, params, rng: lt.gen_bolt(key, params, rng, mode=lt.MODE_JOINT),
    "superposed": lambda key, params, rng: _superposed_bolt(key, params),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_minentropy_matches_the_per_call_reference(producer, reference):
    cases = [(_micro_key(), MICRO, 40)] + ([] if producer == "joint" else [(_desk_key(), DESK, 60)])
    runs = lambda: [lt.minentropy_probe(key, params, PRODUCERS[producer], trials,
                                        np.random.default_rng(seed))
                    for key, params, trials in cases for seed in SEEDS]
    fast = runs()
    reference()
    assert runs() == fast


@pytest.mark.parametrize("strategy", [lt.ORACLE, lt.CIRCUIT])
def test_full_verify_matches_the_per_call_reference(strategy, reference):
    key, micro = _desk_key(), _micro_key()
    cases = [(key, DESK, lt.gen_bolt(key, DESK, np.random.default_rng(s))) for s in SEEDS]
    cases += [(key, DESK, b) for s in SEEDS for b in lt.classical_state_storm(
        key, DESK, np.random.default_rng(s))[:1]]
    cases += [(k, p, _superposed_bolt(k, p)) for k, p in ((key, DESK), (micro, MICRO))]
    if strategy == lt.ORACLE:
        cases += [(micro, MICRO, lt.gen_bolt(micro, MICRO, np.random.default_rng(s),
                                             mode=lt.MODE_JOINT)) for s in (6, 16, 3)]

    def runs():
        out = []
        for k, params, bolt in cases:
            for seed in SEEDS:
                res = lt.full_verify(k, params, bolt, np.random.default_rng(seed), strategy)
                exact = None
                if bolt.mode == lt.MODE_PRODUCT:
                    exact = lt.full_verify_acceptance(k, params, bolt, strategy)
                out.append((k, res, exact))
        return out

    fast = runs()
    reference()
    slow = runs()
    assert len(fast) == len(slow)
    for (k, a, exact_a), (_, b, exact_b) in zip(fast, slow):
        assert a.outcome == b.outcome and exact_a == exact_b
        _same_bolt(k, a, b)


def _cli_commands(tmp_path):
    key, mkey = tmp_path / "key.json", tmp_path / "mkey.json"
    main(["lightning", "setup", "--n", "2", "--m", "12", "--seed", "7", "--out", str(key)])
    main(["lightning", "setup", "--n", "1", "--m", "4", "--k", "1", "--u", "2", "--seed", "7",
          "--out", str(mkey)])
    bolt, proof, joint = tmp_path / "bolt.json", tmp_path / "proof.json", tmp_path / "joint.json"
    main(["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)])
    main(["randomness", "prove", "--key", str(key), "--seed", "3", "--proof", str(proof),
          "--out", str(tmp_path / "prove.json")])
    main(["lightning", "gen", "--key", str(mkey), "--k", "1", "--u", "2", "--mode", "joint-micro",
          "--seed", "6", "--out", str(joint)])
    k, mk = ["--key", str(key)], ["--key", str(mkey), "--k", "1", "--u", "2"]
    commands = []
    for seed in map(str, SEEDS):
        commands += [
            ["lightning", "verify", *k, "--bolt", str(bolt), "--seed", seed],
            ["lightning", "verify", *k, "--bolt", str(bolt), "--strategy", "circuit",
             "--seed", seed],
            ["lightning", "verify", *mk, "--bolt", str(joint), "--seed", seed],
            ["randomness", "verify", *k, "--proof", str(proof), "--seed", seed],
            ["lightning", "collapse", *k, "--trials", "100", "--seed", seed],
            ["lightning", "game", *k, "--storm", "cheat-duplicate", "--trials", "20",
             "--seed", seed],
            ["lightning", "minentropy", *k, "--trials", "50", "--seed", seed],
        ]
    return commands


def test_cli_reports_match_the_per_call_reference(tmp_path, capsys, reference):
    commands = _cli_commands(tmp_path)
    capsys.readouterr()

    def runs():
        out = []
        for argv in commands:
            assert main(argv) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    fast = runs()
    reference()
    assert runs() == fast


# -- what the verifiers leave ----------------------------------------------------------


def _analysis_battery():
    """(key, params, registers): every psi_y, 20 basis states, random complex states
    and the superposed bolt's register, on the desk key and two micro keys."""
    rng = np.random.default_rng(40)
    for key, params in ((_desk_key(), DESK), (_micro_key(), MICRO),
                        (keygen(1, 6, np.random.default_rng(3)), micro(6))):
        regs = [fresh_psi_state(key, BitVector(int(y), key.n))
                for y in np.flatnonzero(np.bincount(digest_table(key)))]
        regs += [basis_state(key.m, int(x)) for x in rng.integers(1 << key.m, size=20)]
        for _ in range(5):
            amps = rng.normal(size=1 << key.m) + 1j * rng.normal(size=1 << key.m)
            regs.append(from_amplitudes(key.m, amps, normalize=True))
        regs.append(_superposed_bolt(key, params).registers[0])
        yield key, params, regs


@pytest.mark.parametrize("strategy", [lt.ORACLE, lt.CIRCUIT])
def test_a_register_read_as_serial_y_is_psi_y(strategy):
    for key, params, regs in _analysis_battery():
        tab = digest_table(key)
        for reg in regs:
            a = lt.register_analysis(key, params, reg, strategy)
            stages, post = dense_span_test(key, params, reg, strategy)
            assert [k for _, k in a.stages] == [k for _, k in stages]
            assert max(abs(p - q) for (p, _), (q, _) in zip(a.stages, stages)) < 1e-12
            assert (a.cdf is None) == (post is None)
            if post is None:
                continue
            table = np.zeros(1 << key.n)
            dense = outcome_table(post, tab)
            table[:dense.size] = dense
            assert np.abs(np.sum(np.abs(a.below) ** 2, axis=1) - table).max() < 1e-12
            for y in np.flatnonzero(table):
                psi = fresh_psi_state(key, BitVector(int(y), key.n))
                assert 1.0 - fidelity(collapse(post, tab, y, table[y]), psi) < 1e-12


JOINT_SHAPES = [(1, 4, 1), (1, 5, 2), (1, 6, 2)]


def _joint_cases():
    """Joint bolts, random joint states (which mostly fail the span test) and k+1
    copies of the superposed register (whose blocks often disagree on the serial),
    with their keys and params."""
    rng = np.random.default_rng(41)
    for n, m, k in JOINT_SHAPES:
        for key_seed in range(2):
            key = keygen(n, m, np.random.default_rng(key_seed))
            params = lt.LightningParams(n=n, m=m, k=k, u=n)
            for seed in range(3):
                yield key, params, lt.gen_bolt(key, params, np.random.default_rng(seed),
                                               mode=lt.MODE_JOINT)
            q = (k + 1) * m
            amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
            superposed = _superposed_bolt(key, params).registers
            for state in (from_amplitudes(q, amps, normalize=True),
                          functools.reduce(tensor, superposed)):
                yield key, params, lt.Bolt(BitVector(0, n), lt.MODE_JOINT, (state,), k)


def test_joint_verify_matches_the_block_by_block_reference():
    outcomes = set()
    for key, params, bolt in _joint_cases():
        for seed in SEEDS:
            fast_rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = lt.full_verify(key, params, bolt, fast_rng)
            dense = dense_full_verify(key, params, bolt, dense_rng)
            assert (fast.outcome, fast.serial) == (dense.outcome, dense.serial)
            assert fast_rng.bit_generator.state == dense_rng.bit_generator.state
            _same_bolt(key, fast, dense)
            outcomes.add(fast.outcome)
    assert outcomes == {lt.ACCEPTED, lt.SPAN_REJECT, lt.SERIAL_MISMATCH}


# -- one analysis per distinct register -----------------------------------------


@pytest.fixture
def analyses(monkeypatch):
    """The registers lightning analyses, one entry per analysis it computes: a dense or loaded
    register keeps its analysis, a description's is kept on its key."""
    seen = []
    analyse = lt.register_analysis

    def counted(key, params, register, strategy=lt.ORACLE):
        cache = key.cache if isinstance(register, lt._Description) else register.cache
        before = len(cache)
        out = analyse(key, params, register, strategy)
        if len(cache) > before:
            seen.append(register)
        return out

    monkeypatch.setattr(lt, "register_analysis", counted)
    return seen


@pytest.mark.parametrize("strategy", [lt.ORACLE, lt.CIRCUIT])
@pytest.mark.parametrize("storm", sorted(lt.BUILTIN_STORMS))
def test_each_distinct_register_is_analysed_once(storm, strategy, analyses):
    key = _desk_key()
    stats = lt.uniqueness_game(key, DESK, lt.BUILTIN_STORMS[storm], 25,
                               np.random.default_rng(1), strategy)
    assert len(set(analyses)) == len(analyses)  # equal descriptions share one analysis
    if storm == "classical":  # a basis state per trial, shared by both bolts
        assert all(isinstance(s, lt.Point) for s in analyses)
        assert 20 <= len(analyses) <= stats["trials"] == 25
    else:  # one psi_y, and one analysis, per digest in the run
        assert all(isinstance(s, lt.Fiber) for s in analyses) and len(analyses) <= 4


def test_minentropy_and_collapse_analyse_each_register_once(analyses):
    key = _desk_key()
    rep = lt.minentropy_probe(key, DESK, lt.gen_bolt, 200, np.random.default_rng(2))
    # one analysis per digest drawn: the k+1 registers of a bolt are one psi_y
    assert rep["accepted"] == 200 and len(analyses) == len(rep["serial_counts"]) == 4
    analyses.clear()
    rng = np.random.default_rng(3)
    assert sum(lt.collapsing_experiment(key, DESK, 0, rng) for _ in range(100)) == 100
    for _ in range(50):
        lt.collapsing_experiment(key, DESK, 1, rng)
    # the distinct b=1 basis states; every psi_y was analysed above
    assert len(analyses) == len(set(analyses)) > 40
    assert all(isinstance(s, lt.Point) for s in analyses)


def test_cli_verify_projects_once(tmp_path, capsys, analyses):
    key, bolt = tmp_path / "key.json", tmp_path / "bolt.json"
    main(["lightning", "setup", "--seed", "7", "--out", str(key)])
    main(["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)])
    analyses.clear()
    assert main(["lightning", "verify", "--key", str(key), "--bolt", str(bolt)]) == 0
    assert main(["randomness", "verify", "--key", str(key), "--proof", str(bolt)]) == 0
    assert len(analyses) == 2  # one per command: its three registers are one shared state
    capsys.readouterr()


def test_producers_share_immutable_registers():
    key = _desk_key()
    y, z = (BitVector(int(v), 2) for v in np.flatnonzero(np.bincount(digest_table(key)))[:2])
    b0, b1 = lt.cheat_duplicate_storm(key, DESK, np.random.default_rng(4))
    assert b0 is b1
    back = lt.bolt_from_json(lt.bolt_to_json(lt.gen_bolt(key, DESK, np.random.default_rng(5))))
    assert all(r is back.registers[0] for r in back.registers)
    doc = lt.bolt_to_json(lt.Bolt(y, lt.MODE_PRODUCT, (
        fresh_psi_state(key, y), fresh_psi_state(key, z), fresh_psi_state(key, y)), 2))
    a, b, c = lt.bolt_from_json(doc).registers
    assert a is c and a is not b and not np.array_equal(a.amps, b.amps)


def test_bolt_to_json_dumps_each_distinct_register_once():
    key = _desk_key()
    y, z = (BitVector(int(v), 2) for v in np.flatnonzero(np.bincount(digest_table(key)))[:2])
    bolt = lt.gen_bolt(key, DESK, np.random.default_rng(5))
    mixed = lt.Bolt(y, lt.MODE_PRODUCT, (
        fresh_psi_state(key, y), fresh_psi_state(key, z), fresh_psi_state(key, y)), 2)
    for b, distinct in ((bolt, 1), (mixed, 3)):
        with mock.patch.object(qsim, "state_dump", wraps=qsim.state_dump) as dumps:
            doc = lt.bolt_to_json(b)
        assert dumps.call_count == distinct
        assert doc["registers"] == [qsim.state_dump(r) for r in b.registers]


class _CountedText(jsonio.Text):
    compared = 0

    def __eq__(self, other):
        _CountedText.compared += 1
        return jsonio.Text.__eq__(self, other)

    __hash__ = None


def test_bolt_from_json_compares_each_register_with_the_first_alone(tmp_path, capsys):
    # registers that differ only in their last entry: comparing every pair would
    # walk the whole file once per register
    _CountedText.compared = 0
    key = _micro_key()
    doc = lt.bolt_to_json(lt.gen_bolt(key, MICRO, np.random.default_rng(1)))
    first = doc["registers"][0]
    *head, (last, re, im) = json.loads(jsonio.dumps(first["entries"]))
    turns = [complex(re, im) * np.exp(1j * (i + 1) / 1000) for i in range(300)]  # same norm
    docs = [{**first, "entries": _CountedText(
        (jsonio.dumps(head + [[last, z.real, z.imag]]).encode(),))} for z in turns]
    bolt = lt.bolt_from_json({**doc, "registers": docs + docs[:1], "k": 300})
    assert _CountedText.compared == 299  # once for each register but the first's object
    assert bolt.registers[0] is bolt.registers[-1]
    assert len({id(r) for r in bolt.registers}) == 300
    path, key_path = tmp_path / "bolt.json", tmp_path / "key.json"
    main(["lightning", "setup", "--n", "1", "--m", "4", "--k", "1", "--u", "2", "--seed", "7",
          "--out", str(key_path)])
    path.write_text(jsonio.dumps({**doc, "registers": docs}))  # 300 registers at k=1
    capsys.readouterr()
    assert main(["lightning", "verify", "--key", str(key_path), "--k", "1", "--u", "2",
                 "--bolt", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error_kind"] == "precondition_violated"


# -- no post-states, and memory ------------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """The qubit count of every state built, one entry per state."""
    sizes = []
    init = StateVector.__post_init__

    def counted(self):
        init(self)
        sizes.append(self.num_qubits)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    return sizes


def test_minentropy_builds_no_collapsed_post_state(built):
    key = _desk_key()
    for producer in (lt.gen_bolt, lt.constant_serial_producer):
        rep = lt.minentropy_probe(key, DESK, producer, 100, np.random.default_rng(6))
        assert rep["accepted"] == 100
    rep = lt.minentropy_probe(key, DESK, lt.classical_point_producer, 100,
                              np.random.default_rng(6))
    assert rep["accepted"] == 0
    assert built == []  # every register is a description: no state, kept or collapsed


def test_game_builds_psi_y_at_most_once_per_accepted_trial(built):
    key = _desk_key()
    stats = lt.uniqueness_game(key, DESK, lt.cheat_duplicate_storm, 30, np.random.default_rng(8))
    # the bolts are descriptions, and the points are drawn from psi_y's preimages
    assert stats["accepts"] == 30 and len(stats["serial_counts"]) == 4 and built == []
    stats = lt.uniqueness_game(key, DESK, lt.cheat_duplicate_storm, 30, np.random.default_rng(8),
                               lt.CIRCUIT)  # the circuit builds amplitudes, not states
    assert stats["accepts"] > 0 and built == []
    wide = keygen(2, 15, np.random.default_rng(7))
    params = lt.LightningParams(2, 15, 1, 3)
    stats = lt.uniqueness_game(wide, params, lt.cheat_duplicate_storm, 6, np.random.default_rng(8))
    assert stats["accepts"] == 6 and built == []


def test_verifying_a_joint_bolt_builds_no_state_of_its_width(built):
    for (n, m, k), seed in itertools.product([(1, 4, 1), (1, 5, 2), (1, 6, 2)], range(3)):
        key = keygen(n, m, np.random.default_rng(seed))
        params = lt.LightningParams(n=n, m=m, k=k, u=n)
        bolt = lt.gen_bolt(key, params, np.random.default_rng(seed), mode=lt.MODE_JOINT)
        built.clear()
        res = lt.full_verify(key, params, bolt, np.random.default_rng(seed))
        assert res.accepted and (k + 1) * m not in built
        assert sorted(built) == [j * m for j in range(1, k + 1)]  # the blocks below each read


def test_analysis_dies_with_its_register():
    key = _desk_key()
    reg = uniform_over(preimage_indices(key, BitVector(1, 2)), key.m)
    res = lt.mini_verify(key, DESK, reg, np.random.default_rng(9))
    analysis = lt.register_analysis(key, DESK, reg)
    assert res.accepted and res.analysis is analysis
    held = [reg, analysis, analysis.below, *analysis.cdf]
    refs = [weakref.ref(x) for x in held]
    enabled = gc.isenabled()
    gc.disable()  # reference counting alone must free them: nothing points back
    try:
        del reg, res, analysis, held
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_circuit_and_oracle_analyses_are_kept_apart():
    key = _desk_key()
    reg = uniform_over(preimage_indices(key, BitVector(0, 2)), key.m)
    oracle = lt.register_analysis(key, DESK, reg, lt.ORACLE)
    circuit = lt.register_analysis(key, DESK, reg, lt.CIRCUIT)
    assert oracle is not circuit
    assert len(oracle.stages) == 1 and len(circuit.stages) == 2
    assert lt.register_analysis(key, DESK, reg, lt.CIRCUIT) is circuit
    assert lt.mini_verify_acceptance(key, DESK, reg, lt.CIRCUIT) == math.prod(
        p for p, _ in circuit.stages)


def test_bad_strategy_and_size_are_not_cached():
    key = _desk_key()
    reg = uniform_over(preimage_indices(key, BitVector(0, 2)), key.m)
    narrow = basis_state(key.m - 1, 0)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            lt.register_analysis(key, DESK, reg, "bogus")
        with pytest.raises(PreconditionError):
            lt.register_analysis(key, DESK, narrow, lt.ORACLE)
    assert reg.cache == {} and narrow.cache == {}
