"""Verification drawn from each register's one analysis, against the per-call path.

The reference below is the earlier verifier: every call runs the span test
and a full ``sample_function`` on its register, keeps nothing, and every
bolt gets new register objects.  With it patched in, each game, min-entropy
probe, collapse run and verify must give the same results, draw for draw.
"""
import functools
import gc
import json
import math
import weakref
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np
import pytest

from boltlab import jsonio, qsim
from boltlab import lightning as lt
from boltlab.attacks import is_nonaffine
from boltlab.cli import main
from boltlab.errors import PreconditionError
from boltlab.extraction import circuit_span_analysis
from boltlab.gf2 import BitVector
from boltlab.mqhash import digest_table, eval_digest, keygen, preimage_indices
from boltlab.qsim import StateVector
from oracles import (
    DESK, fresh_psi_state, from_amplitudes, measure_register, micro, sample_function,
)

MICRO = micro()
SEEDS = (0, 3, 7)


def _desk_key(seed=7):
    return keygen(2, 12, np.random.default_rng(seed))


def _micro_key(seed=7):
    return keygen(1, 4, np.random.default_rng(seed))


# -- the per-call reference ---------------------------------------------------


@dataclass(frozen=True)
class _Result:
    accepted: bool
    reject_kind: Optional[str] = None
    serial: Optional[BitVector] = None
    post: Optional[StateVector] = None


def _span_test(key, params, register, strategy, start):
    if not 0 <= start <= register.num_qubits - key.m:
        raise PreconditionError("register does not match the key's input length")
    if strategy == lt.ORACLE:
        prob, post = lt.span_projection(key, register, start)
        stages = [(prob, lt.SPAN_REJECT)]
    elif strategy == lt.CIRCUIT:
        if register.num_qubits != key.m:
            raise PreconditionError("the circuit strategy verifies single m-qubit registers only")
        a = circuit_span_analysis(key, params.u, register)
        stages = [(a.rank_ok_probability, lt.RANK_DEFICIENT), (a.zero_probability, lt.SPAN_REJECT)]
        post = a.post_state
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}")
    return [(min(p, 1.0), kind) for p, kind in stages], post


def _mini_verify(key, params, register, rng, strategy=lt.ORACLE, start=0):
    stages, post = _span_test(key, params, register, strategy, start)
    for prob, kind in stages:
        if rng.random() >= prob:
            return _Result(False, reject_kind=kind)
    tab = digest_table(key)
    if register.num_qubits != key.m:
        idx = np.arange(1 << register.num_qubits, dtype=np.int64)
        tab = tab[(idx >> start) & ((1 << key.m) - 1)]
    y, _, post = sample_function(post, tab, rng)
    return _Result(True, serial=BitVector(y, key.n), post=post)


def _mini_verify_acceptance(key, params, register, strategy=lt.ORACLE):
    return math.prod(p for p, _ in _span_test(key, params, register, strategy, 0)[0])


def _cheat_duplicate_storm(key, params, rng):
    bolt = lt.gen_bolt(key, params, rng)
    regs = tuple(StateVector(r.num_qubits, r.amps.copy()) for r in bolt.registers)
    return bolt, lt.Bolt(bolt.serial, bolt.mode, regs, bolt.m, bolt.k)


def _collapsing_experiment(key, params, b, rng):
    x = BitVector.random(key.m, rng)
    if b == 0:
        state = lt.psi_state(key, eval_digest(key, x))
    else:
        state = qsim.basis_state(key.m, x.bits)
    prob, _ = lt.span_projection(key, state)
    return 1 if rng.random() < prob else 0


def _uniqueness_game(key, params, storm, trials, rng, strategy=lt.ORACLE):
    accepts = witness = 0
    serial_counts = {}
    for trng in rng.spawn(trials):
        b0, b1 = storm(key, params, trng)
        r0 = lt.full_verify(key, params, b0, trng, strategy=strategy)
        r1 = lt.full_verify(key, params, b1, trng, strategy=strategy)
        if not (r0.accepted and r1.accepted and r0.serial == r1.serial):
            continue
        accepts += 1
        shex = r0.serial.to_hex()
        serial_counts[shex] = serial_counts.get(shex, 0) + 1
        points = []
        for res in (r0, r1):
            for reg in res.bolt.registers:
                value, _, _ = measure_register(reg, list(range(reg.num_qubits)), trng)
                points.append(BitVector(value, reg.num_qubits))
        distinct = len({p.bits for p in points}) == len(points)
        same_digest = len({eval_digest(key, p).bits for p in points}) == 1
        if distinct and same_digest and is_nonaffine(points):
            witness += 1
    return lt.GameStats(trials, accepts, witness, accepts / trials if trials else 0.0,
                        (witness / accepts) if accepts else None, serial_counts)


@functools.lru_cache(maxsize=None)
def _superposed_bolt(key, params):
    """One register spread over every nonempty fiber, k+1 times: in span, so the
    oracle accepts it, and its serial draws are random, so each of them counts."""
    rng = np.random.default_rng(key.m)
    ys = np.flatnonzero(np.bincount(digest_table(key)))
    coeffs = rng.normal(size=ys.size) + 1j * rng.normal(size=ys.size)
    amps = sum(c * lt.psi_state(key, BitVector(int(y), key.n)).amps for y, c in zip(ys, coeffs))
    reg = from_amplitudes(key.m, amps, normalize=True)
    serial = BitVector(int(ys[0]), key.n)
    return lt.Bolt(serial, lt.MODE_PRODUCT, (reg,) * (params.k + 1), key.m, params.k)


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
        monkeypatch.setattr(lt, "psi_state", fresh_psi_state)
        monkeypatch.setattr(lt, "mini_verify", _mini_verify)
        monkeypatch.setattr(lt, "mini_verify_acceptance", _mini_verify_acceptance)
        monkeypatch.setattr(lt, "collapsing_experiment", _collapsing_experiment)
        monkeypatch.setattr(lt, "uniqueness_game", _uniqueness_game)
        monkeypatch.setitem(lt.BUILTIN_STORMS, "cheat-duplicate", _cheat_duplicate_storm)
        monkeypatch.setattr(lt, "cheat_duplicate_storm", _cheat_duplicate_storm)

    return install


def _same_bolt(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.serial == b.serial and len(a.registers) == len(b.registers)
        for ra, rb in zip(a.registers, b.registers):
            assert np.array_equal(ra.amps, rb.amps)


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
                out.append((res.outcome, res.serial, res.bolt, exact))
        return out

    fast = runs()
    reference()
    slow = runs()
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a[0] == b[0] and a[1] == b[1] and a[3] == b[3]
        _same_bolt(a[2], b[2])


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


# -- one analysis per distinct register -----------------------------------------


@pytest.fixture
def analyses(monkeypatch):
    """Count the span projections and circuit analyses lightning runs, by register."""
    seen = []
    projection, circuit = lt.span_projection, lt.circuit_span_analysis

    def counted_projection(key, state, start=0):
        seen.append(state)
        return projection(key, state, start)

    def counted_circuit(key, u, state):
        seen.append(state)
        return circuit(key, u, state)

    monkeypatch.setattr(lt, "span_projection", counted_projection)
    monkeypatch.setattr(lt, "circuit_span_analysis", counted_circuit)
    return seen


@pytest.mark.parametrize("strategy", [lt.ORACLE, lt.CIRCUIT])
@pytest.mark.parametrize("storm", sorted(lt.BUILTIN_STORMS))
def test_each_distinct_register_is_analysed_once(storm, strategy, analyses):
    key = _desk_key()
    stats = lt.uniqueness_game(key, DESK, lt.BUILTIN_STORMS[storm], 25,
                               np.random.default_rng(1), strategy)
    assert len({id(s) for s in analyses}) == len(analyses)
    if storm == "classical":  # a new basis-state register per trial, shared by both bolts
        assert len(analyses) == stats.trials == 25
    else:  # psi_y is kept on the key: one register, and one analysis, per digest in the run
        assert len({s.amps.tobytes() for s in analyses}) == len(analyses) <= 4


def test_minentropy_and_collapse_analyse_each_register_once(analyses):
    key = _desk_key()
    rep = lt.minentropy_probe(key, DESK, lt.gen_bolt, 200, np.random.default_rng(2))
    # one analysis per digest drawn: the k+1 registers of a bolt are one kept psi_y
    assert rep.accepted == 200 and len(analyses) == len(rep.serial_counts) == 4
    analyses.clear()
    rng = np.random.default_rng(3)
    assert sum(lt.collapsing_experiment(key, DESK, 0, rng) for _ in range(100)) == 100
    for _ in range(50):
        lt.collapsing_experiment(key, DESK, 1, rng)
    assert len(analyses) == 50  # the b=1 basis states; every psi_y was analysed above


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
        lt.psi_state(key, y), lt.psi_state(key, z), lt.psi_state(key, y)), 12, 2))
    a, b, c = lt.bolt_from_json(doc).registers
    assert a is c and a is not b and not np.array_equal(a.amps, b.amps)


def test_bolt_to_json_dumps_each_distinct_register_once():
    key = _desk_key()
    y, z = (BitVector(int(v), 2) for v in np.flatnonzero(np.bincount(digest_table(key)))[:2])
    bolt = lt.gen_bolt(key, DESK, np.random.default_rng(5))
    mixed = lt.Bolt(y, lt.MODE_PRODUCT, (
        lt.psi_state(key, y), lt.psi_state(key, z), fresh_psi_state(key, y)), 12, 2)
    for b, distinct in ((bolt, 1), (mixed, 3)):
        with mock.patch.object(qsim, "state_dump", wraps=qsim.state_dump) as dumps:
            doc = lt.bolt_to_json(b)
        assert dumps.call_count == distinct
        assert doc["registers"] == [qsim.state_dump(r) for r in b.registers]


class _CountedEntries(list):
    compared = 0

    def __eq__(self, other):
        _CountedEntries.compared += 1
        return list.__eq__(self, other)

    __hash__ = None


def test_bolt_from_json_compares_each_register_with_the_first_alone(tmp_path, capsys):
    # registers that differ only in their last entry: comparing every pair would
    # walk the whole file once per register
    _CountedEntries.compared = 0
    key = _micro_key()
    doc = lt.bolt_to_json(lt.gen_bolt(key, MICRO, np.random.default_rng(1)))
    first = doc["registers"][0]
    *head, (last, re, im) = first["entries"]
    turns = [complex(re, im) * np.exp(1j * (i + 1) / 1000) for i in range(300)]  # same norm
    docs = [{**first, "entries": _CountedEntries(head + [[last, z.real, z.imag]])} for z in turns]
    bolt = lt.bolt_from_json({**doc, "registers": docs + docs[:1], "k": 300})
    assert _CountedEntries.compared == 299  # once for each register but the first's object
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


# -- lazy post-states and memory ------------------------------------------------------


@pytest.fixture
def collapses(monkeypatch):
    built = []
    collapse = qsim.collapse

    def counted(state, values, v, mass):
        built.append(v)
        return collapse(state, values, v, mass)

    monkeypatch.setattr(qsim, "collapse", counted)
    return built


def test_minentropy_builds_no_collapsed_post_state(collapses):
    key = _desk_key()
    for producer in (lt.gen_bolt, lt.constant_serial_producer):
        rep = lt.minentropy_probe(key, DESK, producer, 100, np.random.default_rng(6))
        assert rep.accepted == 100
    assert collapses == []


def test_game_builds_each_collapsed_post_state_once(collapses):
    key = _desk_key()
    stats = lt.uniqueness_game(key, DESK, lt.cheat_duplicate_storm, 30, np.random.default_rng(8))
    # both bolts hold one register, kept per digest with its collapsed post-state
    assert stats.accepts == 30 and len(collapses) == len(stats.serial_counts) == 4


def test_analysis_dies_with_its_register():
    key = _desk_key()
    reg = qsim.uniform_over(preimage_indices(key, BitVector(1, 2)), key.m)
    res = lt.mini_verify(key, DESK, reg, np.random.default_rng(9))
    analysis = lt.register_analysis(key, DESK, reg)
    assert res.accepted and res.analysis is analysis
    held = [reg, analysis, analysis.post, analysis.post.amps, analysis.table, *analysis.cdf,
            res.post, *res.post.cdf]
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
    reg = qsim.uniform_over(preimage_indices(key, BitVector(0, 2)), key.m)
    oracle = lt.register_analysis(key, DESK, reg, lt.ORACLE)
    circuit = lt.register_analysis(key, DESK, reg, lt.CIRCUIT)
    assert oracle is not circuit
    assert len(oracle.stages) == 1 and len(circuit.stages) == 2
    assert lt.register_analysis(key, DESK, reg, lt.CIRCUIT) is circuit
    assert lt.mini_verify_acceptance(key, DESK, reg, lt.CIRCUIT) == math.prod(
        p for p, _ in circuit.stages)


def test_bad_strategy_and_start_are_not_cached():
    key = _desk_key()
    reg = qsim.uniform_over(preimage_indices(key, BitVector(0, 2)), key.m)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            lt.register_analysis(key, DESK, reg, "bogus")
        with pytest.raises(PreconditionError):
            lt.register_analysis(key, DESK, reg, lt.ORACLE, start=1)
    assert reg.cache == {}
