import argparse
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boltlab import cli, jsonio, qsim
from boltlab.cli import main
from boltlab.lightning import bolt_from_json, bolt_to_json
from oracles import basis_state, from_amplitudes


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hash_keygen_and_eval(tmp_path, capsys):
    keyfile = tmp_path / "key.json"
    code, _ = _run(capsys, "hash", "keygen", "--n", "2", "--m", "12", "--seed", "3",
                   "--out", str(keyfile))
    assert code == 0
    doc = json.loads(keyfile.read_text())
    assert doc["n"] == 2 and doc["m"] == 12 and len(doc["mats"]) == 2

    code, out = _run(capsys, "hash", "eval", "--key", str(keyfile), "--x", "0000")
    assert code == 0
    rep = json.loads(out)
    assert rep["digest"] == "00"  # quadratic form at zero


def test_attack_collide_report(capsys):
    code, out = _run(capsys, "attack", "collide", "--n", "2", "--m", "12",
                     "--key-seed", "5", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"points", "delta", "digest", "tries", "rank_history"}
    assert len(rep["points"]) == 2


def test_attack_affine_space_report(capsys):
    code, out = _run(capsys, "attack", "affine-space", "--n", "2", "--m", "12",
                     "--key-seed", "5", "--r", "3", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 3
    assert len(rep["points"]) == 8


def test_lightning_game_reproducible(capsys):
    args = ["lightning", "game", "--n", "2", "--m", "12", "--key-seed", "2",
            "--storm", "classical", "--trials", "50", "--seed", "7"]
    code1, out1 = _run(capsys, *args)
    code2, out2 = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    rep = json.loads(out1)
    assert rep["trials"] == 50
    assert set(rep["empirical_rates"]) == {"accept", "witness_given_accept"}


def test_lightning_gen_verify_round_trip(tmp_path, capsys):
    keyfile = tmp_path / "key.json"
    boltfile = tmp_path / "bolt.json"
    _run(capsys, "lightning", "setup", "--n", "2", "--m", "12", "--seed", "4",
         "--out", str(keyfile))
    code, _ = _run(capsys, "lightning", "gen", "--key", str(keyfile), "--seed", "9",
                   "--out", str(boltfile))
    assert code == 0
    code, out = _run(capsys, "lightning", "verify", "--key", str(keyfile),
                     "--bolt", str(boltfile), "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["accepted"] is True
    assert rep["serial_match"] is True
    assert rep["exact_acceptance_probability"] == pytest.approx(1.0, abs=1e-9)


def test_lightning_collapse_report(capsys):
    code, out = _run(capsys, "lightning", "collapse", "--n", "2", "--m", "12",
                     "--key-seed", "3", "--trials", "10", "--seed", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["p_accept_b0"] == 1.0
    assert rep["advantage"] >= 0.999
    assert rep["sampled"]["b0_ones"] == 10


def test_money_counterfeit_report(capsys):
    code, out = _run(capsys, "money", "counterfeit", "--n", "4", "--adversary",
                     "measure-copy", "--trials", "200", "--seed", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_expected"] == pytest.approx(2**-4)
    assert rep["mean_f2"] == pytest.approx(2**-4, abs=1e-12)
    assert len(rep["wilson_95"]) == 2


def test_trial_loops_past_one_spawn_block_keep_their_reports(capsys):
    # counterfeit draws its 2,500 trials from the run's generator in three blocks
    code, out = _run(capsys, "money", "counterfeit", "--n", "4", "--adversary",
                     "measure-copy", "--trials", "2500", "--seed", "11")
    assert code == 0 and out == (
        '{"n":4,"adversary":"measure-copy","trials":2500,"successes":151,"success_rate":0.0604,'
        '"wilson_95":[0.05171896454446066,0.07042992700905848],"mean_f2":0.0625,'
        '"per_trial_f2_sd":0.0,"exact_expected":0.0625}\n')
    assert _run(capsys, "money", "counterfeit", "--n", "4", "--adversary", "measure-copy",
                "--trials", "2500", "--seed", "11") == (code, out)  # a same-seed rerun


def test_each_command_builds_one_generator_from_its_seed(tmp_path, capsys, monkeypatch):
    key, bolt, note, proof = (str(tmp_path / f) for f in ("key.json", "bolt.json", "note.json",
                                                           "proof.json"))
    _run(capsys, "lightning", "setup", "--seed", "7", "--out", key)
    _run(capsys, "lightning", "gen", "--key", key, "--seed", "9", "--out", bolt)
    _run(capsys, "money", "gen", "--n", "4", "--seed", "2", "--out", note)
    seeds = []
    rng = cli._rng
    monkeypatch.setattr(cli, "_rng", lambda seed: seeds.append(seed) or rng(seed))
    for argv in [["attack", "collide"], ["attack", "multicollide", "--k", "2"],
                 ["attack", "affine-space", "--r", "2"], ["lightning", "gen"],
                 ["lightning", "verify", "--bolt", bolt],
                 ["lightning", "verify", "--bolt", bolt, "--strategy", "circuit"],
                 ["lightning", "game", "--storm", "cheat-duplicate", "--trials", "3"],
                 ["lightning", "collapse", "--trials", "3"],
                 ["lightning", "minentropy", "--trials", "3"],
                 ["randomness", "prove", "--proof", proof],
                 ["randomness", "verify", "--proof", bolt], ["hash", "eval", "--x", "0f00"]]:
        seeds.clear()
        assert _run(capsys, *argv, "--key", key, "--seed", "5")[0] == 0, argv
        assert seeds == ([] if argv[0] == "hash" else [5]), argv  # hash eval draws nothing
    seeds.clear()
    assert _run(capsys, "money", "verify", "--note", note, "--seed", "5")[0] == 0
    assert seeds == [5]


def test_bound_subspace_example_report(capsys):
    code, out = _run(capsys, "bound", "subspace-example", "--n", "4", "--q", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["subspace_count"] == 35
    assert rep["lambda1"] == pytest.approx(0.1, abs=1e-9)
    assert "lambda1_ok" in rep and "f2_ok" in rep


def test_bound_cloning_from_problem_file(tmp_path, capsys):
    states = [basis_state(2, i) for i in range(4)]
    doc = {
        "states": [qsim.state_dump(s) for s in states],
        "prior": [0.25, 0.25, 0.25, 0.25],
    }
    problem = tmp_path / "problem.json"
    problem.write_text(jsonio.dumps(doc))
    code, out = _run(capsys, "bound", "cloning", "--problem", str(problem),
                     "--copies", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["f2_bound_raw"] == pytest.approx(1.0)


def test_randomness_prove_verify_round_trip(tmp_path, capsys):
    keyfile = tmp_path / "key.json"
    proof = tmp_path / "proof.json"
    _run(capsys, "lightning", "setup", "--n", "2", "--m", "12", "--seed", "6",
         "--out", str(keyfile))
    code, out = _run(capsys, "randomness", "prove", "--key", str(keyfile),
                     "--seed", "3", "--proof", str(proof))
    assert code == 0
    serial = json.loads(out)["serial"]
    code, out = _run(capsys, "randomness", "verify", "--key", str(keyfile),
                     "--proof", str(proof), "--serial", serial, "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["accepted"] is True and rep["serial_match"] is True



def test_randomness_verify_reports_a_joint_proof_as_lightning_verify_does(tmp_path, capsys):
    # randomness verify refused a joint-micro proof (precondition_violated) that
    # lightning verify accepts with a null exact probability
    keyfile, proof = str(tmp_path / "key.json"), str(tmp_path / "joint.json")
    _run(capsys, "lightning", "setup", "--n", "1", "--m", "4", "--k", "1", "--u", "2",
         "--seed", "7", "--out", keyfile)
    _run(capsys, "lightning", "gen", "--key", keyfile, "--k", "1", "--u", "2",
         "--mode", "joint-micro", "--seed", "6", "--out", proof)
    common = ["--key", keyfile, "--k", "1", "--u", "2", "--seed", "3"]
    code, out = _run(capsys, "randomness", "verify", *common, "--proof", proof)
    assert code == 0
    rep = json.loads(out)
    code, out = _run(capsys, "lightning", "verify", *common, "--bolt", proof)
    assert code == 0
    lightning_rep = json.loads(out)
    assert lightning_rep.pop("outcome") == "accepted"
    assert rep == lightning_rep and rep["exact_acceptance_probability"] is None


def test_randomness_verify_compares_serials_as_digests(tmp_path, capsys):
    # n = 4 digests, so this proof's serial 0f has a hex letter in it
    keyfile, proof = str(tmp_path / "key.json"), str(tmp_path / "proof.json")
    _run(capsys, "lightning", "setup", "--n", "4", "--m", "20", "--u", "4", "--seed", "1",
         "--out", keyfile)
    _run(capsys, "randomness", "prove", "--key", keyfile, "--u", "4", "--seed", "2",
         "--proof", proof)
    verify = ["randomness", "verify", "--key", keyfile, "--u", "4", "--proof", proof]
    for claimed, canonical, match in [("0f", "0f", True), ("0F", "0f", True), ("0e", "0e", False)]:
        code, out = _run(capsys, *verify, "--serial", claimed)
        assert code == 0
        rep = json.loads(out)
        assert rep["serial"] == "0f" and rep["claimed_serial"] == canonical
        assert rep["serial_match"] is match
    with pytest.raises(SystemExit) as exc:
        main(verify + ["--serial", "zz"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, out = _run(capsys, *verify, "--serial", "1f")  # a bit beyond the key's n
    assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated"


def test_hex_of_the_wrong_width_is_refused(tmp_path, capsys):
    # (m + 7) // 8 = 2 bytes for an input and (n + 7) // 8 = 1 byte for a serial;
    # extra zero bytes used to be read as the same value
    key, bolt, note = (str(tmp_path / f) for f in ("key.json", "bolt.json", "note.json"))
    _run(capsys, "lightning", "setup", "--seed", "7", "--out", key)
    _run(capsys, "lightning", "gen", "--key", key, "--seed", "9", "--out", bolt)
    _run(capsys, "money", "gen", "--n", "10", "--seed", "2", "--out", note)
    serial = json.loads(open(bolt).read())["serial"]
    row = json.loads(open(note).read())["subspace"][0]
    flags = [(["hash", "eval", "--key", key, "--x", x], x == "0f00")
             for x in ("0f0000", "0f", "0f00")]
    flags += [(["randomness", "verify", "--key", key, "--proof", bolt, "--serial", s],
               s == serial) for s in (serial + "00", serial)]
    for argv, ok in flags:
        code, out = _run(capsys, *argv)
        assert code == (0 if ok else 1), (argv, out)
        assert ok or json.loads(out)["error_kind"] == "precondition_violated"
    bolt_doc, note_doc = json.loads(open(bolt).read()), json.loads(open(note).read())
    files = [(bolt, {**bolt_doc, "serial": s}, ["lightning", "verify", "--key", key,
                                               "--bolt", bolt], s == serial)
             for s in (serial + "00", "", serial)]
    files += [(note, {**note_doc, "subspace": [r] + note_doc["subspace"][1:]},
               ["money", "verify", "--note", note], r == row)
              for r in (row + "00", row[:2], row)]
    for path, doc, argv, ok in files:
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out = _run(capsys, *argv)
        assert code == (0 if ok else 1), (doc, out)
        assert ok or json.loads(out)["error_kind"] == "precondition_violated"


def test_lightning_setup_refuses_parameters_no_command_accepts(tmp_path, capsys):
    key = tmp_path / "key.json"
    for argv in (["--u", "100", "--k", "0"], ["--k", "0"], ["--u", "100"], ["--u", "1"],
                 ["--n", "3", "--m", "3"]):
        code, out = _run(capsys, "lightning", "setup", *argv, "--out", str(key))
        assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated", argv
        assert not key.exists()
    for argv, params in [([], {"n": 2, "m": 12, "k": 2, "u": 3}),
                         (["--n", "1", "--m", "4", "--k", "1", "--u", "2"],
                          {"n": 1, "m": 4, "k": 1, "u": 2})]:
        code, _ = _run(capsys, "lightning", "setup", *argv, "--out", str(key))
        assert code == 0 and json.loads(key.read_text())["params"] == params


def test_lightning_setup_refuses_m_above_the_enumeration_cap(tmp_path, capsys):
    # every lightning command refuses such a key when it builds the digest table
    key = tmp_path / "key.json"
    code, out = _run(capsys, "lightning", "setup", "--n", "2", "--m", "23", "--out", str(key))
    assert code == 1 and not key.exists()
    assert out == _run(capsys, "lightning", "gen", "--n", "2", "--m", "23")[1]
    assert json.loads(out) == {"error_kind": "enumeration_cap_exceeded",
                               "detail": "m=23 exceeds enumeration cap 22"}
    code, _ = _run(capsys, "lightning", "setup", "--n", "2", "--m", "22", "--out", str(key))
    assert code == 0 and json.loads(key.read_text())["params"]["m"] == 22


def test_readme_bolt_acceptance_is_clipped_at_one(tmp_path, capsys):
    # the desk bolt of the README: its three registers each project with a
    # probability a few ulps above 1, and unclipped their product is 1.0000000000000013
    keyfile, bolt, proof = (str(tmp_path / f) for f in ("key.json", "bolt.json", "proof.json"))
    _run(capsys, "lightning", "setup", "--n", "2", "--m", "12", "--seed", "7", "--out", keyfile)
    _run(capsys, "lightning", "gen", "--key", keyfile, "--seed", "9", "--out", bolt)
    _run(capsys, "randomness", "prove", "--key", keyfile, "--seed", "3", "--proof", proof)
    for argv in (("lightning", "verify", "--key", keyfile, "--bolt", bolt),
                 ("randomness", "verify", "--key", keyfile, "--proof", proof)):
        code, out = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["exact_acceptance_probability"] == 1.0


def test_randomness_verify_detects_tampering(tmp_path, capsys):
    keyfile = tmp_path / "key.json"
    proof = tmp_path / "proof.json"
    _run(capsys, "lightning", "setup", "--n", "2", "--m", "12", "--seed", "6",
         "--out", str(keyfile))
    _run(capsys, "randomness", "prove", "--key", str(keyfile), "--seed", "3",
         "--proof", str(proof))
    bolt = bolt_from_json(json.loads(proof.read_text()))
    amps = bolt.registers[0].amps.copy()
    amps[np.flatnonzero(np.abs(amps) > 0)[0]] = 0.0  # zero one amplitude
    tampered = bolt.registers[:2] + (
        from_amplitudes(bolt.registers[0].num_qubits, amps, normalize=True),
    )
    import dataclasses

    bolt = dataclasses.replace(bolt, registers=tampered)
    proof.write_text(jsonio.dumps(bolt_to_json(bolt)))
    code, out = _run(capsys, "randomness", "verify", "--key", str(keyfile),
                     "--proof", str(proof), "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_acceptance_probability"] < 1.0


def test_lightning_minentropy_report(capsys):
    code, out = _run(capsys, "lightning", "minentropy", "--n", "2", "--m", "12",
                     "--key-seed", "2", "--storm", "honest", "--trials", "100",
                     "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["accepted"] == 100
    assert abs(rep["estimate_bits"] - rep["exact_digest_minentropy"]) < 1.5


def test_money_gen_verify_round_trip(tmp_path, capsys):
    notefile = tmp_path / "note.json"
    code, _ = _run(capsys, "money", "gen", "--n", "6", "--seed", "4",
                   "--out", str(notefile))
    assert code == 0
    doc = json.loads(notefile.read_text())
    assert len(doc["subspace"]) == 3
    code, out = _run(capsys, "money", "verify", "--note", str(notefile), "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["exact_acceptance_probability"] == pytest.approx(1.0, abs=1e-12)
    assert rep["projective_probability"] == pytest.approx(1.0, abs=1e-12)
    assert rep["sampled_accept"] is True


def test_bound_conversion_from_problem_file(tmp_path, capsys):
    fam = [basis_state(2, i) for i in range(3)]
    doc = {
        "family1": [qsim.state_dump(s) for s in fam],
        "family2": [qsim.state_dump(s) for s in fam],
        "prior": [1 / 3, 1 / 3, 1 / 3],
        "d": 4,
    }
    problem = tmp_path / "conv.json"
    problem.write_text(jsonio.dumps(doc))
    code, out = _run(capsys, "bound", "conversion", "--problem", str(problem))
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda1"] == pytest.approx(1 / 3, abs=1e-9)
    assert rep["f2_bound_raw"] == pytest.approx(4 / 3, abs=1e-9)


def test_bound_conversion_refuses_a_d_other_than_the_states_size(tmp_path, capsys):
    # a unitary takes |0>, |1> to any orthonormal pair, so F^2 = 1 is reachable ("d": 1 said 0.5)
    fam = [qsim.state_dump(basis_state(1, i)) for i in range(2)]
    problem = tmp_path / "conv.json"
    for d, kind in ((2, None), (1, "bad_input"), (4, "bad_input"), ("abc", "bad_input")):
        doc = {"family1": fam, "family2": fam, "prior": [0.5, 0.5], "d": d}
        problem.write_text(jsonio.dumps(doc))
        code, out = _run(capsys, "bound", "conversion", "--problem", str(problem))
        assert (code, json.loads(out).get("error_kind")) == (1 if kind else 0, kind), d
        assert kind or json.loads(out)["f2_bound"] == 1.0


def test_hash_eval_nonzero_input(tmp_path, capsys):
    keyfile = tmp_path / "key.json"
    _run(capsys, "hash", "keygen", "--n", "2", "--m", "12", "--seed", "3",
         "--out", str(keyfile))
    code, out = _run(capsys, "hash", "eval", "--key", str(keyfile), "--x", "0f00")
    assert code == 0
    rep = json.loads(out)
    assert rep["x"] == "0f00"
    assert rep["digest_bits"] == 2


def test_domain_error_exit_code(capsys, tmp_path):
    code, out = _run(capsys, "hash", "keygen", "--n", "5", "--m", "3", "--seed", "0")
    assert code == 1
    rep = json.loads(out)
    assert rep["error_kind"] == "precondition_violated"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lightning", "bogus"])
    assert exc.value.code == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "m": 12, "key_seed": 2}))
    code, out = _run(capsys, "lightning", "collapse", "--config", str(cfg),
                     "--trials", "0", "--seed", "1")
    assert code == 0
    assert json.loads(out)["advantage"] >= 0.999


def test_config_names_of_other_subcommands_pass_through(tmp_path, capsys):
    # one config file can serve several commands: --trials and --adversary
    # belong to other subcommands than bound subspace-example
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "adversary": "fixed-guess", "q": 2}))
    base = ["bound", "subspace-example", "--n", "2"]
    code, out = _run(capsys, *base, "--config", str(cfg))
    assert code == 0
    assert out == _run(capsys, *base)[1]


def test_report_schema_golden(capsys):
    # schema stability: key order and field set are pinned
    _, out = _run(capsys, "lightning", "game", "--n", "2", "--m", "12",
                  "--key-seed", "2", "--storm", "classical", "--trials", "5",
                  "--seed", "7")
    assert list(json.loads(out)) == [
        "storm", "trials", "accepts", "witness_count", "empirical_rates",
        "serial_counts",
    ]


def test_float_serialization_shortest_round_trip():
    assert jsonio.dumps({"x": 0.1}) == '{"x":0.1}'
    assert json.loads(jsonio.dumps({"x": 1 / 3}))["x"] == 1 / 3


def test_config_file_supplies_flags_that_have_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "m": 12, "key_seed": 2, "trials": 3}))
    base = ["lightning", "game", "--storm", "classical", "--seed", "7"]
    code, out = _run(capsys, *base, "--config", str(cfg))
    assert code == 0 and json.loads(out)["trials"] == 3
    _, explicit = _run(capsys, *base, "--n", "2", "--m", "12", "--key-seed", "2",
                       "--trials", "3")
    assert out == explicit  # key_seed came from the file too
    code, out = _run(capsys, *base, "--config", str(cfg), "--trials", "5")
    assert code == 0 and json.loads(out)["trials"] == 5  # explicit flags win


def _bad_input_cases(tmp_path):
    key = tmp_path / "key.json"
    main(["lightning", "setup", "--n", "2", "--m", "12", "--seed", "7", "--out", str(key)])
    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"serial": "01", ')
    note = tmp_path / "note.json"
    main(["money", "gen", "--n", "4", "--seed", "2", "--out", str(note)])
    doc = json.loads(note.read_text())
    del doc["subspace"]
    note.write_text(json.dumps(doc))
    listdoc = tmp_path / "list.json"
    listdoc.write_text("[1, 2]")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"states": [{"num_qubits": 40, "entries": []}], "prior": [1]}))
    short = tmp_path / "short.json"
    states = [qsim.state_dump(basis_state(2, i)) for i in range(3)]
    short.write_text(jsonio.dumps({"states": states, "prior": [0.5, 0.5]}))
    nan_state = tmp_path / "nan_state.json"
    nan_entries = [["0", float("nan"), 0.0], ["1", 0.5, 0.0]]
    nan_state.write_text(json.dumps({"states": [{"num_qubits": 1, "entries": nan_entries}],
                                     "prior": [1.0]}))
    nan_prior = tmp_path / "nan_prior.json"
    nan_prior.write_text(jsonio.dumps({"states": states, "prior": [float("nan"), 0.5, 0.5]}))
    keydoc = json.loads(key.read_text())
    mat0, mat1 = keydoc["mats"]
    key_short, key_long = tmp_path / "key_short.json", tmp_path / "key_long.json"
    key_short.write_text(json.dumps({**keydoc, "mats": [mat0[:-2], mat1]}))  # one byte short
    key_long.write_text(json.dumps({**keydoc, "mats": [mat0 + "00", mat1]}))  # one byte long
    bolt = tmp_path / "bolt.json"
    main(["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)])
    sizes = {}
    for q in (11, 13):  # registers narrower and wider than the key's m = 12
        doc = json.loads(bolt.read_text())
        doc["registers"] = [{"num_qubits": q, "entries": [["0", 1.0, 0.0]]}] * 3
        sizes[q] = tmp_path / f"bolt_q{q}.json"
        sizes[q].write_text(json.dumps(doc))
    foo = tmp_path / "bolt_foo.json"
    foo.write_text(json.dumps({**json.loads(bolt.read_text()), "mode": "foo"}))
    repeat = {"num_qubits": 2, "entries": [["0", 0.6, 0.0], ["0", 0.8, 0.0], ["1", 0.6, 0.0]]}
    repeat_states = tmp_path / "repeat_states.json"
    repeat_states.write_text(json.dumps({"states": [repeat], "prior": [1.0]}))
    repeat_note = tmp_path / "repeat_note.json"
    repeat_note.write_text(json.dumps({"n": 2, "subspace": ["01"], "state": repeat}))
    unfit_notes = []  # odd n, too few rows, dependent rows: no note of the scheme
    for n, rows in [(3, ["01"]), (4, ["01"]), (4, ["01", "01"])]:
        unfit_notes.append(tmp_path / f"unfit_note_{n}_{len(rows)}.json")
        unfit_notes[-1].write_text(json.dumps({"n": n, "subspace": rows, "state": {
            "num_qubits": n, "entries": [["0", 1.0, 0.0]]}}))
    configs = {}
    for name, cfg in [("list", {"trials": [1]}), ("float", {"trials": 2.5}),
                      ("flag", {"analytic": "yes"}), ("typo", {"trails": 3})]:
        configs[name] = tmp_path / f"cfg_{name}.json"
        configs[name].write_text(json.dumps(cfg))
    game = ["lightning", "game", "--key", str(key), "--storm", "classical", "--config"]
    verify = ["lightning", "verify", "--key", str(key), "--bolt"]
    return [
        (verify + [str(tmp_path / "missing.json")], "bad_input"),
        (verify + [str(garbled)], "bad_input"),
        (verify + [str(listdoc)], "bad_input"),
        (["money", "verify", "--note", str(note)], "bad_input"),
        (["hash", "eval", "--key", str(garbled), "--x", "00"], "bad_input"),
        (["bound", "cloning", "--problem", str(listdoc)], "bad_input"),
        (["bound", "conversion", "--problem", str(listdoc)], "bad_input"),
        (["randomness", "verify", "--key", str(key), "--proof", str(note)], "bad_input"),
        (["lightning", "collapse", "--config", str(listdoc)], "bad_input"),
        (["lightning", "collapse", "--config", str(garbled)], "bad_input"),
        (["bound", "cloning", "--problem", str(huge)], "qubit_cap_exceeded"),
        (["bound", "cloning", "--problem", str(short)], "dimension_mismatch"),
        (["bound", "cloning", "--problem", str(nan_state)], "precondition_violated"),
        (["bound", "cloning", "--problem", str(nan_prior)], "precondition_violated"),
        (["hash", "eval", "--key", str(key_short), "--x", "00"], "precondition_violated"),
        (["hash", "eval", "--key", str(key_long), "--x", "00"], "precondition_violated"),
        (game + [str(configs["list"])], "bad_input"),
        (game + [str(configs["float"])], "bad_input"),
        (["bound", "subspace-example", "--n", "4", "--config", str(configs["flag"])],
         "bad_input"),
        (verify + [str(bolt), "--config", str(configs["typo"])], "bad_input"),
        (verify + [str(sizes[11])], "precondition_violated"),
        (verify + [str(sizes[13])], "precondition_violated"),
        (verify + [str(foo)], "precondition_violated"),
        (["randomness", "verify", "--key", str(key), "--proof", str(foo)], "precondition_violated"),
        (["bound", "cloning", "--problem", str(repeat_states)], "precondition_violated"),
        (["money", "verify", "--note", str(repeat_note)], "precondition_violated"),
        *((["money", "verify", "--note", str(f)], "precondition_violated") for f in unfit_notes),
        *((["money", "counterfeit", "--n", n, "--trials", "0"], "precondition_violated")
          for n in ("0", "22", "64")),
    ]


@pytest.mark.parametrize("argv", [["bound", "subspace-example", "--n", "6"],
                                  ["money", "counterfeit", "--n", "6"]])
def test_qubit_cap_exceeded_exits_1(argv, monkeypatch, capsys):
    monkeypatch.setenv("LF_QUBIT_CAP", "5")
    code, out = _run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error_kind"] == "qubit_cap_exceeded"


def test_joint_bolts_need_only_their_own_registers_under_the_cap(tmp_path, monkeypatch, capsys):
    # (k+1)m = 18 qubits: the four-step generation's further km = 12 exceeded the cap
    key, bolt = str(tmp_path / "key.json"), str(tmp_path / "bolt.json")
    k = ["--key", key, "--k", "2", "--u", "2"]
    _run(capsys, "lightning", "setup", "--n", "1", "--m", "6", "--k", "2", "--u", "2",
         "--seed", "3", "--out", key)
    assert _run(capsys, "lightning", "gen", *k, "--mode", "joint-micro", "--out", bolt)[0] == 0
    doc = json.loads(open(bolt).read())
    assert doc["registers"][0]["num_qubits"] == 18 and doc["mode"] == "joint-micro"
    code, out = _run(capsys, "lightning", "verify", *k, "--bolt", bolt, "--seed", "1")
    assert code == 0 and json.loads(out)["accepted"]
    for cap, argv in [(None, ["--n", "1", "--m", "9"]), ("17", ["--key", key])]:  # 27 > 26, 18 > 17
        if cap:
            monkeypatch.setenv("LF_QUBIT_CAP", cap)
        code, out = _run(capsys, "lightning", "gen", *argv, "--k", "2", "--u", "2",
                         "--mode", "joint-micro")
        assert code == 1 and json.loads(out)["error_kind"] == "qubit_cap_exceeded"


def test_lightning_commands_refuse_a_key_set_up_with_other_params(tmp_path, capsys):
    key, bolt, proof = (str(tmp_path / f) for f in ("key.json", "bolt.json", "proof.json"))
    _run(capsys, "lightning", "setup", "--n", "2", "--m", "15", "--u", "4", "--out", key)
    setup = json.loads(open(key).read())
    assert setup["params"] == {"n": 2, "m": 15, "k": 2, "u": 4}
    assert _run(capsys, "lightning", "gen", "--key", key, "--u", "4", "--out", bolt)[0] == 0
    assert _run(capsys, "randomness", "prove", "--key", key, "--u", "4", "--proof", proof)[0] == 0
    good = {"verify": ["--bolt", bolt], "game": ["--storm", "classical", "--trials", "2"],
            "collapse": [], "minentropy": ["--trials", "2"], "gen": []}
    for sub, extra in good.items():
        argv = ["lightning", sub, "--key", key, *extra]
        code, out = _run(capsys, *argv, "--u", "4")
        assert code == 0, (sub, out)
        for flags in (["--u", "3"], [], ["--u", "4", "--k", "3"]):
            code, out = _run(capsys, *argv, *flags)
            assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated"
    assert _run(capsys, "randomness", "verify", "--key", key, "--proof", proof, "--u", "4")[0] == 0
    code, out = _run(capsys, "randomness", "verify", "--key", key, "--proof", proof)
    assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated"
    # keys without params, and ad-hoc keys, take any --k and --u the parameters allow
    bare = str(tmp_path / "bare.json")
    _run(capsys, "hash", "keygen", "--n", "2", "--m", "15", "--out", bare)
    for key_opts in (["--key", bare], ["--n", "2", "--m", "15"]):
        for flags in (["--u", "4", "--k", "3"], []):
            assert _run(capsys, "lightning", "gen", *key_opts, *flags)[0] == 0
    # the other commands read only the key
    assert _run(capsys, "hash", "eval", "--key", key, "--x", "0f00")[0] == 0


def test_bad_input_files_are_domain_errors(tmp_path, capsys):
    cases = _bad_input_cases(tmp_path)
    capsys.readouterr()
    for argv, kind in cases:
        code, out = _run(capsys, *argv)
        assert code == 1, argv
        assert out.count("\n") == 1
        rep = json.loads(out)
        assert list(rep) == ["error_kind", "detail"]
        assert rep["error_kind"] == kind, (argv, rep)


def test_bad_arguments_are_errors_not_tracebacks(tmp_path, capsys):
    # each of these ended in a traceback (collapse with negative trials in a
    # report of a negative number of runs): a negative seed or trial count
    # reached numpy, q < 2 divided by zero, a non-hex --x reached
    # bytes.fromhex, an unwritable --out reached open(), a joint bolt
    # without registers was indexed
    for argv, kind in [
        (["lightning", "collapse", "--trials", "1", "--seed", "-1"], "precondition_violated"),
        (["lightning", "game", "--storm", "classical", "--n", "2", "--m", "6", "--u", "2",
          "--trials", "-1"], "precondition_violated"),
        (["money", "counterfeit", "--n", "4", "--trials", "-1"], "precondition_violated"),
        (["lightning", "collapse", "--n", "2", "--m", "6", "--u", "2", "--trials", "-1"],
         "precondition_violated"),
        (["lightning", "minentropy", "--n", "2", "--m", "6", "--u", "2", "--trials", "-2"],
         "precondition_violated"),
        (["bound", "subspace-example", "--n", "4", "--q", "1", "--analytic"],
         "precondition_violated"),
        (["hash", "keygen", "--n", "2", "--m", "4", "--seed", "-3"], "precondition_violated"),
        (["lightning", "setup", "--out", str(tmp_path / "no-dir" / "key.json")], "bad_input"),
        (["lightning", "setup", "--out", str(tmp_path)], "bad_input"),
    ]:
        code, out = _run(capsys, *argv)
        assert code == 1 and out.count("\n") == 1, argv
        assert json.loads(out)["error_kind"] == kind, argv
    key, bolt = tmp_path / "key.json", tmp_path / "bolt.json"
    main(["lightning", "setup", "--n", "1", "--m", "4", "--k", "1", "--u", "2", "--out", str(key)])
    main(["lightning", "gen", "--key", str(key), "--k", "1", "--u", "2", "--mode", "joint-micro",
          "--out", str(bolt)])
    doc = json.loads(bolt.read_text())
    for registers, k in [([], 1), (doc["registers"] * 2, 1), (doc["registers"], 0)]:
        for mode in ("joint-micro", "idealized-product"):
            bolt.write_text(json.dumps({**doc, "registers": registers, "k": k, "mode": mode}))
            code, out = _run(capsys, "lightning", "verify", "--key", str(key), "--k", "1",
                             "--u", "2", "--bolt", str(bolt))
            assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated"
    config = tmp_path / "cfg.json"
    for values in ({"seed": -1}, {"trials": -1}):
        config.write_text(json.dumps(values))
        code, out = _run(capsys, "lightning", "collapse", "--config", str(config))
        assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated"
    with pytest.raises(SystemExit) as exc:
        main(["hash", "eval", "--n", "2", "--m", "4", "--x", "zz"])
    assert exc.value.code == 2


def test_sizes_above_their_limits_are_refused_before_any_work(tmp_path, capsys):
    # each of these once ran into an OverflowError traceback or a loop that did
    # not end (keygen at m = 10**9); a value at the limit is not refused for its size,
    # and a negative one is refused like a too large one
    from boltlab.cli import SIZE_LIMITS

    setup = ["lightning", "setup", "--out", str(tmp_path / "key.json")]
    commands = {
        "n": setup,
        "m": setup,
        "k": setup,
        "q": ["bound", "subspace-example", "--n", "4", "--analytic"],
        "trials": ["money", "counterfeit", "--n", "3"],
        "max_tries": ["attack", "collide", "--n", "2", "--m", "12"],
    }
    assert set(commands) == set(SIZE_LIMITS)
    config = tmp_path / "cfg.json"
    for name, argv in commands.items():
        flag = "--" + name.replace("_", "-")
        for value in (-1, SIZE_LIMITS[name], SIZE_LIMITS[name] + 1, 10**30):
            config.write_text(json.dumps({name: value}))
            for extra in ([flag, str(value)], ["--config", str(config)]):
                code, out = _run(capsys, *argv, *extra)
                refused = f"outside 0..{SIZE_LIMITS[name]}" in out
                assert refused == (not 0 <= value <= SIZE_LIMITS[name]), (argv, extra, out)
                if refused:
                    assert code == 1
                    assert json.loads(out)["error_kind"] == "precondition_violated"


def test_file_sizes_that_disagree_are_refused(tmp_path, capsys):
    # a serial wider than the key's digests reached BitVector.to_hex, which
    # allocates serial_bits / 8 bytes (32 GiB at 2**38); a note whose n is not its
    # state's size was verified at the state's size, and n = 10**30 overflowed
    key, bolt, note = (tmp_path / f for f in ("key.json", "bolt.json", "note.json"))
    main(["lightning", "setup", "--seed", "7", "--out", str(key)])
    main(["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)])
    main(["money", "gen", "--n", "4", "--seed", "2", "--out", str(note)])
    bolt_doc, note_doc = json.loads(bolt.read_text()), json.loads(note.read_text())
    # a k=1 bolt of two registers verified under k=2, and m=99 was never read: both were
    # accepted with exact acceptance probability 1
    bolts = [{**bolt_doc, "serial_bits": bits} for bits in (3, 2**20)]
    bolts += [{**bolt_doc, "k": 1, "registers": bolt_doc["registers"][:2]}, {**bolt_doc, "m": 99}]
    runs = [(bolt, doc, argv) for doc in bolts for argv in (
        ["lightning", "verify", "--key", str(key), "--bolt", str(bolt)],
        ["randomness", "verify", "--key", str(key), "--proof", str(bolt)])]
    runs += [(note, {**note_doc, "n": n}, ["money", "verify", "--note", str(note)])
             for n in (2, 6, 10**30)]
    for path, doc, argv in runs:
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, out = _run(capsys, *argv)
        assert code == 1 and json.loads(out)["error_kind"] == "precondition_violated", (doc, out)


@pytest.fixture(scope="module")
def honest_files(tmp_path_factory):
    """A desk key, its seed-9 bolt and an n=8 note, each as its parsed JSON document."""
    root = tmp_path_factory.mktemp("honest")
    key, bolt, note = (str(root / f) for f in ("key.json", "bolt.json", "note.json"))
    main(["lightning", "setup", "--seed", "7", "--out", key])
    main(["lightning", "gen", "--key", key, "--seed", "9", "--out", bolt])
    main(["money", "gen", "--n", "8", "--seed", "2", "--out", note])
    return {name: json.loads(open(path).read())
            for name, path in (("key", key), ("bolt", bolt), ("note", note))}


# each integer field of an input file and where it is read: the file, and the document
# with the field set to a value
INTEGER_FIELDS = {
    "note n": ("note", lambda doc, v: {**doc, "n": v}),
    "note state num_qubits": ("note", lambda doc, v: {**doc, "state": {**doc["state"],
                                                                       "num_qubits": v}}),
    "key n": ("key", lambda doc, v: {**doc, "n": v}),
    "key m": ("key", lambda doc, v: {**doc, "m": v}),
    "bolt serial_bits": ("bolt", lambda doc, v: {**doc, "serial_bits": v}),
    "bolt m": ("bolt", lambda doc, v: {**doc, "m": v}),
    "bolt k": ("bolt", lambda doc, v: {**doc, "k": v}),
}


@pytest.mark.parametrize("value", [8.7, "8", True])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_of_input_files_are_json_integers(field, value, honest_files, tmp_path,
                                                         capsys):
    # int() read "n": 8.7 as 8, "num_qubits": 8.9 as 8 and "m": "12" as 12, and each exited 0
    kind, change = INTEGER_FIELDS[field]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(change(honest_files[kind], value)))
    key = tmp_path / "key.json"
    if kind != "key":
        key.write_text(json.dumps(honest_files["key"]))
    argv = {"note": ["money", "verify", "--note", str(path)],
            "key": ["hash", "eval", "--key", str(key), "--x", "0f00"],
            "bolt": ["lightning", "verify", "--key", str(key), "--bolt", str(path)]}[kind]
    code, out = _run(capsys, *argv)
    rep = json.loads(out)
    assert code == 1 and rep["error_kind"] == "bad_input", rep
    assert f"TypeError: {field.rsplit(' ', 1)[1]} is {value!r}, not an integer" in rep["detail"]


def test_bolt_files_that_repeat_a_register_read_as_json_loads_reads_them(tmp_path, capsys,
                                                                         monkeypatch):
    key, bolt = tmp_path / "key.json", tmp_path / "bolt.json"
    main(["lightning", "setup", "--n", "2", "--m", "12", "--seed", "7", "--out", str(key)])
    main(["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)])
    text = bolt.read_text()
    reg = jsonio.dumps(json.loads(text)["registers"][0])
    head = text[:text.index('"registers":[') + len('"registers":[')]
    assert text == head + ",".join([reg] * 3) + "]}\n"  # three copies of one register's bytes
    last = reg.rindex("[")  # the last entry: ["index", re, im]
    out_of_range = reg[:last] + '["1000"' + reg[reg.index(",", last):]  # index 4096 >= 2^12
    moved = reg[:reg.rindex(",")] + ",1e-09]]}"  # the last entry's im is no longer 0.0
    cases = {
        "truncated": (head + reg + "," + reg[:len(reg) // 2], 1, "bad_input"),
        "closed twice": (head + reg + "," + reg + "]]}", 1, "bad_input"),
        "trailing comma": (head + reg + "," + reg + ",]}", 1, "bad_input"),
        "last index": (head + reg + "," + reg + "," + out_of_range + "]}", 1,
                       "precondition_violated"),
        "last amplitude": (head + reg + "," + reg + "," + moved + "]}", 0, None),
    }
    verify = ["lightning", "verify", "--key", str(key), "--bolt", str(bolt), "--seed", "1"]
    capsys.readouterr()
    for name, (body, code, kind) in cases.items():
        bolt.write_text(body)
        got = _run(capsys, *verify)
        with monkeypatch.context() as m:
            m.setattr(jsonio, "load", json.load)  # every register parsed on its own
            assert _run(capsys, *verify) == got, name
        assert got[0] == code and got[1].count("\n") == 1, (name, got)
        if kind:
            assert list(json.loads(got[1])) == ["error_kind", "detail"], name
            assert json.loads(got[1])["error_kind"] == kind, (name, got)


def test_an_oserror_while_streaming_out_is_bad_input(tmp_path, capsys, monkeypatch):
    written = []

    def write(piece):
        if written:
            raise OSError(28, "No space left on device")
        written.append(piece)

    class FullDisk:
        def __init__(self, path, mode):
            self.write = write

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr("builtins.open", FullDisk)  # only _emit opens a file in this run
    code, out = _run(capsys, "lightning", "setup", "--n", "2", "--m", "12",
                     "--out", str(tmp_path / "key.json"))
    assert code == 1 and out.count("\n") == 1
    rep = json.loads(out)
    assert rep["error_kind"] == "bad_input" and "No space left on device" in rep["detail"]
    assert len(written) == 1 and written[0].startswith(b'{"n":')  # the key; its newline failed


def test_bolt_files_cut_or_not_utf8_are_bad_input(tmp_path, capsys):
    # a truncated bolt file, and a non-UTF-8 byte in its skeleton or inside an entries span
    key, bolt = tmp_path / "key.json", tmp_path / "bolt.json"
    main(["lightning", "setup", "--n", "2", "--m", "12", "--seed", "7", "--out", str(key)])
    main(["lightning", "gen", "--key", str(key), "--seed", "9", "--out", str(bolt)])
    data = bolt.read_bytes()
    span = data.index(b'"entries":[') + 11
    cuts = [data[:k] for k in (1, span - 1, span, span + 100, len(data) // 2, len(data) - 3,
                               len(data) - 2)]
    bad = [data.replace(b'"mode"', b'"mod\xe9"'), data[:span + 2] + b"\xff" + data[span + 3:],
           data[:span + 7] + b"\x80" + data[span + 8:]]
    path = tmp_path / "broken.json"
    capsys.readouterr()
    for broken in cuts + bad:
        path.write_bytes(broken)
        code, out = _run(capsys, "lightning", "verify", "--key", str(key), "--bolt", str(path))
        assert code == 1 and out.count("\n") == 1, broken[-40:]
        assert json.loads(out)["error_kind"] == "bad_input", (broken[-40:], out)
    for broken in bad:
        path.write_bytes(broken)
        assert "UnicodeDecodeError" in _run(capsys, "lightning", "verify", "--key", str(key),
                                            "--bolt", str(path))[1]
    path.write_bytes(data)  # and the whole file verifies
    assert _run(capsys, "lightning", "verify", "--key", str(key), "--bolt", str(path))[0] == 0


def test_loading_a_bolt_holds_its_file_and_two_registers_at_most(tmp_path, capsys):
    # an honest m=16 bolt of k+1 = 12 registers (4.5 MB): the bytes read are the only copy of
    # the file, each register's entries a view of them, and its one state is built a block at
    # a time; a decoded copy of the file, or copied spans, would add the file's size again
    key, bolt = tmp_path / "key.json", tmp_path / "bolt.json"
    main(["lightning", "setup", "--n", "2", "--m", "16", "--k", "11", "--seed", "7",
          "--out", str(key)])
    main(["lightning", "gen", "--key", str(key), "--k", "11", "--seed", "9", "--out", str(bolt)])
    tracemalloc.start()
    try:
        loaded = cli._load(str(bolt), bolt_from_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded.registers) == 12 and len({id(r) for r in loaded.registers}) == 1
    assert peak <= bolt.stat().st_size + 2 * (1 << 16) * 8 + (2 << 20), peak


def _command_parsers(argv):
    """(group, command) -> its parser, in the parser that ``build_parser(argv)`` builds."""
    def subs(parser):
        return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {(group, name): p for group, g in subs(cli.build_parser(argv)).items()
            for name, p in subs(g).items()}


def _flag_dests(parser):
    """The dests of the parser's flags, -h aside."""
    return {a.dest for a in parser._actions if a.option_strings not in ([], ["-h", "--help"])}


TABLE = {(group, name) for group, commands in cli.COMMANDS.items() for name in commands}


def test_flag_names_are_the_flags_of_the_command_parsers():
    # a --config file's names are checked against FLAG_NAMES, which must be the union of the
    # flags of every command's parser; each parser built names every command and gives flags
    # to the one its argv names alone
    union = set()
    for group, name in TABLE:
        parsers = _command_parsers([group, name])
        assert set(parsers) == TABLE
        assert [key for key, p in parsers.items() if _flag_dests(p)] == [(group, name)]
        union |= _flag_dests(parsers[group, name])
    assert cli.FLAG_NAMES == union


def test_config_names_of_no_flag_in_the_table_are_bad_input(tmp_path, capsys):
    # -h and the group and command slots are no flag that a config file sets
    cfg = tmp_path / "cfg.json"
    for name in ("help", "command", "sub"):
        cfg.write_text(json.dumps({name: "x"}))
        code, out = _run(capsys, "bound", "subspace-example", "--n", "2", "--config", str(cfg))
        assert code == 1 and json.loads(out)["error_kind"] == "bad_input", name


def test_the_readme_lists_every_command_and_each_of_its_lines_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    named = set()
    for line in block.splitlines():
        if line.startswith("boltlab "):
            argv = [word.replace("<hex>", "03") for word in line.split()[1:]]
            args = cli.build_parser(argv).parse_args(argv)
            assert args.func is cli.COMMANDS[args.command][args.sub][0], line
            named.add((args.command, args.sub))
    assert named == TABLE


def test_a_min_entropy_of_zero_bits_is_spelled_0_0(tmp_path, capsys):
    # -log2(1.0) is -0.0: a certain serial, or a key whose inputs all hash to one digest,
    # must read 0.0 in the report's text
    key = tmp_path / "zero.json"  # every quadratic form 0, so every input hashes to 00
    key.write_text(json.dumps({"n": 2, "m": 12, "mats": ["00" * 24] * 2}))
    code, out = _run(capsys, "lightning", "minentropy", "--key", str(key), "--trials", "3")
    assert code == 0 and '"estimate_bits":0.0,"exact_digest_minentropy":0.0,' in out, out
    code, out = _run(capsys, "lightning", "minentropy", "--n", "2", "--m", "12", "--storm",
                     "constant", "--trials", "3")
    assert code == 0 and '"estimate_bits":0.0,' in out and "-0.0" not in out, out
