"""Mutated command lines, --config files and input files through ``cli.main``.

Every run must exit 0, 1 or 2 (argparse's usage error), and an exit of 1
must write exactly one ``{"error_kind", "detail"}`` JSON document.  Numbers
are small or far beyond the CLI's size limits (up to 10**30), which must be
refused at once.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from boltlab.cli import main

TEMPLATES = [
    ["hash", "eval", "--key", "{key}", "--x", "01"],
    ["attack", "collide", "--key", "{key}", "--max-tries", "2"],
    ["attack", "affine-space", "--key", "{key}", "--r", "2", "--max-tries", "2"],
    ["lightning", "setup", "--n", "1", "--m", "4", "--k", "1", "--u", "2", "--out", "{out}"],
    ["lightning", "gen", "--key", "{mkey}", "--k", "1", "--u", "2", "--out", "{out}"],
    ["lightning", "verify", "--key", "{key}", "--bolt", "{bolt}"],
    ["lightning", "verify", "--key", "{mkey}", "--k", "1", "--u", "2", "--bolt", "{joint}"],
    ["lightning", "game", "--key", "{key}", "--storm", "classical", "--trials", "3"],
    ["lightning", "collapse", "--key", "{key}", "--trials", "3"],
    ["lightning", "minentropy", "--key", "{key}", "--trials", "3"],
    ["money", "verify", "--note", "{note}"],
    ["bound", "cloning", "--problem", "{problem}"],
    ["bound", "subspace-example", "--n", "4"],
    ["randomness", "verify", "--key", "{key}", "--proof", "{bolt}"],
]
FILES = ("key", "mkey", "bolt", "joint", "note", "problem")
PATH_FLAGS = ["--key", "--bolt", "--proof", "--note", "--problem", "--config", "--out"]
FLAGS = PATH_FLAGS + ["--n", "--m", "--k", "--u", "--r", "--q", "--x", "--trials", "--seed",
                      "--strategy", "--storm", "--mode", "--adversary", "--serial", "--copies",
                      "--analytic", "--max-tries", "--key-seed", "--bogus"]
WORDS = ["", "x", "ff", "01", "nan", "-", "--", "oracle", "circuit", "honest", "constant",
         "classical", "cheat-duplicate", "affine-attack", "joint-micro", "measure-copy"]
BIG = st.sampled_from([65, 10**6 + 1, 2**63, 10**30]) | st.integers(10**7, 10**30)
NUMBERS = (st.integers(-2, 5) | BIG).map(str)
LEAVES = (st.none() | st.booleans() | st.integers(-2, 5) | BIG
          | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(WORDS))
JSON = st.recursive(LEAVES, lambda c: st.lists(c, max_size=3)
                    | st.dictionaries(st.sampled_from(["n", "m", "k", "entries"]), c, max_size=2),
                    max_leaves=4)
CONFIG = st.dictionaries(st.sampled_from([f[2:] for f in FLAGS] + ["trails"]), LEAVES, max_size=3)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid input files every template starts from."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(d / f"{name}.json") for name in FILES}
    with contextlib.redirect_stdout(io.StringIO()):
        main(["lightning", "setup", "--n", "2", "--m", "12", "--seed", "7", "--out", paths["key"]])
        main(["lightning", "setup", "--n", "1", "--m", "4", "--k", "1", "--u", "2", "--seed", "7",
              "--out", paths["mkey"]])
        main(["lightning", "gen", "--key", paths["key"], "--seed", "9", "--out", paths["bolt"]])
        main(["lightning", "gen", "--key", paths["mkey"], "--k", "1", "--u", "2",
              "--mode", "joint-micro", "--seed", "6", "--out", paths["joint"]])
        main(["money", "gen", "--n", "4", "--seed", "2", "--out", paths["note"]])
    with open(paths["problem"], "w") as fh:
        states = [{"num_qubits": 1, "entries": [[str(i), 1.0, 0.0]]} for i in range(2)]
        json.dump({"states": states, "prior": [0.5, 0.5]}, fh)
    texts = {name: open(paths[name]).read() for name in FILES}
    paths.update(out=str(d / "out.json"), missing=str(d / "no-such-dir" / "out.json"),
                 fuzzed=str(d / "fuzzed.json"), config=str(d / "config.json"), dir=str(d))
    return paths, texts


def _mutate_doc(doc, draw):
    """Replace, delete or add one entry somewhere in a JSON document."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
        key = draw(st.sampled_from(keys))
        doc[key] = _mutate_doc(doc[key], draw)
        return doc
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete" and isinstance(doc, dict) and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
        return doc
    if action == "add" and isinstance(doc, list):
        return doc + [draw(JSON)]
    return draw(JSON)


@st.composite
def _runs(draw, paths, texts):
    argv = list(draw(st.sampled_from(TEMPLATES)))
    files = {}
    if draw(st.booleans()):  # fuzz one input file the command reads
        named = [f for f in FILES if "{" + f + "}" in argv] or ["key"]
        name = draw(st.sampled_from(named))
        text = texts[name]
        if draw(st.booleans()):
            text = text[: draw(st.integers(0, len(text)))]
        else:
            text = json.dumps(_mutate_doc(json.loads(text), draw))
        files[paths["fuzzed"]] = text
        argv = [a.replace("{" + name + "}", paths["fuzzed"]) for a in argv]
    if draw(st.booleans()):
        files[paths["config"]] = json.dumps(draw(CONFIG))
        argv += ["--config", paths["config"]]
    inputs = st.sampled_from([paths[f] for f in FILES + ("missing", "fuzzed", "config")] + WORDS)
    outputs = st.sampled_from([paths[f] for f in ("out", "missing", "dir")] + WORDS)
    values = st.sampled_from(WORDS) | NUMBERS

    def value_after(flag):  # input files are read, never written
        return outputs if flag == "--out" else inputs if flag in PATH_FLAGS else values

    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "delete", "append"]))
        if edit == "append":  # a flag and a value of its kind
            flag = draw(st.sampled_from(FLAGS))
            argv += [flag, draw(value_after(flag))]
        elif len(argv) > 2:
            i = draw(st.integers(2, len(argv) - 1))
            argv[i:i + 1] = [] if edit == "delete" else [draw(value_after(argv[i - 1]))]
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    return argv, files


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_mutated_run_exits_0_1_or_2(inputs, data, capsys, monkeypatch):
    paths, texts = inputs
    monkeypatch.chdir(paths["dir"])  # a mutated --out path lands here
    argv, files = data.draw(_runs(paths, texts))
    for path, text in files.items():
        with open(path, "w") as fh:
            fh.write(text)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.count("\n") == 1, (argv, out)
        assert list(json.loads(out)) == ["error_kind", "detail"], (argv, out)
