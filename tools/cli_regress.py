"""Run a fixed list of boltlab CLI commands from two source trees and report every difference.

    python3 tools/cli_regress.py PARENT_TREE CHANGE_TREE [--only TEXT]

Each tree runs the whole list, in order, in a new temporary directory that
first receives the small input files in FIXTURES; file names in the commands
are relative to it, so a later command reads what an earlier one wrote.  Every
command runs as ``python3 -m boltlab.cli`` with the tree's ``src/`` on
PYTHONPATH and BLAS at one thread.  For each command the script compares the
exit code, stdout, the bytes of every file the command wrote and, when it exits
2 (a usage error), the usage text on stderr.  A stdout or a written JSON file
that differs in numbers only is reported with its largest absolute numeric
difference.  ``--only`` keeps the commands whose text contains TEXT.
The exit status is 0 when nothing differs and 1 otherwise.

The list: the README's commands at pinned seeds; gen, verify and game on the
desk key (n=2, m=12), with a game and a min-entropy probe of 2,500 trials and
a circuit game of classical registers, and on the m=20 key, with gen to
stdout, ``randomness prove``, a circuit verify, a game of each storm
(cheat-duplicate with both strategies), a collapse run and a min-entropy probe
of each producer; gen, verify, a
min-entropy probe and an affine-attack game on an (n, m, u) = (4, 20, 4) key,
the widest digest at m=20, and gen and a circuit verify on a second such key
whose plan relabels all four rounds; joint-micro gen and
verify, at (n, m, k) = (1, 6, 2) and (1, 7, 2) among others, and ``randomness
verify`` of a joint-micro proof; money gen and verify (at n = 2, 6, 14 and
20, and verify of a basis state inside S and of random complex states at n = 6
and 8) and counterfeit (at n = 10
with no success, and each adversary over three blocks of trials, the last
partial, at n = 2, 12 and 20, too); bound and randomness commands, with cloning and
conversion problems of 384 random states under a non-uniform dyadic prior; keys set up with other
params, with a circuit verify at u = 4; gen, circuit verify, a circuit game
and an oracle game of 300 trials on an (n, m, u) = (3, 16, 4) key; circuit
commands on two keys whose extraction plans flag no transcript; ``--config`` files; error paths; the
attacks at seeds 2-4 on two keys; files that repeat a state index, name an
unknown bolt mode or set up m = 23; notes of odd n, too few rows or dependent
rows, and counterfeit runs of no trials at n = 0, 22 and 64; the desk bolt
with a header that does not fit (k = 1 with two registers, m = 99), made from
its file just before a command names it (DERIVED), the desk bolt times the
phase 0.6 + 0.8i, and desk bolts whose registers are uniform on a fiber less one
input, on two fibers (the union with ``randomness prove``'s, DERIVED from two
files) or on one point, negated, reversed, repeating an index, naming an index
of 2^m or off norm, each verified with both strategies; a uniform note on S less
one point and the note checked against another S; notes, keys and bolts whose
integer fields are a float, a string or a bool (DERIVED too); m=20 bolts made
from the file's bytes (DERIVED_BYTES), verified with both strategies: one whose
third register differs from the first in one amplitude's last digit, an
indented copy, one with a byte that is not UTF-8 inside an entries array and
one cut in the middle of an entries array; conversion problems that are
malformed or set d; ``--help`` at the top level, of each group and of each
command; and usage errors: no command, a group alone, an unknown group or
command, a missing required flag, a bad int, bad hex, an unknown flag, an
unknown option and ``--`` before the command.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

# every BLAS and threading library at one thread, as perfbench/run.py sets them: a report's
# last digits depend on how a BLAS splits its sums
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

FIXTURES = {
    "cloning.json": {
        "states": [{"num_qubits": 2, "entries": [["0", 1.0, 0.0]]},
                   {"num_qubits": 2, "entries": [["0", 0.6, 0.0], ["3", 0.8, 0.0]]},
                   {"num_qubits": 2, "entries": [["1", 0.6, 0.0], ["2", 0.0, 0.8]]}],
        "prior": [0.5, 0.25, 0.25]},
    "pauli.json": {  # the six Pauli eigenstates, which the universal cloner copies at F^2 = 2/3
        "states": [{"num_qubits": 1, "entries": e} for e in (
            [["0", 1.0, 0.0]], [["1", 1.0, 0.0]],
            [["0", 0.7071067811865476, 0.0], ["1", 0.7071067811865476, 0.0]],
            [["0", 0.7071067811865476, 0.0], ["1", -0.7071067811865476, 0.0]],
            [["0", 0.7071067811865476, 0.0], ["1", 0.0, 0.7071067811865476]],
            [["0", 0.7071067811865476, 0.0], ["1", 0.0, -0.7071067811865476]])],
        "prior": [1 / 6] * 6},
    "conversion.json": {
        "family1": [{"num_qubits": 1, "entries": [["0", 1.0, 0.0]]},
                    {"num_qubits": 1, "entries": [["1", 1.0, 0.0]]}],
        "family2": [{"num_qubits": 1, "entries": [["0", 0.6, 0.0], ["1", 0.8, 0.0]]},
                    {"num_qubits": 1, "entries": [["0", 0.8, 0.0], ["1", -0.6, 0.0]]}],
        "prior": [0.5, 0.5]},
    "inside.json": {  # a basis state inside S: it passes the first test surely, the second 1 in 4
        "n": 4, "subspace": ["01", "02"],
        "state": {"num_qubits": 4, "entries": [["3", 1.0, 0.0]]}},
    "foo.json": {  # the seed-6 bolt of mkey.json with a mode no bolt has
        "serial": "01", "serial_bits": 1, "mode": "foo", "m": 4, "k": 1,
        "registers": [{"num_qubits": 4, "entries": [[h, 0.35355339059327373, 0.0]
                                                    for h in "146789be"]}] * 2},
    "repeat.json": {  # a state whose entries name index 0 twice
        "states": [{"num_qubits": 2, "entries": [["0", 0.6, 0.0], ["0", 0.8, 0.0],
                                                  ["1", 0.6, 0.0]]},
                   {"num_qubits": 2, "entries": [["3", 1.0, 0.0]]}],
        "prior": [0.5, 0.5]},
    "repeatnote.json": {
        "n": 2, "subspace": ["01"],
        "state": {"num_qubits": 2, "entries": [["0", 0.6, 0.0], ["0", 0.8, 0.0],
                                               ["1", 0.6, 0.0]]}},
    # notes the scheme has none of: odd n, too few rows, dependent rows
    **{f"unfit{n}-{len(rows)}.json": {"n": n, "subspace": rows, "state": {
        "num_qubits": n, "entries": [["0", 1.0, 0.0]]}}
       for n, rows in ((3, ["01"]), (4, ["01"]), (4, ["01", "01"]))},
    "config.json": {"trials": 30, "seed": 4, "strategy": "circuit"},
    "typo.json": {"trails": 30},
    "garbled.json": "{not json",
}


def _off_subspace_note(n: int, rows: list, seed: int) -> dict:
    """A note over the given rows whose state is a random complex unit vector on all of 2^n."""
    draw = random.Random(seed)
    amps = [complex(draw.gauss(0, 1), draw.gauss(0, 1)) for _ in range(1 << n)]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    return {"n": n, "subspace": rows, "state": {"num_qubits": n, "entries": [
        [format(i, "x"), a.real / norm, a.imag / norm] for i, a in enumerate(amps)]}}


def _random_family(count: int, q: int, seed: int, real: bool = False) -> list:
    """Dumps of count random unit vectors on q qubits, complex unless real."""
    draw = random.Random(seed)
    out = []
    for _ in range(count):
        amps = [complex(draw.gauss(0, 1), 0.0 if real else draw.gauss(0, 1)) for _ in range(1 << q)]
        norm = sum(abs(a) ** 2 for a in amps) ** 0.5
        out.append({"num_qubits": q, "entries": [
            [format(i, "x"), a.real / norm, a.imag / norm] for i, a in enumerate(amps)]})
    return out


# 384 states, so that the bound's row blocks number more than one: a third of them at 1/256
# and the rest at 1/512, a prior that sums to 1 exactly
DYADIC = [1 / 256 if i % 3 == 0 else 1 / 512 for i in range(384)]
FIXTURES["cloning384.json"] = {"states": _random_family(384, 3, 1), "prior": DYADIC}
FIXTURES["conversion384.json"] = {"family1": _random_family(384, 3, 2),
                                  "family2": _random_family(384, 2, 3), "prior": DYADIC}
# real inputs and complex outputs: C takes the outputs' type
FIXTURES["conversion384-real.json"] = {"family1": _random_family(384, 3, 4, real=True),
                                       "family2": _random_family(384, 2, 5), "prior": DYADIC}
FIXTURES["random6.json"] = _off_subspace_note(6, ["03", "06", "30"], 6)
FIXTURES["random8.json"] = _off_subspace_note(8, ["03", "06", "30", "c0"], 8)
CONVERSION = FIXTURES["conversion.json"]
FIXTURES.update({f"conversion-{name}.json": {**CONVERSION, **change} for name, change in {
    "families": {"family2": CONVERSION["family2"][:1]},  # family lengths differ
    "priors": {"prior": [1.0]},  # the prior's length differs
    "prior-x": {"prior": ["x", 0.5]},
    "d-abc": {"d": "abc"},
    "empty": {"family1": [], "family2": [], "prior": []},
    "d4": {"d": 4},
}.items()})

# files made from what an earlier command wrote, just before the first command that names them
DERIVED = {
    "k1bolt.json": ("bolt.json", lambda doc: {"k": 1, "registers": doc["registers"][:2]}),
    "m99bolt.json": ("bolt.json", lambda doc: {"m": 99}),
    # the desk bolt times the phase 0.6 + 0.8i: complex registers, whose reports are the real's
    "cbolt.json": ("bolt.json", lambda doc: {"registers": [
        {**reg, "entries": [[h, 0.6 * re, 0.8 * re] for h, re, _ in reg["entries"]]}
        for reg in doc["registers"]]}),
}


def _uniform(hexes: list) -> list:
    """Entries of amplitude 1/sqrt(len) at the indices."""
    return [[h, 1 / len(hexes) ** 0.5, 0.0] for h in hexes]


def _each_register(change) -> Callable:
    """A DERIVED change that rewrites the entries of every register of a bolt; ``change`` gets
    them and the documents of the further sources."""
    return lambda doc, *more: {"registers": [{**reg, "entries": change(reg["entries"], *more)}
                                             for reg in doc["registers"]]}


# desk-bolt registers uniform on supports other than one whole fiber, or whose load is refused
REGISTERS = {
    "minus1bolt.json": ("bolt.json", lambda e: _uniform([h for h, _, _ in e[1:]])),
    "twofiberbolt.json": (("bolt.json", "proof.json"), lambda e, other: _uniform(sorted(
        [h for h, _, _ in e + other["registers"][0]["entries"]], key=lambda h: int(h, 16)))),
    "pointbolt.json": ("bolt.json", lambda e: [[e[0][0], 1.0, 0.0]]),
    "negbolt.json": ("bolt.json", lambda e: [[h, -re, im] for h, re, im in e]),
    "revbolt.json": ("bolt.json", lambda e: e[::-1]),
    "repeatbolt.json": ("bolt.json", lambda e: e + e[:1]),
    "outsidebolt.json": ("bolt.json", lambda e: e + [["1000", e[0][1], 0.0]]),  # 2^12
    "offnormbolt.json": ("bolt.json", lambda e: [[h, 2 * re, im] for h, re, im in e]),
}
DERIVED.update({name: (source, _each_register(change))
                for name, (source, change) in REGISTERS.items()})
DERIVED["minus1note.json"] = ("note.json", lambda doc: {"state": {
    **doc["state"], "entries": _uniform([h for h, _, _ in doc["state"]["entries"][1:]])}})
DERIVED["wrongsnote.json"] = ("note.json", lambda doc: {"subspace": ["03", "0c", "30", "c0"]})
# integer fields set to a float, a string and a bool: int() read each as an integer
NOT_INTEGERS = {"float": 8.7, "string": "8", "bool": True}
INTEGER_FIELDS = {  # file -> (the file it is made from, its integer fields)
    "note": ("note.json", ("n", "num_qubits")), "key": ("key.json", ("n", "m")),
    "bolt": ("bolt.json", ("serial_bits", "m", "k"))}
for kind, (source, fields) in INTEGER_FIELDS.items():
    for field in fields:
        for tag, value in NOT_INTEGERS.items():
            DERIVED[f"int-{kind}-{field}-{tag}.json"] = (source, (
                lambda doc, v=value: {"state": {**doc["state"], "num_qubits": v}})
                if field == "num_qubits" else lambda doc, f=field, v=value: {f: v})


def _third_register_digit(data: bytes) -> bytes:
    """The bolt with the last digit of the first amplitude of its third register changed."""
    at = data.index(b'"entries":[', data.index(b'"entries":[', data.index(b'"entries":[') + 1) + 1)
    k = data.index(b",", data.index(b'",', at) + 2) - 1
    return data[:k] + bytes([data[k] ^ 1]) + data[k + 1:]  # 0 <-> 1, 2 <-> 3, ...


def _indented(data: bytes) -> bytes:
    """The document laid out by json.dumps(indent=1), each entries array left as it is."""
    pieces, arrays, pos = [], [], 0
    while (at := data.find(b'"entries":[', pos)) >= 0:
        end = data.index(b"]]", at) + 2  # no entry holds "]]"
        pieces.append(data[pos:at] + b'"entries":"#%d"' % len(arrays))
        arrays.append(data[at + len(b'"entries":'):end])
        pos = end
    out = json.dumps(json.loads(b"".join(pieces) + data[pos:]), indent=1).encode()
    for k, array in enumerate(arrays):
        out = out.replace(b'"#%d"' % k, array, 1)
    return out


# files made from the bytes of what an earlier command wrote, as DERIVED
DERIVED_BYTES = {
    "w3diff.json": ("wbolt.json", _third_register_digit),
    "windent.json": ("wbolt.json", _indented),
    "wnotutf8.json": ("wbolt.json", lambda data: data.replace(b'],["', b'],["\xff', 1)),
    "wcut.json": ("wbolt.json", lambda data: data[:len(data) // 2]),
}

K, W, M = "--key key.json", "--key wkey.json", "--key mkey.json --k 1 --u 2"
J, U = "--key jkey.json --k 2 --u 2", "--key ukey.json --u 4"
T, W4, W43 = "--key tkey.json --u 4", "--key w4key.json --u 4", "--key w43key.json --u 4"
GROUPS = {"hash": ("keygen", "eval"), "attack": ("collide", "multicollide", "affine-space"),
          "lightning": ("setup", "gen", "verify", "game", "collapse", "minentropy"),
          "money": ("gen", "verify", "counterfeit"),
          "bound": ("conversion", "cloning", "subspace-example"),
          "randomness": ("prove", "verify")}

# (command line, extra environment)
COMMANDS = [
    # the README, in order
    ("hash keygen --n 2 --m 12 --seed 3 --out hkey.json", {}),
    ("hash eval --key hkey.json --x 0f00", {}),
    ("attack collide --key hkey.json --seed 1", {}),
    ("attack multicollide --key hkey.json --k 2 --seed 1", {}),
    ("attack affine-space --key hkey.json --r 3 --seed 1", {}),
    ("lightning setup --n 2 --m 12 --seed 7 --out key.json", {}),
    ("lightning gen --key key.json --seed 9 --out bolt.json", {}),
    ("lightning verify --key key.json --bolt bolt.json", {}),
    ("lightning game --key key.json --storm classical --trials 500 --seed 7", {}),
    ("lightning collapse --key key.json", {}),
    ("lightning minentropy --key key.json --storm honest --trials 1000", {}),
    ("money gen --n 8 --seed 2 --out note.json", {}),
    ("money verify --note note.json", {}),
    ("money counterfeit --n 4 --adversary measure-copy --trials 10000", {}),
    ("money counterfeit --n 10 --adversary measure-copy --trials 100 --seed 1", {}),  # none pass
    ("bound subspace-example --n 4 --q 2", {}),
    ("bound cloning --problem cloning.json --copies 2", {}),
    ("randomness prove --key key.json --seed 3 --proof proof.json", {}),
    ("randomness verify --key key.json --proof proof.json", {}),
    ("randomness verify --key key.json --proof proof.json --serial 03", {}),
    # the desk key
    (f"lightning verify {K} --bolt bolt.json --strategy circuit --seed 2", {}),
    (f"lightning verify {K} --bolt cbolt.json", {}),
    (f"lightning verify {K} --bolt cbolt.json --strategy circuit --seed 2", {}),
    *((f"lightning verify {K} --bolt {name}{strategy}", {})
      for name in REGISTERS for strategy in ("", " --strategy circuit --seed 2")),
    ("money verify --note minus1note.json --seed 1", {}),
    ("money verify --note wrongsnote.json --seed 1", {}),
    (f"lightning game {K} --storm cheat-duplicate --trials 200 --seed 1", {}),
    (f"lightning game {K} --storm cheat-duplicate --strategy circuit --trials 50 --seed 1", {}),
    (f"lightning game {K} --storm affine-attack --trials 20 --seed 3", {}),
    # the desk plan flags 168 inconsistent transcripts, which classical registers reach
    (f"lightning game {K} --storm classical --strategy circuit --trials 200 --seed 5", {}),
    (f"lightning collapse {K} --trials 200 --seed 5", {}),
    (f"lightning minentropy {K} --storm constant --trials 60 --seed 2", {}),
    (f"lightning minentropy {K} --storm classical --trials 60 --seed 2", {}),
    (f"lightning game {K} --storm cheat-duplicate --trials 2500 --seed 4", {}),
    (f"lightning minentropy {K} --trials 2500 --seed 4", {}),
    (f"lightning gen {K} --seed 4 --k 3 --out bolt3.json", {}),
    # the attacks at more seeds and sizes, on the README's hash key and the desk key
    *((f"attack {a} --key {k} --seed {seed}", {})
      for k in ("hkey.json", "key.json") for seed in (2, 3, 4)
      for a in ("collide", "multicollide --k 1", "multicollide --k 3", "affine-space --r 1",
                "affine-space --r 2", "affine-space --r 4")),
    # the m=20 key
    ("lightning setup --n 2 --m 20 --seed 7 --out wkey.json", {}),
    (f"lightning gen {W} --seed 9 --out wbolt.json", {}),
    (f"lightning gen {W} --seed 9", {}),
    (f"randomness prove {W} --seed 3 --proof wproof.json", {}),
    (f"lightning verify {W} --bolt wbolt.json --seed 1", {}),
    (f"lightning game {W} --storm cheat-duplicate --trials 4 --seed 1", {}),
    (f"lightning minentropy {W} --trials 20 --seed 1", {}),
    (f"lightning verify {W} --bolt wbolt.json --strategy circuit --seed 1", {}),
    (f"lightning game {W} --storm classical --trials 4 --seed 1", {}),
    (f"lightning game {W} --storm affine-attack --trials 2 --seed 1", {}),
    (f"lightning game {W} --storm cheat-duplicate --strategy circuit --trials 3 --seed 1", {}),
    (f"lightning collapse {W} --trials 20 --seed 1", {}),
    (f"lightning minentropy {W} --storm constant --trials 20 --seed 1", {}),
    (f"lightning minentropy {W} --storm classical --trials 20 --seed 1", {}),
    # bolts made from its file's bytes, read a chunk at a time
    *((f"lightning verify {W} --bolt {name} --seed 1{strategy}", {})
      for name in DERIVED_BYTES for strategy in ("", " --strategy circuit")),
    # an n=4 key at m=20, the widest digest a lightning key takes, in a one-byte table
    ("lightning setup --n 4 --m 20 --u 4 --seed 7 --out w4key.json", {}),
    (f"lightning gen {W4} --seed 9 --out w4bolt.json", {}),
    (f"lightning verify {W4} --bolt w4bolt.json --seed 1", {}),
    (f"lightning minentropy {W4} --trials 50 --seed 1", {}),
    (f"lightning game {W4} --storm affine-attack --trials 5 --seed 1", {}),
    # an n=4 key at m=20 whose plan relabels all four rounds
    ("lightning setup --n 4 --m 20 --u 4 --seed 3 --out w43key.json", {}),
    (f"lightning gen {W43} --seed 9 --out w43bolt.json", {}),
    (f"lightning verify {W43} --bolt w43bolt.json --strategy circuit --seed 1", {}),
    # joint-micro bolts
    ("lightning setup --n 1 --m 4 --k 1 --u 2 --seed 7 --out mkey.json", {}),
    (f"lightning gen {M} --mode joint-micro --seed 6 --out joint.json", {}),
    (f"lightning verify {M} --bolt joint.json --seed 3", {}),
    ("lightning gen --n 1 --m 5 --key-seed 2 --k 2 --u 2 --mode joint-micro --seed 1 "
     "--out joint5.json", {}),
    ("lightning verify --n 1 --m 5 --key-seed 2 --k 2 --u 2 --bolt joint5.json --seed 1", {}),
    ("lightning setup --n 1 --m 6 --k 2 --u 2 --seed 3 --out jkey.json", {}),
    (f"lightning gen {J} --mode joint-micro --seed 2 --out joint6.json", {}),
    (f"lightning verify {J} --bolt joint6.json --seed 1", {}),
    ("lightning gen --n 1 --m 9 --k 2 --u 2 --mode joint-micro", {}),
    (f"randomness verify {M} --proof joint.json --seed 3", {}),
    ("lightning gen --n 1 --m 7 --key-seed 2 --k 2 --u 2 --mode joint-micro --seed 1 "
     "--out joint7.json", {}),
    ("lightning verify --n 1 --m 7 --key-seed 2 --k 2 --u 2 --bolt joint7.json --seed 1", {}),
    # money, bounds and randomness
    ("money gen --n 20 --seed 3 --out note20.json", {}),
    ("money verify --note note20.json --seed 1", {}),
    # n = 2 mod 4: the square of the note's amplitude 2^(-n/4) is no power of two
    *((cmd, {}) for n in (2, 6, 14) for cmd in (f"money gen --n {n} --seed 4 --out note{n}.json",
                                                 f"money verify --note note{n}.json --seed 1")),
    ("money verify --note inside.json --seed 2", {}),
    ("money verify --note inside.json --seed 3", {}),
    ("money counterfeit --n 4 --adversary fixed-guess --trials 3000 --seed 1", {}),
    ("money counterfeit --n 6 --adversary honest-forward --trials 1200 --seed 2", {}),
    ("money counterfeit --n 8 --adversary measure-copy --trials 300 --seed 3", {}),
    # three blocks of 1,024 trials, the last one partial, for each adversary
    *((f"money counterfeit --n {n} --adversary {adversary} --trials {trials} --seed 5", {})
      for n, trials in ((2, 2500), (12, 2500), (20, 2100))
      for adversary in ("measure-copy", "fixed-guess", "honest-forward")),
    # notes whose state is a random complex unit vector, mostly off S
    *((f"money verify --note random{n}.json --seed {seed}", {}) for n in (6, 8) for seed in (1, 2)),
    ("bound subspace-example --n 2", {}),
    ("bound subspace-example --n 6", {}),
    ("bound subspace-example --n 8 --analytic", {}),
    ("bound subspace-example --n 6 --q 3 --analytic", {}),
    ("bound cloning --problem cloning.json --copies 5", {}),
    ("bound cloning --problem pauli.json --copies 2", {}),
    ("bound conversion --problem conversion.json", {}),
    # problems of 384 states, more than one row block
    ("bound cloning --problem cloning384.json --copies 2", {}),
    ("bound cloning --problem cloning384.json --copies 3", {}),
    ("bound conversion --problem conversion384.json", {}),
    ("bound conversion --problem conversion384-real.json", {}),
    ("randomness prove --n 2 --m 12 --key-seed 4 --seed 8 --proof proof4.json", {}),
    ("randomness verify --n 2 --m 12 --key-seed 4 --proof proof4.json --seed 2", {}),
    # keys set up with other params: the change refuses the commands whose --k/--u disagree
    ("lightning setup --n 2 --m 15 --u 4 --out ukey.json", {}),
    (f"lightning gen {U} --seed 1 --out ubolt.json", {}),
    (f"lightning verify {U} --bolt ubolt.json", {}),
    ("lightning verify --key ukey.json --bolt ubolt.json", {}),
    (f"lightning verify {U} --bolt ubolt.json --strategy circuit --seed 1", {}),
    # a (3, 16, 4) key whose four rounds all relabel
    ("lightning setup --n 3 --m 16 --u 4 --seed 2 --out tkey.json", {}),
    (f"lightning gen {T} --seed 1 --out tbolt.json", {}),
    (f"lightning verify {T} --bolt tbolt.json --strategy circuit --seed 1", {}),
    (f"lightning game {T} --storm cheat-duplicate --strategy circuit --trials 20 --seed 1", {}),
    # each accepted trial draws 6 points from fibers of about 2^13 inputs
    (f"lightning game {T} --storm cheat-duplicate --trials 300 --seed 2", {}),
    ("lightning setup --k 3 --seed 7 --out k3key.json", {}),
    ("lightning gen --key k3key.json --seed 9 --out k3bolt.json", {}),
    ("lightning gen --key k3key.json --k 3 --seed 9 --out k3bolt-k3.json", {}),
    # circuit plans that flag nothing: round 3 of the first key and round 2 of the second
    # relabel no index, so every circuit verify rejects
    ("lightning setup --n 2 --m 12 --seed 3 --out dkey.json", {}),
    ("lightning gen --key dkey.json --seed 9 --out dbolt.json", {}),
    ("lightning verify --key dkey.json --bolt dbolt.json --strategy circuit --seed 1", {}),
    ("lightning game --key dkey.json --storm cheat-duplicate --strategy circuit --trials 20 "
     "--seed 2", {}),
    ("lightning setup --n 2 --m 9 --seed 3 --out d9key.json", {}),
    ("lightning game --key d9key.json --storm classical --strategy circuit --trials 20 --seed 1",
     {}),
    # --config files
    (f"lightning game {K} --storm classical --config config.json", {}),
    (f"lightning game {K} --storm classical --config config.json --trials 10", {}),
    ("money counterfeit --n 4 --config config.json", {}),
    ("bound subspace-example --n 4 --config typo.json", {}),
    # error paths
    (f"lightning verify {K} --bolt missing.json", {}),
    (f"lightning verify {K} --bolt garbled.json", {}),
    ("lightning verify --key garbled.json --bolt bolt.json", {}),
    ("money verify --note bolt.json", {}),
    ("bound cloning --problem note.json", {}),
    (f"lightning game {K} --storm lightning-rod", {}),
    ("money counterfeit --n 4 --adversary nobody", {}),
    ("money counterfeit --n 5", {}),
    ("hash keygen --n 2 --m 4 --seed -3", {}),
    (f"lightning minentropy {K} --trials 1000001", {}),
    ("lightning setup --n 2 --m 8 --u 3", {}),
    ("lightning gen --n 2 --m 12 --k 2 --mode joint-micro", {}),
    ("bound subspace-example --n 6", {"LF_QUBIT_CAP": "5"}),
    ("randomness verify --key key.json --proof proof.json --serial 0f00", {}),
    ("hash eval --n 2 --m 4 --x zz", {}),
    # inputs that no command can use, refused where they are read
    ("lightning setup --n 2 --m 23 --seed 1 --out k23.json", {}),
    ("lightning gen --key k23.json --seed 1 --out k23bolt.json", {}),
    ("bound cloning --problem repeat.json --copies 2", {}),
    ("money verify --note repeatnote.json --seed 1", {}),
    *((f"money verify --note unfit{name}.json", {}) for name in ("3-1", "4-1", "4-2")),
    ("money counterfeit --n 0 --trials 0", {}),
    ("money counterfeit --n 22 --trials 0", {}),
    ("money counterfeit --n 64 --trials 0", {}),
    (f"lightning verify {M} --bolt foo.json --seed 3", {}),
    (f"randomness verify {M} --proof foo.json --seed 3", {}),
    # bolt headers that do not fit the key's params or the registers
    (f"lightning verify {K} --bolt k1bolt.json", {}),
    (f"randomness verify {K} --proof k1bolt.json", {}),
    (f"lightning verify {K} --bolt m99bolt.json", {}),
    (f"randomness verify {K} --proof m99bolt.json", {}),
    # integer fields of input files that are not JSON integers
    *((f"money verify --note int-note-{field}-{tag}.json", {})
      for field in ("n", "num_qubits") for tag in NOT_INTEGERS),
    *((f"hash eval --key int-key-{field}-{tag}.json --x 0f00", {})
      for field in ("n", "m") for tag in NOT_INTEGERS),
    *((f"lightning verify {K} --bolt int-bolt-{field}-{tag}.json", {})
      for field in ("serial_bits", "m", "k") for tag in NOT_INTEGERS),
    # conversion problems: malformed, and with the ambient dimension set
    *((f"bound conversion --problem conversion-{name}.json", {})
      for name in ("families", "priors", "prior-x", "d-abc", "empty", "d4")),
    # help, of the top level, each group and each command
    ("--help", {}),
    *((f"{group} --help", {}) for group in GROUPS),
    *((f"{group} {name} --help", {}) for group, names in GROUPS.items() for name in names),
    # usage errors, whose text on stderr is compared
    ("", {}),
    ("lightning", {}),
    ("lightnin gen", {}),
    ("lightning forge", {}),
    (f"lightning game {K}", {}),
    ("money counterfeit --n four", {}),
    ("randomness verify --key key.json --proof proof.json --serial 0x3", {}),
    (f"lightning gen {K} --bogus 1", {}),
    (f"--bogus lightning game {K}", {}),
    (f"-- lightning gen {K}", {}),
    (f"lightning game {K} --storm classical --tri 3", {}),  # an abbreviated flag, which runs
]


def _digests(root: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in root.iterdir()}


def run_tree(tree: Path, work: Path, commands: list) -> list:
    """(exit code, stdout, {written file: sha256}, stderr of a usage error or None) of each
    command, run in order in work."""
    for name, doc in FIXTURES.items():
        (work / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(tree / "src")}
    env.pop("LF_QUBIT_CAP", None)
    results = []
    for cmd, extra in commands:
        for name, (source, change) in DERIVED.items():
            if name in cmd.split() and not (work / name).exists():
                docs = [json.loads((work / s).read_text())
                        for s in ((source,) if isinstance(source, str) else source)]
                (work / name).write_text(json.dumps({**docs[0], **change(*docs)}))
        for name, (source, change) in DERIVED_BYTES.items():
            if name in cmd.split() and not (work / name).exists():
                (work / name).write_bytes(change((work / source).read_bytes()))
        before = _digests(work)
        proc = subprocess.run([sys.executable, "-m", "boltlab.cli", *cmd.split()], cwd=work,
                              env={**env, **extra}, capture_output=True, text=True)
        after = _digests(work)
        written = {name: h for name, h in after.items() if before.get(name) != h}
        usage = proc.stderr if proc.returncode == 2 else None
        results.append((proc.returncode, proc.stdout, written, usage))
    return results


def _numbers_only(a, b, path="") -> float:
    """Largest |a - b| over the numbers of two JSON values of one shape; raises
    ValueError where the shapes or any non-number differ."""
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        if type(a) is not type(b):
            raise ValueError(f"{path or '/'}: {type(a).__name__} against {type(b).__name__}")
        if isinstance(a, dict):
            if list(a) != list(b):
                raise ValueError(f"{path or '/'}: keys differ")
            return max((_numbers_only(a[k], b[k], f"{path}/{k}") for k in a), default=0.0)
        if isinstance(a, list):
            if len(a) != len(b):
                raise ValueError(f"{path or '/'}: length {len(a)} against {len(b)}")
            return max((_numbers_only(x, y, f"{path}/{i}") for i, (x, y) in enumerate(zip(a, b))),
                       default=0.0)
        if a != b:
            raise ValueError(f"{path or '/'}: {a!r} against {b!r}")
        return 0.0
    return abs(a - b)


def _difference(a, b) -> str:
    """How two texts (str or bytes) differ: in numbers only, with the largest difference,
    or where not."""
    try:
        docs = json.loads(a), json.loads(b)
    except ValueError:
        return "differs, and is not JSON on both sides"
    try:
        return f"numbers only, largest difference {_numbers_only(*docs):.3g}"
    except ValueError as err:
        return f"differs: {err}"


def compare(commands: list, parent: list, change: list, dirs: tuple) -> dict:
    """command text -> the lines that say how its two runs differ, for each command that differs."""
    out = {}
    for (cmd, extra), (pc, po, pw, pe), (cc, co, cw, ce) in zip(commands, parent, change):
        lines = []
        if pc != cc:
            lines.append(f"exit code {pc} -> {cc}")
        if po != co:
            lines.append(f"stdout {_difference(po, co)}\n      parent: {po.strip()[:300]}"
                         f"\n      change: {co.strip()[:300]}")
        if pe != ce:
            lines.append(f"usage text\n      parent: {(pe or '').strip()[:300]}"
                         f"\n      change: {(ce or '').strip()[:300]}")
        for f in sorted(set(pw) | set(cw)):
            if f not in pw or f not in cw:
                lines.append(f"writes {f} on the {'change' if f in cw else 'parent'} side only")
            elif pw[f] != cw[f]:
                lines.append(f"{f} {_difference(*((d / f).read_bytes() for d in dirs))}")
        if lines:
            out[" ".join([*(f"{k}={v}" for k, v in extra.items()), *cmd.split()])] = lines
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent commit")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--only", help="run only the commands whose text contains this")
    args = ap.parse_args(argv)
    commands = [c for c in COMMANDS if not args.only or args.only in c[0]]
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        dirs = (Path(a), Path(b))
        parent = run_tree(args.parent.resolve(), dirs[0], commands)
        change = run_tree(args.change.resolve(), dirs[1], commands)
        diffs = compare(commands, parent, change, dirs)
    for name, lines in diffs.items():
        print(name + "\n    " + "\n    ".join(lines))
    codes = sorted({result[0] for result in change})
    print(f"{len(commands)} commands, {len(commands) - len(diffs)} identical in exit code, "
          f"stdout, usage text and written files; the change exits " + ", ".join(
              f"{c} in {sum(r[0] == c for r in change)}" for c in codes))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
