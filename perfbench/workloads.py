"""The benchmark's workloads: fixed inputs, timed command lists, output checks.

Each workload is a closed loop with one client that runs its command list
one command after another, each command a fresh ``boltlab`` process.  The
fixed inputs (keys, honest bolts) are written by set-up commands.  Every
check compares a report with a computation in reference.py or with a
property the method must have, never with a stored copy of earlier output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

KEY_SEED = 7  # the README's `lightning setup --n 2 --m 12 --seed 7`
DESK_KEY = (2, 12)  # (n, m)
WIDE_KEY = (2, 20)
K = 2  # registers per bolt minus one: the CLI default --k

DESK_TRIALS = {"minentropy": 600, "cheat-duplicate": 120, "affine-attack": 60,
               "classical": 200, "collapse": 200}
CIRCUIT_BOLTS = 2
CIRCUIT_VERIFY_SEEDS = 2
CIRCUIT_GAME_TRIALS = 100
WIDE_GAME_TRIALS = 1
WIDE_MONEY_N = 20
COUNTERFEIT_TRIALS = {4: 6000, 8: 1200}


class CheckFailed(Exception):
    """A report contradicts its reference or a required property."""


class KnownFault(CheckFailed):
    """The one check that fails on every run because of a documented fault."""


def expect(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


def close(a, b, tol: float) -> bool:
    return a is not None and abs(float(a) - float(b)) <= tol


@dataclass
class Command:
    args: list  # arguments after `boltlab`
    check: Callable[[dict, "Context"], None]
    out: Optional[Path] = None  # the report is this file instead of stdout
    trials: Callable[[dict], int] = lambda doc: 0


@dataclass
class Workload:
    setup: list  # of Command, rerun for every set-up repetition
    commands: list  # of Command, one round
    prepare: Callable[["Context"], None] = lambda ctx: None
    min_rounds: int = 3  # the timed metrics are per-command medians over the rounds


@dataclass
class Context:
    """Reference data for one run."""

    work: Path
    table: Optional[np.ndarray] = None
    n: int = 0
    m: int = 0
    fibers: Optional[np.ndarray] = None
    bolts: dict = field(default_factory=dict)  # path -> (serial, oracle exact)
    circuit_exact: dict = field(default_factory=dict)  # serial -> circuit exact acceptance

    def load_key(self, path: Path):
        doc = json.loads(path.read_text())
        self.n, self.m = int(doc["n"]), int(doc["m"])
        self.table = ref.digest_table(doc)
        self.fibers = np.bincount(self.table, minlength=1 << self.n)

    def serial_probs(self) -> dict:
        """Distribution of an honest bolt's serial: fiber size / 2^m."""
        return {_hex(y, self.n): c / self.table.size for y, c in enumerate(self.fibers) if c}


def _hex(value: int, bits: int) -> str:
    return value.to_bytes((bits + 7) // 8, "little").hex()


def _unhex(text: str) -> int:
    return int.from_bytes(bytes.fromhex(text), "little")


def _trials(doc: dict) -> int:
    return doc["trials"]


# -- checks shared by several workloads -----------------------------------------


def check_key(doc: dict, n: int, m: int):
    _, _, mats = ref.key_matrices(doc)
    expect(doc["n"] == n and doc["m"] == m and len(mats) == n, "key has the wrong shape")
    for rows in mats:
        expect(all(r & ((1 << j) - 1) == 0 for j, r in enumerate(rows)),
               "key matrix has entries below the diagonal")


def check_honest_bolt(doc: dict, ctx: Context):
    """Each register is uniform over the preimages of the serial."""
    serial = _unhex(doc["serial"])
    expect(doc["mode"] == "idealized-product" and doc["k"] == K and doc["m"] == ctx.m,
           "bolt header differs from the key and the CLI defaults")
    expect(len(doc["registers"]) == K + 1, "bolt does not hold k+1 registers")
    fiber = np.flatnonzero(ctx.table == serial)
    expect(fiber.size > 0, "serial has no preimages")
    amp = 1.0 / math.sqrt(fiber.size)
    for reg in doc["registers"]:
        expect(reg["num_qubits"] == ctx.m, "register width differs from m")
        entries = reg["entries"]
        idx = np.array([int(e[0], 16) for e in entries], dtype=np.int64)
        expect(np.array_equal(np.sort(idx), fiber), "register support is not the preimage set")
        expect(all(abs(e[1] - amp) <= 1e-12 and abs(e[2]) <= 1e-12 for e in entries),
               "register amplitudes are not uniform")


def check_honest_verify(doc: dict, ctx: Context):
    expect(close(doc["exact_acceptance_probability"], 1.0, 1e-9),
           f"honest bolt accepted with probability {doc['exact_acceptance_probability']}")
    expect(doc["accepted"] and doc["serial_match"] and doc["serial"] == doc["claimed_serial"],
           "honest bolt was not accepted with its own serial")


def check_game_counts(doc: dict, ctx: Context, storm: str, trials: int):
    expect(doc["storm"] == storm and doc["trials"] == trials, "game echoes the wrong flags")
    expect(sum(doc["serial_counts"].values()) == doc["accepts"] <= trials,
           "serial counts do not add up to the accepts")
    expect(doc["witness_count"] <= doc["accepts"], "more witnesses than accepts")
    expect(close(doc["empirical_rates"]["accept"], doc["accepts"] / trials, 1e-15),
           "accept rate is not accepts / trials")
    probs = ctx.serial_probs()
    expect(set(doc["serial_counts"]) <= set(probs), "accepted serial has no preimages")


def check_fit(counts: dict, ctx: Context, what: str):
    stat, threshold = ref.chi2_fit(counts, ctx.serial_probs())
    expect(stat <= threshold,
           f"{what}: chi-squared {stat:.1f} above {threshold:.1f} against fiber sizes")


def check_oracle_game_all_accept(doc: dict, ctx: Context, storm: str, trials: int):
    check_game_counts(doc, ctx, storm, trials)
    expect(ref.binomial_in_band(doc["accepts"], trials, 1.0),
           f"{storm}: {doc['accepts']} of {trials} in-span pairs accepted, expected all")


# -- lightning-desk ---------------------------------------------------------------


def check_minentropy(doc: dict, ctx: Context):
    trials = DESK_TRIALS["minentropy"]
    expect(doc["storm"] == "honest" and doc["trials"] == trials, "echoes the wrong flags")
    expect(ref.binomial_in_band(doc["accepted"], trials, 1.0), "honest bolts were rejected")
    counts = doc["serial_counts"]
    expect(sum(counts.values()) == doc["accepted"], "serial counts do not add up")
    check_fit(counts, ctx, "honest serials")
    expect(close(doc["estimate_bits"], -math.log2(max(counts.values()) / doc["accepted"]), 1e-12),
           "estimate_bits is not -log2 of the modal frequency")
    exact = -math.log2(ctx.fibers.max() / ctx.table.size)
    expect(close(doc["exact_digest_minentropy"], exact, 1e-12),
           f"exact_digest_minentropy {doc['exact_digest_minentropy']} differs from {exact}")


def check_cheat_duplicate(doc: dict, ctx: Context):
    check_oracle_game_all_accept(doc, ctx, "cheat-duplicate", DESK_TRIALS["cheat-duplicate"])
    check_fit(doc["serial_counts"], ctx, "duplicated-bolt serials")


def check_affine_attack(doc: dict, ctx: Context):
    check_oracle_game_all_accept(doc, ctx, "affine-attack", DESK_TRIALS["affine-attack"])
    r = K + 1  # the storm's affine-space dimension, feasible at n=2, m=12
    for serial in doc["serial_counts"]:
        expect(ctx.fibers[_unhex(serial)] >= 1 << r,
               "attacked serial's fiber cannot hold the affine collision space")


def check_classical(doc: dict, ctx: Context):
    trials = DESK_TRIALS["classical"]
    check_game_counts(doc, ctx, "classical", trials)
    # both bolts are |x>^(k+1); each register passes with 1/|fiber(f(x))|
    sizes = ctx.fibers[ctx.table].astype(np.float64)
    p = float(np.mean(sizes ** (-2.0 * (K + 1))))
    expect(ref.binomial_in_band(doc["accepts"], trials, p),
           f"classical storm: {doc['accepts']} accepts against exact rate {p:.3g}")


def check_collapse(doc: dict, ctx: Context):
    p1 = int((ctx.fibers > 0).sum()) / ctx.table.size
    expect(doc["p_accept_b0"] == 1.0, "b=0 branch does not accept with probability 1")
    expect(close(doc["p_accept_b1"], p1, 1e-15),
           f"p_accept_b1 {doc['p_accept_b1']} differs from nonempty fibers / 2^m = {p1}")
    expect(close(doc["advantage"], 1.0 - p1, 1e-15), "advantage is not 1 - p_accept_b1")
    sampled = doc["sampled"]
    trials = DESK_TRIALS["collapse"]
    expect(sampled["trials"] == trials, "echoes the wrong trial count")
    expect(ref.binomial_in_band(sampled["b0_ones"], trials, 1.0), "b=0 runs rejected")
    expect(ref.binomial_in_band(sampled["b1_ones"], trials, p1), "b=1 runs off the exact rate")


def _key_path(work: Path) -> Path:
    return work / "key.json"


def lightning_desk(work: Path, seeds: list) -> Workload:
    key = str(_key_path(work))
    t = DESK_TRIALS
    commands = [
        Command(["lightning", "minentropy", "--key", key, "--storm", "honest",
                 "--trials", str(t["minentropy"]), "--seed", str(seeds[0])],
                check_minentropy, trials=_trials),
        Command(["lightning", "game", "--key", key, "--storm", "cheat-duplicate",
                 "--trials", str(t["cheat-duplicate"]), "--seed", str(seeds[1])],
                check_cheat_duplicate, trials=_trials),
        Command(["lightning", "game", "--key", key, "--storm", "affine-attack",
                 "--trials", str(t["affine-attack"]), "--seed", str(seeds[2])],
                check_affine_attack, trials=_trials),
        Command(["lightning", "game", "--key", key, "--storm", "classical",
                 "--trials", str(t["classical"]), "--seed", str(seeds[3])],
                check_classical, trials=_trials),
        Command(["lightning", "collapse", "--key", key,
                 "--trials", str(t["collapse"]), "--seed", str(seeds[4])],
                check_collapse, trials=lambda d: d["sampled"]["trials"]),
    ]
    return Workload(
        setup=[_setup_key(DESK_KEY, work)],
        commands=commands,
        prepare=lambda ctx: ctx.load_key(_key_path(work)),
    )


def _setup_key(shape: tuple, work: Path) -> Command:
    n, m = shape
    path = _key_path(work)
    return Command(["lightning", "setup", "--n", str(n), "--m", str(m), "--seed", str(KEY_SEED),
                    "--out", str(path)], lambda doc, ctx: check_key(doc, n, m), out=path)


# -- lightning-circuit ----------------------------------------------------------------


def check_circuit_verify(doc: dict, ctx: Context, bolt: Path):
    serial, oracle = ctx.bolts[bolt]
    exact = doc["exact_acceptance_probability"]
    expect(doc["claimed_serial"] == serial, "claimed serial differs from the bolt file")
    expect(exact is not None and -1e-12 <= exact <= oracle + 1e-9,
           f"circuit acceptance {exact} exceeds the oracle's {oracle} on the same bolt")
    expect(not doc["accepted"] or exact > 0, "accepted a bolt of acceptance probability 0")
    expect(not doc["accepted"] or doc["serial_match"], "accepted with a foreign serial")
    ctx.circuit_exact[serial] = exact


def check_circuit_game(doc: dict, ctx: Context):
    trials = CIRCUIT_GAME_TRIALS
    check_game_counts(doc, ctx, "cheat-duplicate", trials)
    # both bolts of a pair pass only if all 2(k+1) registers pass the circuit
    # test, so a serial's accepts are at most Binomial(trials, P(y) A(y)^2)
    for serial, p_serial in ctx.serial_probs().items():
        p = p_serial * ctx.circuit_exact.get(serial, 1.0) ** 2
        count = doc["serial_counts"].get(serial, 0)
        expect(ref.binomial_in_band(count, trials, p, upper_only=True),
               f"serial {serial}: {count} accepts above the exact rate {p:.3g}")


def lightning_circuit(work: Path, seeds: list) -> Workload:
    key = str(_key_path(work))
    bolts = [work / f"bolt{i}.json" for i in range(CIRCUIT_BOLTS)]
    setup = [_setup_key(DESK_KEY, work)]
    for i, path in enumerate(bolts):
        setup.append(Command(
            ["lightning", "gen", "--key", key, "--seed", str(seeds[i]), "--out", str(path)],
            check_honest_bolt, out=path))
    commands = []
    for i, path in enumerate(bolts):
        for j in range(CIRCUIT_VERIFY_SEEDS):
            seed = seeds[CIRCUIT_BOLTS + i * CIRCUIT_VERIFY_SEEDS + j]
            commands.append(Command(
                ["lightning", "verify", "--key", key, "--bolt", str(path),
                 "--strategy", "circuit", "--seed", str(seed)],
                lambda doc, ctx, path=path: check_circuit_verify(doc, ctx, path)))
    commands.append(Command(
        ["lightning", "game", "--key", key, "--storm", "cheat-duplicate", "--strategy", "circuit",
         "--trials", str(CIRCUIT_GAME_TRIALS), "--seed", str(seeds[-1])],
        check_circuit_game, trials=_trials))

    def prepare(ctx: Context):
        ctx.load_key(_key_path(work))
        for path in bolts:
            doc = json.loads(path.read_text())
            p = 1.0
            for reg in doc["registers"]:
                amps = np.zeros(1 << ctx.m)
                for idx, re, _ in reg["entries"]:
                    amps[int(idx, 16)] = re
                p *= ref.phi_span_acceptance(ctx.table, ctx.n, amps)
            expect(close(p, 1.0, 1e-9), f"honest bolt {path.name} leaves the phase span")
            ctx.bolts[path] = (doc["serial"], p)

    return Workload(setup, commands, prepare)


# -- lightning-wide --------------------------------------------------------------------


def check_note(doc: dict, ctx: Context):
    n = WIDE_MONEY_N
    rows = [_unhex(h) for h in doc["subspace"]]
    expect(doc["n"] == n and len(rows) == n // 2, "note is not half-dimensional")
    expect(ref.rank_gf2(rows) == n // 2, "note subspace basis is rank deficient")
    state = doc["state"]
    idx = sorted(int(e[0], 16) for e in state["entries"])
    expect(state["num_qubits"] == n and idx == ref.span_elements(rows),
           "note state is not supported on its subspace")
    amp = 2.0 ** (-n / 4)
    expect(all(abs(e[1] - amp) <= 1e-12 and abs(e[2]) <= 1e-12 for e in state["entries"]),
           "note amplitudes are not uniform")


def check_money_verify(doc: dict, ctx: Context):
    expect(doc["n"] == WIDE_MONEY_N, "verified note has the wrong size")
    expect(close(doc["exact_acceptance_probability"], 1.0, 1e-9)
           and close(doc["projective_probability"], 1.0, 1e-9),
           "honest note does not verify with probability 1")
    expect(doc["sampled_accept"] is True, "honest note was rejected")


def lightning_wide(work: Path, seeds: list) -> Workload:
    key = str(_key_path(work))
    bolt = work / "wide-bolt.json"
    note = work / "wide-note.json"
    commands = [
        Command(["lightning", "gen", "--key", key, "--seed", str(seeds[0]), "--out", str(bolt)],
                check_honest_bolt, out=bolt),
        Command(["lightning", "verify", "--key", key, "--bolt", str(bolt), "--seed", str(seeds[1])],
                check_honest_verify),
        Command(["lightning", "game", "--key", key, "--storm", "cheat-duplicate",
                 "--trials", str(WIDE_GAME_TRIALS), "--seed", str(seeds[2])],
                lambda doc, ctx: check_oracle_game_all_accept(
                    doc, ctx, "cheat-duplicate", WIDE_GAME_TRIALS),
                trials=_trials),
        Command(["money", "gen", "--n", str(WIDE_MONEY_N), "--seed", str(seeds[3]),
                 "--out", str(note)], check_note, out=note),
        Command(["money", "verify", "--note", str(note), "--seed", str(seeds[4])],
                check_money_verify),
    ]
    return Workload(
        setup=[_setup_key(WIDE_KEY, work)],
        commands=commands,
        prepare=lambda ctx: ctx.load_key(_key_path(work)),
        min_rounds=2,  # its commands run for seconds each, so two rounds are enough
    )


# -- subspace ---------------------------------------------------------------------------


def check_counterfeit(doc: dict, ctx: Context, n: int, adversary: str):
    trials = COUNTERFEIT_TRIALS[n]
    f2 = ref.counterfeit_mean_f2(adversary, n)
    expect(doc["n"] == n and doc["adversary"] == adversary and doc["trials"] == trials,
           "echoes the wrong flags")
    expect(close(doc["mean_f2"], f2, 1e-12), f"mean_f2 {doc['mean_f2']} differs from {f2}")
    expect(close(doc["exact_expected"], f2, 1e-15), "exact_expected is not the closed form")
    expect(close(doc["success_rate"], doc["successes"] / trials, 1e-15),
           "success_rate is not successes / trials")
    lo, hi = doc["wilson_95"]
    expect(0.0 <= lo <= doc["success_rate"] <= hi <= 1.0, "Wilson interval misses the rate")
    # a trial succeeds when both copies pass, with probability f2
    expect(ref.binomial_in_band(doc["successes"], trials, f2),
           f"{doc['successes']} successes off the exact rate {f2}")


def check_subspace_exact(doc: dict, ctx: Context):
    n = 6
    lam = float(ref.half_subspace_lambda1(n))
    count = ref.gaussian_binomial(n, n // 2)
    expect(doc["n"] == n and doc["subspace_count"] == count == doc["expected_count"],
           f"subspace count {doc['subspace_count']} differs from [6,3]_2 = {count}")
    expect(close(doc["lambda1"], lam, 1e-12), f"lambda1 {doc['lambda1']} differs from {lam}")
    expect(close(doc["f2_bound_raw"], 2 ** n * lam, 1e-12), "f2_bound_raw is not 2^n lambda1")
    expect(doc["lambda1_ok"] == (lam <= doc["lambda1_cap"] + 1e-12),
           "lambda1_ok disagrees with the exact lambda1 against the cap")
    expect(close(doc["lambda1_cap"], 2.0 * 2.0 ** (-3 * n / 2), 1e-18), "wrong lambda1 cap")


def check_subspace_analytic(doc: dict, ctx: Context):
    n = 8
    lam = float(ref.half_subspace_lambda1(n))
    expect(doc["n"] == n and doc["q"] == 2, "echoes the wrong flags")
    expect(doc["subspace_count_gaussian"] == ref.gaussian_binomial(n, n // 2),
           "Gaussian count differs from [8,4]_2")
    # anything the report calls an upper bound must bound the exact value
    exact = {"lambda1_upper": lam, "f2_upper": 2 ** n * lam}
    for name, value in exact.items():
        if name in doc and doc[name] < value:
            raise KnownFault(f"{name} = {doc[name]:.3e} is below the exact {value:.3e} "
                             "but is labelled an upper bound")


def subspace(work: Path, seeds: list) -> Workload:
    t = COUNTERFEIT_TRIALS
    commands = [
        Command(["money", "counterfeit", "--n", "4", "--adversary", "measure-copy",
                 "--trials", str(t[4]), "--seed", str(seeds[0])],
                lambda doc, ctx: check_counterfeit(doc, ctx, 4, "measure-copy"),
                trials=_trials),
        Command(["money", "counterfeit", "--n", "8", "--adversary", "honest-forward",
                 "--trials", str(t[8]), "--seed", str(seeds[1])],
                lambda doc, ctx: check_counterfeit(doc, ctx, 8, "honest-forward"),
                trials=_trials),
        Command(["bound", "subspace-example", "--n", "6"], check_subspace_exact),
        Command(["bound", "subspace-example", "--n", "8", "--analytic"], check_subspace_analytic),
    ]
    return Workload(setup=[], commands=commands)


WORKLOADS = {
    "lightning-desk": lightning_desk,
    "lightning-circuit": lightning_circuit,
    "lightning-wide": lightning_wide,
    "subspace": subspace,
}
