"""Unified command-line front end.

Every invocation runs one experiment and writes exactly one JSON document
to stdout (or --out); nothing else is printed on stdout.  Exit codes:
0 success, 1 domain error (the document is {"error_kind", "detail"}),
2 usage error.  A --config file supplies defaults for any flag not given
on the command line; explicit flags win, and a name that is a flag of no
subcommand is bad_input.  (seed, flags) fully determines the report bytes at
a fixed BLAS thread count; a BLAS sum's order, and so its last digit, may
depend on how many threads share it.
``COMMANDS`` is the one list of the commands and their flags.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import Any, Callable, Optional

import numpy as np

from . import bounds, jsonio, lightning, money, qsim
from .attacks import (
    find_affine_collision_space,
    find_collision,
    find_nonaffine_multicollision,
)
from .errors import BadInput, BoltlabError, PreconditionError
from .gf2 import BitMatrix, BitVector, enumerate_affine
from .mqhash import HashKey, eval_digest, keygen

SIZE_LIMITS = {"n": 64, "m": 64, "k": 64, "q": 16, "trials": 10**6, "max_tries": 10**6}


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise PreconditionError(f"seed {seed} is negative")
    return np.random.default_rng(seed)


def _emit(doc: dict, out: Optional[str]):
    if out:
        try:
            with open(out, "wb") as fh:
                jsonio.dump(doc, fh)
                fh.write(b"\n")
        except OSError as err:
            raise BadInput(f"{out}: {type(err).__name__}: {err}") from err
    else:
        sys.stdout.write(jsonio.dumps(doc) + "\n")


def _load(path: str, parse: Callable[[Any], Any]):
    """Read a JSON input file a chunk at a time and parse it into program objects.

    A missing or unreadable file, text that is not JSON, and a document
    without the fields or shapes the parser needs are all bad_input errors.
    Domain errors the parser raises itself keep their own kind.
    """
    try:
        with open(path, "rb") as fh:  # open while parse reads the document's Texts
            return parse(jsonio.load(fh))
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
        raise BadInput(f"{path}: {type(err).__name__}: {err}") from err


def _load_key(args) -> tuple:
    """The key and the params its file records (None without them, or for an ad-hoc key)."""
    if getattr(args, "key", None):
        return _load(args.key, lambda doc: (HashKey.from_json(doc), doc.get("params")))
    if args.n is None or args.m is None:
        raise PreconditionError("give --key FILE or both --n and --m")
    return keygen(args.n, args.m, _rng(args.key_seed)), None


def _params(args) -> tuple:
    """The key and the lightning parameters of --k and --u, which must be the params
    that the key file records (``lightning setup`` writes them)."""
    key, saved = _load_key(args)
    params = lightning.LightningParams(n=key.n, m=key.m, k=args.k, u=args.u)
    if saved is not None and saved != asdict(params):
        raise PreconditionError(f"the key file was set up with {saved}, not k={args.k}, u={args.u}")
    return key, params


# -- subcommand bodies -----------------------------------------------------


def _cmd_hash_keygen(args):
    key = keygen(args.n, args.m, _rng(args.seed))
    return key.to_json(seed=args.seed)


def _cmd_hash_eval(args):
    key, _ = _load_key(args)
    x = BitVector.from_hex(args.x, key.m)
    y = eval_digest(key, x)
    return {"x": x.to_hex(), "digest": y.to_hex(), "digest_bits": y.n}


def _cmd_attack_collide(args):
    key, _ = _load_key(args)
    x, xp, delta, tries, hist = find_collision(key, _rng(args.seed), args.max_tries)
    return {
        "points": [x.to_hex(), xp.to_hex()],
        "delta": delta.to_hex(),
        "digest": eval_digest(key, x).to_hex(),
        "tries": tries,
        "rank_history": list(hist),
    }


def _cmd_attack_multicollide(args):
    key, _ = _load_key(args)
    mc = find_nonaffine_multicollision(key, args.k, _rng(args.seed), args.max_tries)
    return {
        "points": [p.to_hex() for p in mc.points],
        "digest": mc.digest.to_hex(),
        "tries": mc.tries,
        "rank_history": list(mc.rank_history),
        "nonaffine": True,
    }


def _cmd_attack_affine(args):
    key, _ = _load_key(args)
    space, digest, tries, hist = find_affine_collision_space(
        key, args.r, _rng(args.seed), args.max_tries
    )
    points = [p.to_hex() for p in enumerate_affine(space)] if space.dim <= 12 else []
    return {
        "offset": space.offset.to_hex(),
        "basis": [BitVector(r, key.m).to_hex() for r in space.basis.rows],
        "dimension": space.dim,
        "digest": digest.to_hex(),
        "tries": tries,
        "rank_history": list(hist),
        "points": points,
    }


def _cmd_lightning_setup(args):
    lightning.LightningParams(args.n, args.m, args.k, args.u)  # refuses a block no command accepts
    key = keygen(args.n, args.m, _rng(args.seed))
    doc = key.to_json(seed=args.seed)
    doc["params"] = {"n": args.n, "m": args.m, "k": args.k, "u": args.u}
    return doc


def _cmd_lightning_gen(args):
    key, params = _params(args)
    bolt = lightning.gen_bolt(key, params, _rng(args.seed), mode=args.mode)
    return lightning.bolt_to_json(bolt)


def _verify_report(key, params, bolt, seed: int, strategy: str, claimed) -> tuple:
    """Verify a bolt read from a file: its result, and the report fields that
    ``lightning verify`` and ``randomness verify`` share.  The exact acceptance
    probability is that of a product bolt's unentangled registers, null for a joint one."""
    exact = None
    if bolt.mode == lightning.MODE_PRODUCT:
        exact = lightning.full_verify_acceptance(key, params, bolt, strategy)
    res = lightning.full_verify(key, params, bolt, _rng(seed), strategy=strategy)
    return res, {
        "accepted": res.accepted,
        "serial": res.serial.to_hex() if res.serial else None,
        "claimed_serial": claimed.to_hex(),
        "serial_match": bool(res.accepted and res.serial == claimed),
        "exact_acceptance_probability": exact,
    }


def _cmd_lightning_verify(args):
    key, params = _params(args)
    bolt = _load(args.bolt, lightning.bolt_from_json)
    res, doc = _verify_report(key, params, bolt, args.seed, args.strategy, bolt.serial)
    return {"outcome": res.outcome, **doc}


def _cmd_lightning_game(args):
    key, params = _params(args)
    storm = lightning.BUILTIN_STORMS.get(args.storm)
    if storm is None:
        raise PreconditionError(f"unknown storm {args.storm!r}")
    report = lightning.uniqueness_game(
        key, params, storm, args.trials, _rng(args.seed), strategy=args.strategy
    )
    return {"storm": args.storm, **report}


def _cmd_lightning_collapse(args):
    key, params = _params(args)
    doc = lightning.collapsing_advantage_exact(key)
    rng = _rng(args.seed)
    runs = {"b0_ones": 0, "b1_ones": 0}
    for _ in range(args.trials):
        runs["b0_ones"] += lightning.collapsing_experiment(key, params, 0, rng)
        runs["b1_ones"] += lightning.collapsing_experiment(key, params, 1, rng)
    doc["sampled"] = {"trials": args.trials, **runs}
    return doc


def _cmd_lightning_minentropy(args):
    key, params = _params(args)
    producers = {
        "honest": lightning.gen_bolt,
        "constant": lightning.constant_serial_producer,
        "classical": lightning.classical_point_producer,
    }
    producer = producers.get(args.storm)
    if producer is None:
        raise PreconditionError(f"unknown producer {args.storm!r}")
    report = lightning.minentropy_probe(key, params, producer, args.trials, _rng(args.seed))
    return {"storm": args.storm, **report}


def _cmd_money_gen(args):
    note = money.money_gen(args.n, _rng(args.seed))
    return {
        "n": args.n,
        "serial": note.serial,
        "subspace": [BitVector(r, args.n).to_hex() for r in note.subspace.rows],
        "state": qsim.state_dump(note),
    }


def _parse_note(doc) -> tuple:
    state, n = qsim.state_load(doc["state"]), jsonio.integer(doc, "n")
    if n != state.num_qubits:
        raise PreconditionError(f"a note of {n} qubits holds a {state.num_qubits}-qubit state")
    return n, BitMatrix(tuple(BitVector.from_hex(h, n).bits for h in doc["subspace"]), n), state


def _cmd_money_verify(args):
    n, basis, state = _load(args.note, _parse_note)
    rng = _rng(args.seed)
    analysis = money.money_verify_analysis(state, basis)
    return {
        "n": n,
        "exact_acceptance_probability": analysis.probability,
        "projective_probability": analysis.projective,
        "sampled_accept": analysis.accepts(rng),
    }


def _cmd_money_counterfeit(args):
    adv = money.BUILTIN_ADVERSARIES.get(args.adversary)
    if adv is None:
        raise PreconditionError(f"unknown adversary {args.adversary!r}")
    report = money.counterfeit_experiment(args.n, adv, args.trials, _rng(args.seed))
    exact_expected = {
        "measure-copy": 2.0 ** (-args.n),
        "fixed-guess": 2.0 ** (-args.n),
        "honest-forward": 2.0 ** (-args.n / 2),
    }[args.adversary]
    return {"n": args.n, "adversary": args.adversary, **report, "exact_expected": exact_expected}


def _states_from_docs(docs) -> tuple:
    return tuple(qsim.state_load(d) for d in docs)


def _parse_conversion(doc) -> tuple:
    """The arguments of ``bounds.conversion_bound``; a "d" must be the input states' size."""
    family1, family2 = _states_from_docs(doc["family1"]), _states_from_docs(doc["family2"])
    if doc.get("d", family1[0].amps.size) != family1[0].amps.size:
        raise ValueError(f"d = {doc['d']!r} is not the input states' size {family1[0].amps.size}")
    return family1, family2, [float(p) for p in doc["prior"]]


def _parse_cloning(doc) -> tuple:
    return _states_from_docs(doc["states"]), [float(p) for p in doc["prior"]]


def _cmd_bound_conversion(args):
    return bounds.conversion_bound(*_load(args.problem, _parse_conversion)).to_json()


def _cmd_bound_cloning(args):
    states, prior = _load(args.problem, _parse_cloning)
    return bounds.cloning_bound(states, prior, args.copies).to_json()


def _cmd_bound_subspace(args):
    if args.analytic:
        return bounds.subspace_example_analytic(args.n, args.q)
    if args.q != 2:
        raise PreconditionError("exact enumeration requires q=2 (use --analytic)")
    return bounds.subspace_example_exact(args.n)


def _cmd_randomness_prove(args):
    key, params = _params(args)
    bolt = lightning.gen_bolt(key, params, _rng(args.seed))
    _emit(lightning.bolt_to_json(bolt), args.proof)
    return {"serial": bolt.serial.to_hex(), "proof": args.proof}


def _cmd_randomness_verify(args):
    key, params = _params(args)
    bolt = _load(args.proof, lightning.bolt_from_json)
    claimed = BitVector.from_hex(args.serial, key.n) if args.serial else bolt.serial
    return _verify_report(key, params, bolt, args.seed, lightning.ORACLE, claimed)[1]


# -- command table -------------------------------------------------------------


def _hex(text: str) -> str:
    bytes.fromhex(text)  # raises ValueError, which argparse reports as a usage error
    return text


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


KEY = {"--key": dict(help="key file (JSON)"),
       "--n": dict(type=int, help="digest bits (when no --key)"),
       "--m": dict(type=int, help="input bits (when no --key)"),
       "--key-seed": dict(type=int, default=0, help="seed for ad-hoc keygen")}
KU = {"--k": dict(type=int, default=2), "--u": dict(type=int, default=3)}
TRIES = {"--max-tries": dict(type=int, default=64)}
STRATEGY = {"--strategy": dict(default="oracle", choices=["oracle", "circuit"])}
COMMON = {"--seed": dict(type=int, default=0),  # every command's, after its own
          "--out": dict(help="write the report here instead of stdout"),
          "--config": dict(help="JSON file of default flag values")}

# group -> command -> (its report function, its own flags: name -> add_argument's keywords)
COMMANDS = {
    "hash": {
        "keygen": (_cmd_hash_keygen, {"--n": dict(type=int, required=True),
                                      "--m": dict(type=int, required=True)}),
        "eval": (_cmd_hash_eval, KEY | {
            "--x": dict(required=True, type=_hex, help="input as a hex bitstring")}),
    },
    "attack": {
        "collide": (_cmd_attack_collide, KEY | TRIES),
        "multicollide": (_cmd_attack_multicollide, KEY | {
            "--k": dict(type=int, required=True, help="number of difference vectors")} | TRIES),
        "affine-space": (_cmd_attack_affine, KEY | {
            "--r": dict(type=int, required=True, help="space dimension")} | TRIES),
    },
    "lightning": {
        "setup": (_cmd_lightning_setup, {"--n": dict(type=int, default=2),
                                         "--m": dict(type=int, default=12)} | KU),
        "gen": (_cmd_lightning_gen, KEY | KU | {
            "--mode": dict(default=lightning.MODE_PRODUCT,
                           choices=[lightning.MODE_PRODUCT, lightning.MODE_JOINT])}),
        "verify": (_cmd_lightning_verify, KEY | KU | {"--bolt": dict(required=True)} | STRATEGY),
        "game": (_cmd_lightning_game, KEY | KU | STRATEGY | {
            "--storm": dict(required=True), "--trials": dict(type=int, default=100)}),
        "collapse": (_cmd_lightning_collapse, KEY | KU | {"--trials": dict(type=int, default=0)}),
        "minentropy": (_cmd_lightning_minentropy, KEY | KU | {
            "--storm": dict(default="honest"), "--trials": dict(type=int, default=100)}),
    },
    "money": {
        "gen": (_cmd_money_gen, {"--n": dict(type=int, required=True)}),
        "verify": (_cmd_money_verify, {"--note": dict(required=True)}),
        "counterfeit": (_cmd_money_counterfeit, {
            "--n": dict(type=int, required=True), "--adversary": dict(default="measure-copy"),
            "--trials": dict(type=int, default=1000)}),
    },
    "bound": {
        "conversion": (_cmd_bound_conversion, {"--problem": dict(required=True)}),
        "cloning": (_cmd_bound_cloning, {"--problem": dict(required=True),
                                         "--copies": dict(type=int, default=2)}),
        "subspace-example": (_cmd_bound_subspace, {
            "--n": dict(type=int, required=True), "--q": dict(type=int, default=2),
            "--analytic": dict(action="store_true")}),
    },
    "randomness": {
        "prove": (_cmd_randomness_prove, KEY | KU | {
            "--proof": dict(required=True, help="path for the bolt file")}),
        "verify": (_cmd_randomness_verify, KEY | KU | {
            "--proof": dict(required=True),
            "--serial": dict(type=_hex, help="expected serial (hex); defaults to the proof's")}),
    },
}
# the names a --config file may set: the flags of every command
FLAG_NAMES = {_dest(name) for commands in COMMANDS.values() for _, flags in commands.values()
              for name in flags | COMMON}


def build_parser(argv: list) -> argparse.ArgumentParser:
    """Every group and command name, and the flags of the one command that argv's first two
    words that are not options name.  The top-level and group parsers take no option but
    -h, so usage errors and help read as with every command's flags built."""
    ap = argparse.ArgumentParser(prog="boltlab")
    groups = ap.add_subparsers(dest="command", required=True)
    chosen = [word for word in argv if not word.startswith("-")][:2]
    for group, commands in COMMANDS.items():
        subs = groups.add_parser(group).add_subparsers(dest="sub", required=True)
        for name, (func, flags) in commands.items():
            p = subs.add_parser(name)
            if chosen == [group, name]:
                for flag, spec in (flags | COMMON).items():
                    p.add_argument(flag, **spec)
                p.set_defaults(func=func, parser=p)  # a --config file replaces p's defaults
    return ap


def _config_value(flag: str, spec: dict, value):
    """A --config value checked against its flag: a store_true flag takes a JSON bool, any
    other flag a string its type (or str) parses, or a value of exactly that type."""
    kind = bool if spec.get("action") == "store_true" else spec.get("type", str)
    if type(value) is kind:
        return value
    if isinstance(value, str) and kind is not bool:
        try:
            return kind(value)
        except ValueError:
            pass
    raise BadInput(f"config value {value!r} does not fit {flag} ({kind.__name__})")


def _parse_config(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("a config file holds one JSON object of flag values")
    return {k.replace("-", "_"): v for k, v in doc.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = _load(args.config, _parse_config)
            unknown = sorted(set(config) - FLAG_NAMES)
            if unknown:
                raise BadInput(f"config names no flag of any command: {', '.join(unknown)}")
            # only the chosen command's flags take the file's values, so a value that does
            # not fit fails only the command that reads it; explicit flags still win
            flags = COMMANDS[args.command][args.sub][1] | COMMON
            args.parser.set_defaults(**{_dest(flag): _config_value(flag, spec, config[_dest(flag)])
                                        for flag, spec in flags.items() if _dest(flag) in config})
            args = parser.parse_args(argv)
        for name, limit in SIZE_LIMITS.items():  # from a flag or --config, before any work starts
            value = getattr(args, name, None)
            if not 0 <= (value or 0) <= limit:
                raise PreconditionError(f"{name} {value} outside 0..{limit}")
        _emit(args.func(args), args.out)
    except BoltlabError as err:
        _emit(err.report(), None)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
