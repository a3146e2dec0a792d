"""Unified command-line front end.

Every invocation runs one experiment and writes exactly one JSON document
to stdout (or --out); nothing else is printed on stdout.  Exit codes:
0 success, 1 domain error (the document is {"error_kind", "detail"}),
2 usage error.  A --config file supplies defaults for any flag not given
on the command line; explicit flags win, and a name that is a flag of no
subcommand is bad_input.  (seed, flags) fully determines the report bytes.
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
        "state": qsim.state_dump(note.state),
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


# -- parser ------------------------------------------------------------------


def _hex(text: str) -> str:
    bytes.fromhex(text)  # raises ValueError, which argparse reports as a usage error
    return text


def _add_key_opts(p):
    p.add_argument("--key", help="key file (JSON)")
    p.add_argument("--n", type=int, help="digest bits (when no --key)")
    p.add_argument("--m", type=int, help="input bits (when no --key)")
    p.add_argument("--key-seed", type=int, default=0, help="seed for ad-hoc keygen")


def _config_value(action: argparse.Action, value):
    """A --config value checked against the flag it sets.

    A store_true flag takes a JSON bool; a typed flag takes a string its type
    parses, or a value of exactly that type.
    """
    kind = bool if isinstance(action, argparse._StoreTrueAction) else action.type or str
    if type(value) is kind:
        return value
    if isinstance(value, str) and kind is not bool:
        try:
            return kind(value)
        except ValueError:
            pass
    flag = action.option_strings[0]
    raise BadInput(f"config value {value!r} does not fit {flag} ({kind.__name__})")


def _add_common(p, func):
    """Flags every subcommand has; func returns the command's report, and parser
    is the subcommand's own parser, whose defaults a --config file replaces."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--config", help="JSON file of default flag values")
    p.set_defaults(func=func, parser=p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="boltlab")
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hash").add_subparsers(dest="sub", required=True)
    p = h.add_parser("keygen")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p, _cmd_hash_keygen)
    p = h.add_parser("eval")
    _add_key_opts(p)
    p.add_argument("--x", required=True, type=_hex, help="input as a hex bitstring")
    _add_common(p, _cmd_hash_eval)

    a = sub.add_parser("attack").add_subparsers(dest="sub", required=True)
    p = a.add_parser("collide")
    _add_key_opts(p)
    p.add_argument("--max-tries", type=int, default=64)
    _add_common(p, _cmd_attack_collide)
    p = a.add_parser("multicollide")
    _add_key_opts(p)
    p.add_argument("--k", type=int, required=True, help="number of difference vectors")
    p.add_argument("--max-tries", type=int, default=64)
    _add_common(p, _cmd_attack_multicollide)
    p = a.add_parser("affine-space")
    _add_key_opts(p)
    p.add_argument("--r", type=int, required=True, help="space dimension")
    p.add_argument("--max-tries", type=int, default=64)
    _add_common(p, _cmd_attack_affine)

    l = sub.add_parser("lightning").add_subparsers(dest="sub", required=True)
    p = l.add_parser("setup")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--u", type=int, default=3)
    _add_common(p, _cmd_lightning_setup)
    for name, fn in [
        ("gen", _cmd_lightning_gen),
        ("verify", _cmd_lightning_verify),
        ("game", _cmd_lightning_game),
        ("collapse", _cmd_lightning_collapse),
        ("minentropy", _cmd_lightning_minentropy),
    ]:
        p = l.add_parser(name)
        _add_key_opts(p)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--u", type=int, default=3)
        if name == "gen":
            p.add_argument(
                "--mode",
                default=lightning.MODE_PRODUCT,
                choices=[lightning.MODE_PRODUCT, lightning.MODE_JOINT],
            )
        if name == "verify":
            p.add_argument("--bolt", required=True)
        if name in ("verify", "game"):
            p.add_argument(
                "--strategy", default="oracle", choices=["oracle", "circuit"]
            )
        if name == "game":
            p.add_argument("--storm", required=True)
            p.add_argument("--trials", type=int, default=100)
        if name == "minentropy":
            p.add_argument("--storm", default="honest")
            p.add_argument("--trials", type=int, default=100)
        if name == "collapse":
            p.add_argument("--trials", type=int, default=0)
        _add_common(p, fn)

    mny = sub.add_parser("money").add_subparsers(dest="sub", required=True)
    p = mny.add_parser("gen")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, _cmd_money_gen)
    p = mny.add_parser("verify")
    p.add_argument("--note", required=True)
    _add_common(p, _cmd_money_verify)
    p = mny.add_parser("counterfeit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--adversary", default="measure-copy")
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p, _cmd_money_counterfeit)

    b = sub.add_parser("bound").add_subparsers(dest="sub", required=True)
    p = b.add_parser("conversion")
    p.add_argument("--problem", required=True)
    _add_common(p, _cmd_bound_conversion)
    p = b.add_parser("cloning")
    p.add_argument("--problem", required=True)
    p.add_argument("--copies", type=int, default=2)
    _add_common(p, _cmd_bound_cloning)
    p = b.add_parser("subspace-example")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--analytic", action="store_true")
    _add_common(p, _cmd_bound_subspace)

    r = sub.add_parser("randomness").add_subparsers(dest="sub", required=True)
    p = r.add_parser("prove")
    _add_key_opts(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--u", type=int, default=3)
    p.add_argument("--proof", required=True, help="path for the bolt file")
    _add_common(p, _cmd_randomness_prove)
    p = r.add_parser("verify")
    _add_key_opts(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--u", type=int, default=3)
    p.add_argument("--proof", required=True)
    p.add_argument("--serial", type=_hex, help="expected serial (hex); defaults to the proof's")
    _add_common(p, _cmd_randomness_verify)

    return ap


def _parse_config(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("a config file holds one JSON object of flag values")
    return {k.replace("-", "_"): v for k, v in doc.items()}


def _flag_names(parser: argparse.ArgumentParser) -> set:
    """Destination names of the flags of parser and of every subcommand under it."""
    subs = [p for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            for p in a.choices.values()]
    return {a.dest for a in parser._actions}.union(*map(_flag_names, subs))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = _load(args.config, _parse_config)
            unknown = sorted(set(config) - _flag_names(parser))
            if unknown:
                raise BadInput(f"config names no flag of any command: {', '.join(unknown)}")
            # only the chosen command's flags take the file's values, so a value that does
            # not fit fails only the command that reads it; explicit flags still win
            actions = [a for a in args.parser._actions if a.dest in config]
            args.parser.set_defaults(**{a.dest: _config_value(a, config[a.dest]) for a in actions})
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
