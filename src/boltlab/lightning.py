"""Quantum lightning over the degree-2 hash: bolts, verification, games.

A bolt is k+1 registers, each ideally the uniform superposition psi_y over
the inputs of one digest y (the serial number).  Verification projects
each register onto span{phi_r} = span{psi_z} (the two families span the
same space), then measures the hash to read the serial.  The psi_z of the
nonempty fibers have disjoint supports, so they are an orthonormal basis of
that span, and the projector replaces each amplitude by its fiber's mean.

Two generation modes: ``idealized-product`` gives psi_y^(k+1) directly;
``joint-micro`` builds, from its closed form, the state that the four-step
faithful generation (superposed difference vectors, colliding-space
construction, hash measurement, register remap) leaves, and is feasible only
at micro sizes.  The four steps themselves, on a dense array, are the test
reference.  Two verification strategies: ``oracle`` applies the ideal span
projector; ``circuit`` runs the coherent extraction from .extraction, which
at desk scale rejects a sizable rank-deficient fraction of honest mass (see
that module's docstring; the games below report the exact rates).

A register is a dense ``StateVector`` (tests, joint bolts, files of other
states), a ``qsim.SupportState`` (a file's uniform register) or a description,
``Fiber`` (psi_y) or ``Point`` (|x>), all that the built-in storms and
producers make.  The oracle analyses a register that is one whole fiber or one
point in closed form; the circuit strategy builds its amplitudes and drops
them.  Each distinct register is analysed once, on its key if a description,
and every verification of it draws from that analysis.  No verifier keeps a
post-state: a block that reads serial y is left as psi_y, so the analysis
keeps only the stage probabilities, the serial's Born CDF and, for a joint
bolt, the state of the blocks below along each psi_y.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .attacks import colliding_space_for_deltas, find_affine_collision_space, is_nonaffine
from .errors import EnumerationCapExceeded, PreconditionError
from .extraction import circuit_span_analysis
from .gf2 import ENUMERATION_CAP, AffineSpace, BitMatrix, BitVector, subspace_elements
from .mqhash import (Digest, HashKey, digest_table, eval_digest, fiber_counts, fiber_sums,
                     preimage_indices)
from . import jsonio, qsim
from .qsim import StateVector

MODE_PRODUCT = "idealized-product"
MODE_JOINT = "joint-micro"

ORACLE = "oracle"
CIRCUIT = "circuit"

ACCEPTED = "accepted"
SPAN_REJECT = "span_reject"
RANK_DEFICIENT = "rank_deficient"
SERIAL_MISMATCH = "serial_mismatch"


@dataclass(frozen=True)
class LightningParams:
    n: int
    m: int
    k: int
    u: int

    def __post_init__(self):
        if not self.n < self.m:
            raise PreconditionError("need n < m")
        if self.m < self.u * (self.n + 1):
            raise PreconditionError("need m >= u(n+1) for the extraction rounds")
        if self.u < self.n:
            raise PreconditionError("need u >= n rounds to determine the phase vector")
        if self.k < 1:
            raise PreconditionError("need k >= 1")
        if self.m > ENUMERATION_CAP:  # every command reads fiber sizes off the digest table
            raise EnumerationCapExceeded(f"m={self.m} exceeds enumeration cap {ENUMERATION_CAP}")


@dataclass(frozen=True)
class Bolt:
    serial: Digest
    mode: str
    registers: tuple  # product: k+1 registers over m qubits; joint: one joint state
    k: int


class _Description:
    """A register of m qubits, uniform over a support in one fiber, given by what it is: its
    amplitude is 1/sqrt(size), and ``amps`` builds its amplitudes anew on each read, for the
    circuit strategy or another key's analysis.  The key takes no part in equality, nor in
    ``slot``, its name in the key's cache: that would be a cycle."""

    num_qubits = property(lambda self: self.key.m)
    amp = property(lambda self: 1.0 / np.sqrt(self.size))  # the amplitude ``qsim.state_dump`` spells
    amps = qsim.SupportState.amps
    slot = property(lambda self: (type(self), *(
        getattr(self, f.name) for f in fields(self) if f.compare)))


@dataclass(frozen=True)
class Fiber(_Description):
    """psi_y, uniform over the inputs of a digest y that has some."""

    key: HashKey = field(compare=False, repr=False)
    y: Digest
    digest = property(lambda self: self.y)
    size = cached_property(lambda self: int(fiber_counts(self.key)[self.y.bits]))
    support = property(lambda self: preimage_indices(self.key, self.y))


@dataclass(frozen=True)
class Point(_Description):
    """The basis state |x>."""

    key: HashKey = field(compare=False, repr=False)
    x: BitVector
    digest = property(lambda self: eval_digest(self.key, self.x))
    size = 1
    support = property(lambda self: np.array([self.x.bits]))


@lru_cache(maxsize=16)
def span_states(key: HashKey) -> tuple:
    """The fibers whose uniform states psi_y span span{phi_r}, as (sizes, digests): the size
    and digest of each nonempty fiber, in increasing digest order.

    Only nonempty fibers are listed, and no per-input order is kept: ``mqhash.fiber_sums``
    finds a fiber's inputs anew by a mask of the digest table.
    """
    counts = fiber_counts(key)
    return counts[counts > 0], np.flatnonzero(counts)


@dataclass(frozen=True)
class RegisterAnalysis:
    """Stages (pass probability clipped at 1, reject kind) in draw order; when all
    pass, ``below[y]``, the amplitudes of the qubits below the top m-qubit block
    along psi_y (one amplitude for an m-qubit register), and ``qsim.born_cdf`` of
    the serial's Born table, |below[y]|^2 summed."""

    stages: tuple
    below: Optional[np.ndarray]
    cdf: Optional[tuple]


def _fiber_of(key: HashKey, register) -> Optional[int]:
    """The digest y of a description, or of an m-qubit ``SupportState`` whose support is one
    point or all of y's fiber; None for any other register."""
    if isinstance(register, _Description):
        return register.digest.bits
    if isinstance(register, qsim.SupportState) and register.num_qubits == key.m:
        table, support = digest_table(key), register.support
        y = int(table[support[0]])
        if support.size in (1, fiber_counts(key)[y]) and (table[support] == y).all():
            return y
    return None


def register_analysis(key: HashKey, params: LightningParams, register,
                      strategy: str = ORACLE) -> RegisterAnalysis:
    """The analysis of the register's top m-qubit block, computed once per register.

    Both strategies leave the block in span{psi_y}, so reading serial y leaves it as
    psi_y, and the rest of a wider register as below[y], normalised; nothing else of
    the post-state is kept.  The oracle's projector replaces each amplitude by its
    fiber's mean, from ``mqhash.fiber_sums``, which holds one byte per input and one
    fiber's rows beside the register.  A register that is one point or one whole fiber
    (``_fiber_of``) gives that fiber's sum as ``fiber_sums`` does, from its one amplitude
    broadcast, so its analysis is that of its amplitudes, none built.  A description's
    analysis is kept on its key; one of another key is analysed as its amplitudes.
    """
    if isinstance(register, _Description) and register.key != key:
        register = StateVector(register.num_qubits, register.amps)
    described = isinstance(register, _Description)
    cache = key.cache if described else register.cache
    slot = (params.u, strategy, *register.slot) if described else ("verify", key.mats, params.u,
                                                                   strategy)
    if slot in cache:
        return cache[slot]
    if register.num_qubits < key.m:
        raise PreconditionError("register does not match the key's input length")
    below = None
    if strategy == ORACLE:
        y = _fiber_of(key, register)
        if y is None:
            sizes, digests = span_states(key)
            sums = fiber_sums(key, register.amps)[digests]
        else:  # its support's amplitudes, all in one fiber, summed as fiber_sums sums them
            digests = np.array([y])
            sizes = fiber_counts(key)[digests]
            sums = np.add.reduceat(np.broadcast_to(register.amp, (register.size, 1)), [0])
        prob = float(np.sum(np.abs(sums) ** 2 / sizes[:, None]))
        if prob <= 1e-300:
            prob = 0.0
        else:
            below = np.zeros((1 << key.n, sums.shape[1]), sums.dtype)
            below[digests] = sums / np.sqrt(sizes * prob)[:, None]
        stages = [(prob, SPAN_REJECT)]
    elif strategy == CIRCUIT:
        if register.num_qubits != key.m:
            raise PreconditionError("the circuit strategy verifies single m-qubit registers only")
        a = circuit_span_analysis(key, params.u, register)
        stages = [(a.rank_ok_probability, RANK_DEFICIENT), (a.zero_probability, SPAN_REJECT)]
        if a.psi_amps is not None:
            below = a.psi_amps[:, None]
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}")
    # rounding leaves an in-span register a few ulps above 1; rng.random() >= p draws the same
    stages = tuple((min(p, 1.0), kind) for p, kind in stages)
    cdf = None if below is None else qsim.born_cdf(np.sum(np.abs(below) ** 2, axis=1))
    cache[slot] = RegisterAnalysis(stages, below, cdf)
    return cache[slot]


@dataclass(frozen=True)
class MiniVerifyResult:
    accepted: bool
    reject_kind: Optional[str] = None
    serial: Optional[Digest] = None
    analysis: Optional[RegisterAnalysis] = field(default=None, repr=False)


def mini_verify(key: HashKey, params: LightningParams, register, rng: np.random.Generator,
                strategy: str = ORACLE) -> MiniVerifyResult:
    """Span test on the register's top m-qubit block, then the hash measurement of the serial."""
    a = register_analysis(key, params, register, strategy)
    for prob, kind in a.stages:
        if rng.random() >= prob:
            return MiniVerifyResult(False, reject_kind=kind)
    y = qsim.draw(a.cdf, rng)
    return MiniVerifyResult(True, serial=BitVector(y, key.n), analysis=a)


def mini_verify_acceptance(key: HashKey, params: LightningParams, register,
                           strategy: str = ORACLE) -> float:
    """Exact acceptance probability of the strategy's measurement."""
    return math.prod(p for p, _ in register_analysis(key, params, register, strategy).stages)


@dataclass(frozen=True)
class FullVerifyResult:
    """The outcome, and the serial of an accepted bolt; every register that read it
    is then psi_serial (``Fiber``), up to a global phase."""

    outcome: str
    serial: Optional[Digest] = None

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPTED


def full_verify(key: HashKey, params: LightningParams, bolt: Bolt, rng: np.random.Generator,
                strategy: str = ORACLE) -> FullVerifyResult:
    """Mini-verify every register; accept iff all pass with one common serial.

    A joint bolt's blocks are read from the top (register 0, the x register)
    down: a block that read y is psi_y, unentangled from the blocks below it,
    so verification goes on with their state alone.
    """
    joint = bolt.mode == MODE_JOINT
    if bolt.k != params.k:
        raise PreconditionError(f"a bolt with k={bolt.k} does not fit the scheme's k={params.k}")
    if len(bolt.registers) != (1 if joint else bolt.k + 1):
        raise PreconditionError(f"a {bolt.mode} bolt with k={bolt.k} holds the wrong registers")
    if bolt.serial.n != key.n or any(
            r.num_qubits != key.m * (bolt.k + 1 if joint else 1) for r in bolt.registers):
        raise PreconditionError("the serial or a register does not fit the key")
    pending = list(bolt.registers)
    serials: List[Digest] = []
    while pending:
        reg = pending.pop(0)
        res = mini_verify(key, params, reg, rng, strategy)
        if not res.accepted:
            return FullVerifyResult(res.reject_kind)
        serials.append(res.serial)
        if reg.num_qubits > key.m:
            rest = res.analysis.below[res.serial.bits]
            pending.append(StateVector(reg.num_qubits - key.m, rest / np.linalg.norm(rest)))
    if len({s.bits for s in serials}) != 1:
        return FullVerifyResult(SERIAL_MISMATCH)
    return FullVerifyResult(ACCEPTED, serials[0])


def full_verify_acceptance(key: HashKey, params: LightningParams, bolt: Bolt,
                           strategy: str = ORACLE) -> float:
    """Exact probability that every register passes its span test.

    Product bolts only: registers are unentangled so probabilities multiply.
    """
    if bolt.mode != MODE_PRODUCT:
        raise PreconditionError("exact product acceptance needs a product bolt")
    return math.prod(mini_verify_acceptance(key, params, r, strategy) for r in bolt.registers)


# -- generation --------------------------------------------------------------


def gen_bolt(key: HashKey, params: LightningParams, rng: np.random.Generator,
             mode: str = MODE_PRODUCT) -> Bolt:
    if mode == MODE_PRODUCT:
        y = eval_digest(key, BitVector.random(key.m, rng))
        return _product_bolt(key, params, y, Fiber(key, y))
    if mode == MODE_JOINT:
        return _gen_bolt_joint(key, params, rng)
    raise PreconditionError(f"unknown bolt mode {mode!r}")


def _product_bolt(key: HashKey, params: LightningParams, y: Digest, reg) -> Bolt:
    """A product bolt whose k+1 registers are one shared state."""
    return Bolt(y, MODE_PRODUCT, (reg,) * (params.k + 1), params.k)


def _difference_spaces(key: HashKey, k: int):
    """Every difference tuple (d_1..d_k) over GF(2)^m with its colliding space.

    The space is the set of x that collide with every x - d_j, None when that
    system is unsolvable; the zero tuple constrains nothing and gets the full
    space.
    """
    m = key.m
    full = AffineSpace(BitVector.zero(m), BitMatrix.identity(m))
    for combo in itertools.product(range(1 << m), repeat=k):
        deltas = [BitVector(d, m) for d in combo if d != 0]
        yield combo, colliding_space_for_deltas(key, deltas) if deltas else full


def _gen_bolt_joint(key: HashKey, params: LightningParams, rng: np.random.Generator) -> Bolt:
    """The state the four-step generation leaves, built from its closed form.

    The steps superpose every difference tuple d, put the colliding space C(d) beside
    it, measure the hash y of x and remap (x, d) to (x, x-d_1, ..., x-d_k).  So y has
    mass proportional to the sum over solvable d of |C(d) & F_y| / |C(d)|, and the
    state after it has amplitude proportional to |C(d)|^(-1/2) at (x, x-d_1, ...,
    x-d_k) for each x in C(d) with f(x) = y.  The 2^(km) solves set the cost.
    """
    m, k = key.m, params.k
    qsim.check_num_qubits((k + 1) * m)
    points, weights = [], []
    for combo, space in _difference_spaces(key, k):
        if space is None:
            continue  # unsolvable tuple: no x collides, so it carries no mass
        xs = np.array(subspace_elements(space.basis), dtype=np.int64) ^ space.offset.bits
        idx = xs << (k * m)
        for j, d in enumerate(combo):
            idx |= (xs ^ d) << ((k - 1 - j) * m)
        points.append(idx)
        weights.append(np.full(xs.size, 1.0 / xs.size))
    idx, w = np.concatenate(points), np.concatenate(weights)
    ys = digest_table(key)[idx >> (k * m)]
    y = qsim.draw(qsim.born_cdf(np.bincount(ys, weights=w)), rng)
    keep = ys == y
    amps = np.zeros(1 << ((k + 1) * m))
    amps[idx[keep]] = np.sqrt(w[keep])
    amps /= np.linalg.norm(amps)
    state = StateVector((k + 1) * m, amps)
    return Bolt(BitVector(y, key.n), MODE_JOINT, (state,), k)


# -- collapsing experiment ----------------------------------------------------


def collapsing_experiment(key: HashKey, params: LightningParams, b: int,
                          rng: np.random.Generator) -> int:
    """One run of the distinguisher: 1 iff the span test accepts.

    b=0 hands it the superposition of the inputs that share a random input's digest;
    b=1 hands it the measured input itself.
    """
    x = BitVector.random(key.m, rng)
    state = Fiber(key, eval_digest(key, x)) if b == 0 else Point(key, x)
    prob = register_analysis(key, params, state).stages[0][0]
    return 1 if rng.random() < prob else 0


def collapsing_advantage_exact(key: HashKey) -> dict:
    """Exact Pr[out=1 | b] for both branches and their difference.

    For b=0 the state is always in the span (probability 1).  For b=1 the
    basis state |x> projects with probability 1/|fiber(f(x))|, so averaging
    over uniform x gives (#nonempty fibers) / 2^m exactly.
    """
    counts = fiber_counts(key)
    nonempty = int((counts > 0).sum())
    p1 = nonempty / float(1 << key.m)
    return {"p_accept_b0": 1.0, "p_accept_b1": p1, "advantage": 1.0 - p1}


# -- storms and games ----------------------------------------------------------

Storm = Callable[[HashKey, LightningParams, np.random.Generator], Tuple[Bolt, Bolt]]


def classical_state_storm(key: HashKey, params: LightningParams,
                          rng: np.random.Generator) -> Tuple[Bolt, Bolt]:
    """Measured-input cheat: both bolts are |x>^(k+1) for one random x."""
    x = BitVector.random(key.m, rng)
    bolt = _product_bolt(key, params, eval_digest(key, x), Point(key, x))
    return bolt, bolt


def cheat_duplicate_storm(key: HashKey, params: LightningParams,
                          rng: np.random.Generator) -> Tuple[Bolt, Bolt]:
    """Simulator-only amplitude copy of one honest bolt.

    Physically illegal (it clones a quantum state); it exists to exhibit
    exactly the event the non-affine multi-collision assumption forbids.
    An amplitude copy of an immutable state is that state, so the bolt is
    returned twice.
    """
    bolt = gen_bolt(key, params, rng)
    return bolt, bolt


def affine_attack_storm(key: HashKey, params: LightningParams,
                        rng: np.random.Generator) -> Tuple[Bolt, Bolt]:
    """Same-serial bolt pair seeded by the affine collision-space attack.

    The attack classically pins a digest y carrying an r-dimensional affine
    space of colliding inputs; both bolts are psi_y^(k+1), so one bolt is
    returned twice.  A uniform superposition over the certified affine subspace
    alone would fail the span test with overwhelming probability, since it is
    supported on a strict subset of the fiber.
    """
    r = params.k + 1
    while key.m < r * key.n + max(0, r - key.n):
        r -= 1
    if r < 1:
        raise PreconditionError("no feasible affine-space dimension at these parameters")
    _, y, _, _ = find_affine_collision_space(key, r, rng)
    bolt = _product_bolt(key, params, y, Fiber(key, y))
    return bolt, bolt


BUILTIN_STORMS = {"classical": classical_state_storm, "cheat-duplicate": cheat_duplicate_storm,
                  "affine-attack": affine_attack_storm}


def _psi_points(key: HashKey, y: Digest) -> Callable[[float], int]:
    """psi_y's Born draw from its N sorted inputs, with no CDF array: a uniform u falls on the
    i-th, i = #{j >= 1 : fl(j/N) <= u}, where ``qsim.draw`` on the float CDF j/N puts it:
    floor(u N), stepped at most once each way where j/N rounds across u."""
    idx = np.flatnonzero(digest_table(key) == y.bits)
    size = idx.size

    def point(u: float) -> int:
        i = int(u * size)
        i += i < size and (i + 1) / size <= u
        return int(idx[i - (i > 0 and i / size > u)])
    return point


def uniqueness_game(key: HashKey, params: LightningParams, storm: Storm, trials: int,
                    rng: np.random.Generator, strategy: str = ORACLE) -> dict:
    """Challenger loop: verify both bolts, accept on matching serials; returns its report.

    On acceptance all 2(k+1) post-verification registers are measured; they all read
    the one serial, so each is psi_serial, drawn from by ``_psi_points``.  The witness
    counter records whether the points form a non-affine multi-collision, i.e. the
    classical object an accepting pair surrenders: they share the serial's digest by
    construction, and affine rank 2k+1 makes them distinct, so ``is_nonaffine`` decides.
    Product bolts only: each register is measured on its own.  Each trial draws from
    ``rng`` in turn: storm, verifies, points.
    """
    accepts = witness = 0
    serial_counts: dict = {}
    for _ in range(trials):
        b0, b1 = storm(key, params, rng)
        if b0.mode != MODE_PRODUCT or b1.mode != MODE_PRODUCT:
            raise PreconditionError("the uniqueness game measures product bolts only")
        r0 = full_verify(key, params, b0, rng, strategy=strategy)
        r1 = full_verify(key, params, b1, rng, strategy=strategy)
        if not (r0.accepted and r1.accepted and r0.serial == r1.serial):
            continue
        accepts += 1
        shex = r0.serial.to_hex()
        serial_counts[shex] = serial_counts.get(shex, 0) + 1
        point = _psi_points(key, r0.serial)
        points = [BitVector(point(rng.random()), key.m) for _ in b0.registers + b1.registers]
        if is_nonaffine(points):
            witness += 1
    rates = {"accept": accepts / trials if trials else 0.0,
             "witness_given_accept": witness / accepts if accepts else None}
    return {"trials": trials, "accepts": accepts, "witness_count": witness,
            "empirical_rates": rates, "serial_counts": dict(sorted(serial_counts.items()))}


BoltProducer = Callable[[HashKey, LightningParams, np.random.Generator], Bolt]


def constant_serial_producer(key: HashKey, params: LightningParams, rng: np.random.Generator) -> Bolt:
    """Always emits the bolt for the digest of the all-zero input."""
    y = eval_digest(key, BitVector.zero(key.m))
    return _product_bolt(key, params, y, Fiber(key, y))


def classical_point_producer(key: HashKey, params: LightningParams, rng: np.random.Generator) -> Bolt:
    """Basis-state bolt; essentially never verifies."""
    return classical_state_storm(key, params, rng)[0]


def minentropy_probe(key: HashKey, params: LightningParams, producer: BoltProducer, trials: int,
                     rng: np.random.Generator) -> dict:
    """Empirical -log2 of the modal serial frequency among accepted bolts, beside the
    exact min-entropy of the digest of a uniform input; each trial draws from ``rng``."""
    if trials < 1:
        raise PreconditionError("need at least one trial")
    counts: dict = {}
    accepted = 0
    for _ in range(trials):
        bolt = producer(key, params, rng)
        res = full_verify(key, params, bolt, rng)
        if not res.accepted:
            continue
        accepted += 1
        shex = res.serial.to_hex()
        counts[shex] = counts.get(shex, 0) + 1
    # 0.0 - x: a certain serial has 0.0 bits, not -0.0
    estimate = 0.0 - float(np.log2(max(counts.values()) / accepted)) if accepted else None
    return {"trials": trials, "accepted": accepted, "estimate_bits": estimate,
            "exact_digest_minentropy": exact_digest_minentropy(key),
            "serial_counts": dict(sorted(counts.items()))}


def exact_digest_minentropy(key: HashKey) -> float:
    counts = fiber_counts(key)
    return 0.0 - float(np.log2(counts.max() / counts.sum()))  # 0.0, not -0.0, for one fiber


# -- bolt serialization ---------------------------------------------------------


def bolt_to_json(bolt: Bolt) -> dict:
    """Registers that are one state share one dump, whose entries are spelled once.
    The key's input length m is read off the registers: a joint one spans k+1 of them."""
    dumps = {id(r): qsim.state_dump(r) for r in {id(r): r for r in bolt.registers}.values()}
    width = bolt.registers[0].num_qubits
    return {"serial": bolt.serial.to_hex(), "serial_bits": bolt.serial.n, "mode": bolt.mode,
            "m": width // (bolt.k + 1) if bolt.mode == MODE_JOINT else width, "k": bolt.k,
            "registers": [dumps[id(r)] for r in bolt.registers]}


def bolt_from_json(doc: dict) -> Bolt:
    """Inverse of ``bolt_to_json``, refusing registers that are not m qubits wide (m(k+1)
    for a joint bolt).  A register equal to the first (its entries the same text) shares
    its state, so only the registers that differ from the first are loaded again."""
    serial = BitVector.from_hex(doc["serial"], jsonio.integer(doc, "serial_bits"))
    mode = doc["mode"]
    if mode not in (MODE_PRODUCT, MODE_JOINT):
        raise PreconditionError(f"unknown bolt mode {mode!r}")
    docs, m, k = list(doc["registers"]), jsonio.integer(doc, "m"), jsonio.integer(doc, "k")
    first = qsim.state_load(docs[0]) if docs else None
    registers = tuple(first if d == docs[0] else qsim.state_load(d) for d in docs)
    if any(r.num_qubits != m * (k + 1 if mode == MODE_JOINT else 1) for r in registers):
        raise PreconditionError(f"a bolt with m={m} and k={k} holds a register of another width")
    return Bolt(serial, mode, registers, k)
