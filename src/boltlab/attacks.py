"""Classical collision attacks on the degree-2 hash.

All three attacks reduce collision finding to GF(2) linear algebra: a random
difference vector turns the quadratic condition f(x) = f(x - delta) into a
linear system for x.  Failure to hit a usable system within max_tries raises
AttackFailure; violating a structural precondition raises PreconditionError,
so experiments can tell bad luck from infeasibility.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import AttackFailure, DimensionMismatch, PreconditionError
from .gf2 import (
    AffineSpace,
    BitMatrix,
    BitVector,
    nullspace,
    rank,
    solve_affine,
)
from .mqhash import Digest, HashKey, bilinear_rows, eval_digest

DEFAULT_MAX_TRIES = 64


@dataclass(frozen=True)
class MultiCollision:
    points: tuple  # of BitVector, all the same length, pairwise distinct
    digest: Digest
    tries: int
    rank_history: tuple

    def __post_init__(self):
        if len({p.bits for p in self.points}) != len(self.points):
            raise PreconditionError("collision points must be distinct")


def is_nonaffine(points: List[BitVector]) -> bool:
    """True iff the affine hull of k+1 points has full dimension k."""
    if len(points) < 2:
        raise PreconditionError("need at least two points")
    n = points[0].n
    for p in points[1:]:
        if p.n != n:
            raise DimensionMismatch("points have different lengths")
    diffs = BitMatrix(tuple((p ^ points[0]).bits for p in points[1:]), n)
    return rank(diffs) == len(points) - 1


def _random_solution(space: AffineSpace, rng: np.random.Generator) -> BitVector:
    return space.element(BitVector.random(space.dim, rng).bits if space.dim else 0)


def _stacked_system(key: HashKey, deltas: List[BitVector]) -> Tuple[BitMatrix, int]:
    """The bilinear rows of every delta, stacked, and the right-hand sides f(delta_j)
    packed n bits per delta: x solves it iff x and every x - delta_j collide."""
    rows, rhs = [], 0
    for j, d in enumerate(deltas):
        rows += bilinear_rows(key, d).rows
        rhs |= eval_digest(key, d).bits << (j * key.n)
    return BitMatrix(tuple(rows), key.m), rhs


def find_collision(
    key: HashKey, rng: np.random.Generator, max_tries: int = DEFAULT_MAX_TRIES
) -> Tuple[BitVector, BitVector, BitVector, int, tuple]:
    """Colliding pair (x, x - delta) from a random difference vector.

    Accepts any delta whose linear system is solvable (a rank-n system always
    is; a degenerate key like all-zero matrices is solvable with rank 0).
    Returns (x, x_prime, delta, tries, rank_history).
    """
    history = []
    for attempt in range(1, max_tries + 1):
        delta = BitVector.random(key.m, rng)
        if delta.is_zero():
            continue
        stacked, rhs = _stacked_system(key, [delta])
        history.append(rank(stacked))
        sols = solve_affine(stacked, BitVector(rhs, stacked.nrows))
        if sols is None:
            continue
        x = _random_solution(sols, rng)
        return x, x ^ delta, delta, attempt, tuple(history)
    raise AttackFailure(f"no solvable system after {max_tries} tries")


def find_nonaffine_multicollision(
    key: HashKey,
    k: int,
    rng: np.random.Generator,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> MultiCollision:
    """k+1 colliding inputs {x, x-delta_1, ..., x-delta_k} with full affine hull.

    Retries fresh random deltas until the stacked kn x m system has full rank
    and the output points certify as non-affine.
    """
    if k < 1:
        raise PreconditionError("need k >= 1")
    if key.m < k * key.n:
        raise PreconditionError(
            f"m={key.m} < kn={k * key.n}: stacked system cannot reach full rank"
        )
    history = []
    for attempt in range(1, max_tries + 1):
        deltas = [BitVector.random(key.m, rng) for _ in range(k)]
        if any(d.is_zero() for d in deltas):
            continue
        stacked, rhs = _stacked_system(key, deltas)
        r = rank(stacked)
        history.append(r)
        if r < k * key.n:
            continue
        sols = solve_affine(stacked, BitVector(rhs, stacked.nrows))
        if sols is None:
            continue
        x = _random_solution(sols, rng)
        points = [x] + [x ^ d for d in deltas]
        if not is_nonaffine(points):
            continue
        return MultiCollision(
            points=tuple(points),
            digest=eval_digest(key, x),
            tries=attempt,
            rank_history=tuple(history),
        )
    raise AttackFailure(f"no full-rank non-affine system after {max_tries} tries")


def find_affine_collision_space(
    key: HashKey,
    r: int,
    rng: np.random.Generator,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> Tuple[AffineSpace, Digest, int, tuple]:
    """r-dimensional affine space of 2^r colliding inputs.

    Deltas are drawn sequentially: delta_s is uniform over the joint nullspace
    of the bilinear forms of the earlier deltas, excluding their span, which
    kills every cross term alpha_s alpha_s'.  Solving the stacked rn x m
    system for x then kills the linear terms, making the hash constant on
    offset + span(deltas).
    """
    if r < 1:
        raise PreconditionError("need r >= 1")
    if key.m < r * key.n + max(0, r - key.n):
        raise PreconditionError(
            f"m={key.m} below r*n + max(0, r-n) = {r * key.n + max(0, r - key.n)}"
        )
    history = []
    for attempt in range(1, max_tries + 1):
        deltas: List[BitVector] = []
        for _ in range(r):
            space = AffineSpace(BitVector.zero(key.m), nullspace(_stacked_system(key, deltas)[0]))
            for _ in range(64):
                c = _random_solution(space, rng)
                basis = BitMatrix(tuple(d.bits for d in deltas) + (c.bits,), key.m)
                if not c.is_zero() and rank(basis) == len(deltas) + 1:
                    deltas.append(c)
                    break
            else:
                break  # 64 draws found no delta outside the span: start afresh
        else:
            stacked, rhs = _stacked_system(key, deltas)
            history.append(rank(stacked))
            sols = solve_affine(stacked, BitVector(rhs, stacked.nrows))
            if sols is not None:
                x = _random_solution(sols, rng)
                return AffineSpace(x, basis), eval_digest(key, x), attempt, tuple(history)
    raise AttackFailure(f"no affine collision space after {max_tries} tries")


def colliding_space_for_deltas(
    key: HashKey, deltas: List[BitVector]
) -> Optional[AffineSpace]:
    """Solution set of {B_delta_j x = delta_j^T A delta_j}: the x making every
    x and x - delta_j collide.  None when the stacked system is inconsistent."""
    for d in deltas:
        if d.n != key.m:
            raise DimensionMismatch("delta length differs from key input length")
        if d.is_zero():
            raise PreconditionError("deltas must be nonzero")
    stacked, rhs = _stacked_system(key, deltas)
    return solve_affine(stacked, BitVector(rhs, stacked.nrows))
