import numpy as np
import pytest

from boltlab.attacks import (
    colliding_space_for_deltas,
    find_affine_collision_space,
    find_collision,
    find_nonaffine_multicollision,
    is_nonaffine,
)
from boltlab.errors import AttackFailure, PreconditionError
from boltlab.gf2 import BitMatrix, BitVector, enumerate_affine, rank
from boltlab.mqhash import HashKey, eval_digest, keygen


def _worked_key():
    return HashKey(1, 2, (BitMatrix((3, 0), 2),))


def _zero_key(n, m):
    return HashKey(n, m, tuple(BitMatrix((0,) * m, m) for _ in range(n)))


def test_worked_collision_space():
    # delta = (1,0): the system reads x_2 = 1, so {(0,1), (1,1)} collide at 0
    key = _worked_key()
    space = colliding_space_for_deltas(key, [BitVector(1, 2)])
    pts = {p.bits for p in enumerate_affine(space)}
    assert pts == {0b10, 0b11}
    for p in pts:
        assert eval_digest(key, BitVector(p, 2)).bits == 0


def test_find_collision_verifies_by_eval():
    rng = np.random.default_rng(0)
    key = keygen(2, 12, rng)
    for _ in range(100):
        x, xp, delta, _, _ = find_collision(key, rng)
        assert not delta.is_zero()
        assert x != xp and (x ^ xp) == delta
        assert eval_digest(key, x) == eval_digest(key, xp)


def test_find_collision_zero_key():
    # degenerate all-zero key: the hash is constant, any delta works
    rng = np.random.default_rng(1)
    key = _zero_key(2, 8)
    x, xp, _, tries, _ = find_collision(key, rng)
    assert tries == 1
    assert eval_digest(key, x) == eval_digest(key, xp)


def test_nonaffine_multicollision_k1_is_a_collision():
    rng = np.random.default_rng(2)
    key = keygen(2, 12, rng)
    mc = find_nonaffine_multicollision(key, 1, rng)
    assert len(mc.points) == 2
    assert eval_digest(key, mc.points[0]) == eval_digest(key, mc.points[1])


def test_nonaffine_multicollision_five_points():
    rng = np.random.default_rng(3)
    key = keygen(2, 12, rng)
    mc = find_nonaffine_multicollision(key, 4, rng)
    assert len(mc.points) == 5
    digests = {eval_digest(key, p).bits for p in mc.points}
    assert len(digests) == 1
    diffs = BitMatrix(tuple((p ^ mc.points[0]).bits for p in mc.points[1:]), 12)
    assert rank(diffs) == 4
    assert is_nonaffine(list(mc.points))


def test_nonaffine_multicollision_infeasible_when_overconstrained():
    rng = np.random.default_rng(4)
    key = keygen(2, 9, rng)
    with pytest.raises(PreconditionError):
        find_nonaffine_multicollision(key, 5, rng)  # kn = 10 > m = 9


def test_nonaffine_success_rate_at_comfortable_width():
    # m >= kn + 8 keeps the stacked system full rank almost always
    rng = np.random.default_rng(5)
    ok = 0
    trials = 200
    for t in range(trials):
        key = keygen(2, 12, rng)
        try:
            find_nonaffine_multicollision(key, 2, rng, max_tries=8)
            ok += 1
        except AttackFailure:
            pass
    assert ok >= 0.95 * trials


def test_two_k_plus_one_target_fails_below_assumption_boundary():
    # 2(k+1) non-affine points need 2k+1 difference vectors; at m < (k+1/2)n
    # the stacked system can never reach full rank
    rng = np.random.default_rng(6)
    failures = 0
    trials = 200
    for t in range(trials):
        key = keygen(2, 4, rng)  # m = 4 < (2 + 1/2) * 2 = 5
        try:
            find_nonaffine_multicollision(key, 5, rng, max_tries=4)
        except (AttackFailure, PreconditionError):
            failures += 1
    assert failures >= 0.99 * trials


def test_affine_space_r1_matches_collision_semantics():
    rng = np.random.default_rng(7)
    key = keygen(2, 12, rng)
    space, digest, _, _ = find_affine_collision_space(key, 1, rng)
    assert space.dim == 1
    pts = enumerate_affine(space)
    assert eval_digest(key, pts[0]) == eval_digest(key, pts[1]) == digest


def test_affine_space_r3_exhaustive():
    rng = np.random.default_rng(8)
    key = keygen(2, 12, rng)
    space, digest, _, hist = find_affine_collision_space(key, 3, rng)
    pts = enumerate_affine(space)
    assert len(pts) == 8
    for p in pts:
        assert eval_digest(key, p) == digest


def test_affine_space_r6_exhaustive_wider_key():
    rng = np.random.default_rng(9)
    key = keygen(2, 16, rng)  # needs m >= 6*2 + 4 = 16
    space, digest, _, _ = find_affine_collision_space(key, 6, rng)
    assert space.dim == 6
    assert {eval_digest(key, p) for p in enumerate_affine(space)} == {digest}


def test_affine_space_precondition():
    rng = np.random.default_rng(10)
    key = keygen(2, 12, rng)
    with pytest.raises(PreconditionError):
        find_affine_collision_space(key, 5, rng)  # 5*2 + 3 = 13 > 12


def test_affine_space_points_are_affinely_dependent():
    rng = np.random.default_rng(11)
    key = keygen(2, 12, rng)
    space, _, _, _ = find_affine_collision_space(key, 2, rng)
    pts = enumerate_affine(space)  # 4 points spanning a 2-dim affine space
    assert not is_nonaffine(pts)


def test_is_nonaffine_examples():
    e = lambda bits: BitVector(bits, 3)
    assert is_nonaffine([e(0b000), e(0b001), e(0b010)])
    assert not is_nonaffine([e(0b000), e(0b001), e(0b010), e(0b011)])
    with pytest.raises(PreconditionError):
        is_nonaffine([BitVector(0, 2)])


def test_colliding_space_single_delta_dimension():
    rng = np.random.default_rng(12)
    key = keygen(2, 12, rng)
    while True:
        d = BitVector.random(12, rng)
        if not d.is_zero():
            break
    space = colliding_space_for_deltas(key, [d])
    if space is not None:
        assert space.dim in (10, 11, 12)  # m - rank(B_delta)


def test_colliding_space_exhaustive_eval_check():
    rng = np.random.default_rng(13)
    key = keygen(2, 12, rng)
    for _ in range(20):
        deltas = [BitVector.random(12, rng) for _ in range(4)]
        if any(d.is_zero() for d in deltas):
            continue
        space = colliding_space_for_deltas(key, deltas)
        if space is None or space.dim > 6:
            continue
        for x in enumerate_affine(space):
            y = eval_digest(key, x)
            for d in deltas:
                assert eval_digest(key, x ^ d) == y


def test_colliding_space_duplicate_deltas_redundant():
    rng = np.random.default_rng(14)
    key = keygen(2, 12, rng)
    while True:
        d = BitVector.random(12, rng)
        if d.is_zero():
            continue
        single = colliding_space_for_deltas(key, [d])
        if single is not None:
            break
    double = colliding_space_for_deltas(key, [d, d])
    assert double.dim == single.dim


def test_multicollision_points_distinct():
    rng = np.random.default_rng(15)
    key = keygen(2, 12, rng)
    for _ in range(10):
        mc = find_nonaffine_multicollision(key, 3, rng)
        assert len({p.bits for p in mc.points}) == 4
