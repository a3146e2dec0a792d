import tracemalloc

import numpy as np
import pytest

from boltlab.errors import DimensionMismatch, PreconditionError
from boltlab.gf2 import BitMatrix, BitVector
from boltlab.mqhash import (
    HashKey,
    bilinear_rows,
    digest_table,
    eval_digest,
    fiber_counts,
    fiber_sums,
    keygen,
    preimage_indices,
)
from oracles import doubling_digest_table, gathered_fiber_sums, to_array


def _worked_key():
    # single 2x2 matrix with rows (1, 1) and (0, 0): f(x) = x0 + x0 x1
    return HashKey(1, 2, (BitMatrix((3, 0), 2),))


def _zero_key(n, m):
    return HashKey(n, m, tuple(BitMatrix((0,) * m, m) for _ in range(n)))


def _eval_reference(key, x):
    """Independent oracle: dense integer arithmetic, then mod 2."""
    xs = np.array([(x.bits >> j) & 1 for j in range(x.n)], dtype=np.int64)
    out = 0
    for i, a in enumerate(key.mats):
        out |= (int(xs @ to_array(a).astype(np.int64) @ xs) & 1) << i
    return BitVector(out, key.n)


def test_keygen_shapes_and_triangularity():
    rng = np.random.default_rng(0)
    key = keygen(1, 2, rng)
    assert key.mats[0].entry(1, 0) == 0
    key = keygen(2, 12, rng)
    assert len(key.mats) == 2
    for a in key.mats:
        assert a.nrows == a.cols == 12
        for i in range(12):
            for j in range(i):
                assert a.entry(i, j) == 0


def test_keygen_determinism():
    k1 = keygen(2, 12, np.random.default_rng(42))
    k2 = keygen(2, 12, np.random.default_rng(42))
    assert k1 == k2
    assert k1.to_json() == k2.to_json()


def test_keygen_distinct_seeds_differ():
    keys = [keygen(2, 12, np.random.default_rng(s)) for s in range(100)]
    blobs = {str(k.to_json()) for k in keys}
    assert len(blobs) == 100


def test_keygen_rejects_bad_sizes():
    with pytest.raises(PreconditionError):
        keygen(3, 3, np.random.default_rng(0))


def test_eval_zero_input_gives_zero():
    rng = np.random.default_rng(1)
    key = keygen(3, 9, rng)
    assert eval_digest(key, BitVector.zero(9)).is_zero()


def test_eval_worked_example():
    key = _worked_key()
    assert eval_digest(key, BitVector(3, 2)).bits == 0
    assert eval_digest(key, BitVector(1, 2)).bits == 1


def test_eval_matches_reference_oracle():
    rng = np.random.default_rng(2)
    for n, m in [(1, 4), (2, 12), (3, 7)]:
        key = keygen(n, m, rng)
        for _ in range(40):
            x = BitVector.random(m, rng)
            assert eval_digest(key, x) == _eval_reference(key, x)


def test_eval_length_mismatch():
    key = _worked_key()
    with pytest.raises(DimensionMismatch):
        eval_digest(key, BitVector.zero(3))


def test_bilinear_rows_zero_delta():
    rng = np.random.default_rng(3)
    key = keygen(2, 6, rng)
    assert bilinear_rows(key, BitVector.zero(6)).rows == (0, 0)


def test_bilinear_rows_worked_example():
    key = _worked_key()
    b = bilinear_rows(key, BitVector(1, 2))
    assert b.rows == (0b10,)  # row (0, 1): diagonal doubles vanish mod 2


def test_polarization_identity_exhaustive():
    # f(x) + f(x - delta) = B_delta x + delta^T A delta, for every x, at m <= 12
    rng = np.random.default_rng(4)
    for n, m in [(1, 6), (2, 12)]:
        key = keygen(n, m, rng)
        tab = digest_table(key)
        idx = np.arange(1 << m, dtype=np.int64)
        for _ in range(6):
            delta = BitVector.random(m, rng)
            if delta.is_zero():
                continue
            lhs = tab ^ tab[idx ^ delta.bits]
            b = bilinear_rows(key, delta)
            rhs = np.zeros_like(idx)
            for i in range(n):
                rhs |= ((np.bitwise_count(idx.astype(np.uint64) & np.uint64(b.rows[i])) & 1)
                        .astype(np.int64)) << i
            rhs ^= eval_digest(key, delta).bits  # delta^T A_i delta
            assert (lhs == rhs).all()


def test_preimages_zero_key():
    key = _zero_key(2, 6)
    assert len(preimage_indices(key, BitVector.zero(2))) == 64
    assert preimage_indices(key, BitVector(1, 2)).size == 0


def test_preimages_partition_domain():
    rng = np.random.default_rng(6)
    key = keygen(2, 8, rng)
    seen = set()
    for yv in range(4):
        for p in preimage_indices(key, BitVector(yv, 2)).tolist():
            assert eval_digest(key, BitVector(p, 8)).bits == yv
            seen.add(p)
    assert len(seen) == 256


def test_fiber_counting_identity():
    rng = np.random.default_rng(7)
    key = keygen(2, 12, rng)
    counts = fiber_counts(key)
    assert counts.sum() == 1 << 12
    assert counts.mean() == 2**10  # average fiber size over all 2^n digests


def test_fiber_counts_are_one_bincount_of_the_table():
    # counted a block at a time: one block, several, and digests wider than a block
    rng = np.random.default_rng(31)
    for n, m in ((2, 12), (2, 16), (3, 17), (13, 15), (14, 16)):
        key = keygen(n, m, rng)
        counts = fiber_counts(key)
        want = np.bincount(digest_table(key), minlength=1 << n)
        assert counts.dtype == want.dtype and np.array_equal(counts, want), (n, m)


def test_fiber_counts_copy_no_table():
    # bincount's int64 copy of the whole m=16 table would be 512 KiB
    key = keygen(2, 16, np.random.default_rng(7))
    digest_table(key)
    tracemalloc.start()
    try:
        counts = fiber_counts(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - counts.nbytes < 128 << 10, peak


def test_fiber_sums_are_the_gathered_sums_and_zero_on_empty_fibers():
    # bit for bit the permutation gather's sums, real and complex, one row and several
    rng = np.random.default_rng(38)
    keys = [_zero_key(3, 5)]  # one nonempty fiber
    keys += [keygen(n, m, rng) for n, m in ((1, 4), (2, 9), (3, 5), (4, 6), (2, 12))]
    for key in keys:
        n, m = key.n, key.m
        counts = fiber_counts(key)
        for width, complex_ in ((1, False), (1, True), (4, False), (4, True)):
            rows = rng.normal(size=(1 << m, width))
            if complex_:
                rows = rows + 1j * rng.normal(size=rows.shape)
            sums = fiber_sums(key, rows.reshape(-1))
            assert sums.shape == (1 << n, width) and sums.dtype == rows.dtype
            want = gathered_fiber_sums(key, rows)
            assert sums[counts > 0].tobytes() == want.tobytes(), (n, m, width)
            assert not sums[counts == 0].any(), (n, m, width)


def test_digest_table_matches_pointwise_eval():
    rng = np.random.default_rng(8)
    key = keygen(2, 9, rng)
    tab = digest_table(key)
    for _ in range(60):
        x = BitVector.random(9, rng)
        assert tab[x.bits] == eval_digest(key, x).bits


def _every_digest(key, xs):
    return np.array([eval_digest(key, BitVector(int(x), key.m)).bits for x in xs], np.uint32)


def test_digest_table_is_the_one_bit_doubling_and_eval_digest_on_200_keys():
    # n <= 4, m <= 16: equal to the table built one output bit at a time at every input, and
    # to eval_digest at every input up to m = 12 (at 2,048 drawn inputs above, where the
    # pointwise evaluation of all 2^m inputs takes seconds)
    rng = np.random.default_rng(29)
    shapes = [(n, m) for n in range(1, 5) for m in range(n + 1, 17)]  # 54 shapes
    for i in range(200):
        n, m = shapes[i % len(shapes)]
        key = keygen(n, m, rng)
        tab = digest_table.__wrapped__(key)
        assert tab.dtype == np.uint8 and not tab.flags.writeable  # n <= 4
        assert np.array_equal(tab, doubling_digest_table(key)), (n, m, i)
        xs = np.arange(1 << m) if m <= 12 else rng.integers(0, 1 << m, 2048)
        assert np.array_equal(tab[xs], _every_digest(key, xs)), (n, m, i)


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (4, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32)])
def test_digest_table_dtype_is_the_narrowest_that_holds_n_bits(n, dtype):
    rng = np.random.default_rng(n)
    key = keygen(n, n + 1, rng)
    tab = digest_table.__wrapped__(key)
    assert tab.dtype == dtype and not tab.flags.writeable
    assert int(tab.max()) >> (n - 1) == 1  # the top bit is used: a narrower dtype drops it
    xs = np.concatenate([np.arange(min(64, 1 << key.m)), rng.integers(0, 1 << key.m, 512)])
    assert np.array_equal(tab[xs], _every_digest(key, xs))


def test_digest_table_at_m_20():
    rng = np.random.default_rng(7)
    key = keygen(2, 20, rng)
    tab = digest_table.__wrapped__(key)
    assert np.array_equal(tab, doubling_digest_table(key))
    # every input below 2^12, each basis vector and its complement, and 4,096 drawn inputs
    xs = np.concatenate([np.arange(1 << 12), 1 << np.arange(20), (1 << 20) - 1 - (1 << np.arange(20)),
                         rng.integers(0, 1 << 20, 4096)])
    assert np.array_equal(tab[xs], _every_digest(key, xs))


def test_preimage_indices_sorted():
    rng = np.random.default_rng(9)
    key = keygen(2, 10, rng)
    idx = preimage_indices(key, BitVector(1, 2))
    assert (np.diff(idx) > 0).all()


def test_key_json_round_trip():
    rng = np.random.default_rng(10)
    key = keygen(3, 11, rng)
    doc = key.to_json(seed=10)
    assert doc["seed"] == 10
    assert HashKey.from_json(doc) == key


def test_key_rejects_below_diagonal_entries():
    bad = BitMatrix((1, 1), 2)
    with pytest.raises(PreconditionError):
        HashKey(1, 2, (bad,))
