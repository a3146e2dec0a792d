import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from boltlab.bounds import count_subspaces
from boltlab.errors import EnumerationCapExceeded, PreconditionError
from boltlab.gf2 import (
    AffineSpace,
    BitMatrix,
    BitVector,
    all_subspaces,
    combine,
    eliminate,
    eliminate_each,
    enumerate_affine,
    nullspace,
    rank,
    random_subspace_rows,
    random_subspaces,
    solve_affine,
    subspace_elements,
)
from oracles import (
    dual_space, eliminating_subspaces, intersection_dim, random_matrix, random_subspace_between,
    rref, span_canonical, subspace_contains, vm,
)


def test_rank_identity():
    assert rank(BitMatrix.identity(3)) == 3


def test_rank_zero():
    assert rank(BitMatrix((0, 0, 0), 3)) == 0


def test_rank_duplicate_rows():
    m = BitMatrix((3, 3), 2)
    assert rank(m) == 1


def test_rank_invariant_under_row_operations():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        m = random_matrix(rows, cols, rng)
        r = rank(m)
        perm = list(rng.permutation(rows))
        assert rank(BitMatrix(tuple(m.rows[i] for i in perm), cols)) == r
        if rows >= 2:
            i, j = rng.choice(rows, size=2, replace=False)
            newrows = list(m.rows)
            newrows[int(i)] ^= newrows[int(j)]
            assert rank(BitMatrix(tuple(newrows), cols)) == r


def test_solve_affine_unique_solution():
    m = BitMatrix((3, 2), 2)
    sol = solve_affine(m, BitVector(1, 2))
    assert sol.offset == BitVector(1, 2)
    assert sol.basis.nrows == 0


def test_solve_affine_inconsistent():
    m = BitMatrix((0,), 3)
    assert solve_affine(m, BitVector(1, 1)) is None


def test_solve_affine_unconstrained():
    m = BitMatrix((0,), 3)
    sol = solve_affine(m, BitVector(0, 1))
    assert sol.dim == 3
    assert len(enumerate_affine(sol)) == 8


def test_solve_affine_solutions_satisfy_system():
    rng = np.random.default_rng(17)
    for _ in range(60):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = random_matrix(rows, cols, rng)
        b = BitVector.random(rows, rng)
        sol = solve_affine(m, b)
        if sol is None:
            # inconsistency certificate: rank grows when b is adjoined
            aug = BitMatrix(
                tuple(m.rows[i] | (((b.bits >> i) & 1) << cols) for i in range(rows)),
                cols + 1,
            )
            assert rank(aug) == rank(m) + 1
            continue
        for v in enumerate_affine(sol):
            assert all(bin(r & v.bits).count("1") % 2 == (b.bits >> i) & 1
                       for i, r in enumerate(m.rows))
        assert sol.dim == cols - rank(m)


def test_dual_space_line_in_plane():
    s = BitMatrix((1,), 2)
    assert dual_space(s).rows == (0b10,)


def test_dual_space_full_space():
    assert dual_space(BitMatrix.identity(2)).nrows == 0


def test_dual_space_exhaustive_inner_products():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        s = random_subspaces(8, d, 1, rng)[0]
        dual = dual_space(s)
        assert dual.nrows == 8 - d
        for i in range(s.nrows):
            for j in range(dual.nrows):
                assert bin(s.rows[i] & dual.rows[j]).count("1") % 2 == 0


def test_dual_space_involution_and_dimension():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(0, n + 1))
        s = random_subspaces(n, d, 1, rng)[0]
        dual = dual_space(s) if d else BitMatrix.identity(n)
        assert s.nrows + dual_space(s).nrows == n
        if d:
            assert span_canonical(dual_space(dual_space(s))) == span_canonical(s)


def test_dual_space_rejects_dependent_rows():
    with pytest.raises(PreconditionError):
        dual_space(BitMatrix((3, 3), 2))


def test_random_subspace_trivial_sizes():
    rng = np.random.default_rng(1)
    assert random_subspaces(4, 0, 1, rng)[0].nrows == 0
    assert random_subspaces(4, 4, 1, rng)[0] == BitMatrix.identity(4)
    with pytest.raises(PreconditionError):
        random_subspaces(3, 4, 1, rng)


def _awkward_rows(n, d, count, rng):
    """Random (count, d) rows of n bits with rank deficits: zero rows, repeated rows and
    rows that are the XOR of two others, each in some candidates."""
    rows = rng.integers(0, 2**32, size=(count, d), dtype=np.uint32) & np.uint32((1 << n) - 1)
    if d:
        for kind in range(3):
            hit = rng.random(count) < 0.3
            i, j, k = (rng.integers(0, d, size=count) for _ in range(3))
            at = np.flatnonzero(hit)
            rows[at, i[at]] = (0, rows[at, j[at]], rows[at, j[at]] ^ rows[at, k[at]])[kind]
    return rows


def test_eliminate_each_gives_the_rows_eliminate_gives():
    rng = np.random.default_rng(31)
    shapes = [(n, d, int(rng.integers(1, 40))) for n in range(0, 33) for d in range(n + 1)]
    for n, d, count in shapes + [(4, 2, 3000), (20, 10, 3000), (32, 32, 3000)]:
        rows = _awkward_rows(n, d, count, rng)
        got = eliminate_each(rows)
        assert got.shape == rows.shape and got.dtype == np.uint32
        for cand, reduced in zip(rows.tolist(), got.tolist()):
            work, pivots = eliminate(cand, n)
            assert reduced == work  # the same rows, and so the same rank
            assert all(reduced[:len(pivots)]) and not any(reduced[len(pivots):])
    low = np.array([[1, 1], [0, 3], [6, 4], [2**31, 2**32 - 1]], dtype=np.uint32)
    assert eliminate_each(low).tolist() == [[1, 0], [3, 0], [2, 4], [2**31 - 1, 2**31]]


@pytest.mark.parametrize("count", [1, 2, 35, 1024, 3000])
def test_random_subspaces_read_the_generator_as_eliminating_each_draw_did(count):
    shapes = ([(n, d) for n in range(0, 33) for d in range(n + 1)] if count <= 35 else
              [(n, d) for n in (2, 4, 20, 32) for d in sorted({0, 1, n // 2, n})])
    for seed, (n, d) in enumerate(shapes):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = eliminating_subspaces(n, d, count, want)
        rows = random_subspace_rows(n, d, count, got)
        assert rows.shape == (count, d) and rows.dtype == np.uint32
        assert [m.rows for m in expected] == [tuple(r) for r in rows.tolist()]
        assert want.random() == got.random()
    want, got = np.random.default_rng(9), np.random.default_rng(9)
    assert random_subspaces(20, 10, 50, got) == eliminating_subspaces(20, 10, 50, want)
    assert want.random() == got.random()


def test_random_subspace_uniform_over_three_lines():
    rng = np.random.default_rng(2)
    counts = {}
    for _ in range(3000):
        s = random_subspaces(2, 1, 1, rng)[0]
        counts[s.rows] = counts.get(s.rows, 0) + 1
    assert len(counts) == 3
    expected = 1000.0
    sigma = np.sqrt(3000 * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - expected) < 3 * sigma


def test_random_subspace_chi_squared_seven_lines():
    rng = np.random.default_rng(3)
    counts = {}
    for _ in range(7000):
        s = random_subspaces(3, 1, 1, rng)[0]
        counts[s.rows] = counts.get(s.rows, 0) + 1
    assert len(counts) == 7
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.01


def test_random_subspaces_chi_squared_over_the_35_planes_of_gf2_4():
    counts = Counter(s.rows for s in random_subspaces(4, 2, 7000, np.random.default_rng(5)))
    assert set(counts) == {s.rows for s in all_subspaces(4, 2)}  # all 35, each basis canonical
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-9


def test_random_subspace_between_endpoints():
    rng = np.random.default_rng(4)
    lo = random_subspaces(5, 2, 1, rng)[0]
    assert random_subspace_between(lo, lo, 2, rng) == span_canonical(lo)


def test_random_subspace_between_matches_unconstrained_distribution():
    rng = np.random.default_rng(6)
    lo = BitMatrix((), 4)
    up = BitMatrix.identity(4)
    cells = {s.rows: 0 for s in all_subspaces(4, 2)}
    assert len(cells) == 35
    draws = 7000
    for _ in range(draws):
        s = random_subspace_between(lo, up, 2, rng)
        cells[s.rows] += 1
    _, p = stats.chisquare(list(cells.values()))
    assert p > 0.01


def test_random_subspace_between_containment():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lo = random_subspaces(4, 1, 1, rng)[0]
        up = random_subspace_between(lo, BitMatrix.identity(4), 3, rng)
        s = random_subspace_between(lo, up, 2, rng)
        assert subspace_contains(s, lo)
        assert subspace_contains(up, s)


def test_random_subspace_between_rejects_bad_input():
    rng = np.random.default_rng(8)
    a = BitMatrix((1,), 4)
    b = BitMatrix((2, 4), 4)
    with pytest.raises(PreconditionError):
        random_subspace_between(a, b, 2, rng)  # a not inside b


def test_combine_is_the_row_vector_product_and_linear_in_its_bits():
    rng = np.random.default_rng(19)
    for nrows in range(1, 6):
        for cols in (1, 3, 8):
            m = random_matrix(nrows, cols, rng)
            for a in range(1 << nrows):
                assert combine(m.rows, a) == vm(m, BitVector(a, nrows)).bits
                for b in range(1 << nrows):
                    assert combine(m.rows, a ^ b) == combine(m.rows, a) ^ combine(m.rows, b)


def test_enumerate_affine_examples():
    offset = BitVector(5, 3)
    space = AffineSpace(offset, BitMatrix((), 3))
    assert enumerate_affine(space) == [offset]
    space = AffineSpace(BitVector.zero(3), BitMatrix.identity(3))
    elems = enumerate_affine(space)
    assert len(elems) == 8
    assert len({e.bits for e in elems}) == 8
    space = AffineSpace(BitVector.zero(4), BitMatrix((1, 2), 4))
    assert len(enumerate_affine(space)) == 4


def test_full_space_enumerates_in_index_order():
    # joint generation gives the zero difference tuple this space and relies
    # on it listing every input in the order range(2^m) does
    for m in (1, 4, 6):
        full = AffineSpace(BitVector.zero(m), BitMatrix.identity(m))
        assert [e.bits for e in enumerate_affine(full)] == list(range(1 << m))


def test_enumeration_cap():
    big = AffineSpace(BitVector.zero(23), BitMatrix.identity(23))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_affine(big)


def test_affine_membership():
    space = AffineSpace(BitVector(1, 3), BitMatrix((2,), 3))
    assert {v.bits for v in enumerate_affine(space)} == {1, 3}  # (1, 0, 0) and (1, 1, 0)


def test_nullspace_is_kernel():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = random_matrix(int(rng.integers(1, 6)), int(rng.integers(1, 8)), rng)
        ns = nullspace(m)
        assert ns.nrows == m.cols - rank(m)
        for i in range(ns.nrows):
            assert all(bin(r & ns.rows[i]).count("1") % 2 == 0 for r in m.rows)


def test_intersection_dim():
    a = BitMatrix((1, 2), 3)
    b = BitMatrix((2, 4), 3)
    assert intersection_dim(a, b) == 1


def test_subspace_elements_count():
    s = BitMatrix((5, 2), 3)
    assert len(set(subspace_elements(s))) == 4


def test_matrix_json_round_trip():
    rng = np.random.default_rng(10)
    m = random_matrix(3, 10, rng)
    doc = m.to_json()
    assert doc["rows"] == 3 and doc["cols"] == 10
    assert BitMatrix.from_json(doc) == m


def test_packing_is_little_endian_per_byte():
    # single row with coordinates 0, 8 and 9 set: byte0 = 0x01, byte1 = 0x03
    m = BitMatrix((769,), 10)
    assert m.to_json()["data"] == "0103"


def test_vector_hex_round_trip():
    v = BitVector(267, 9)
    assert BitVector.from_hex(v.to_hex(), 9) == v


def test_from_hex_takes_exactly_the_declared_width():
    assert BitVector.from_hex("0b01", 9) == BitVector(267, 9)
    assert BitVector.from_hex("ff", 8) == BitVector(255, 8)
    for text, n in [("0b0100", 9), ("0b", 9), ("ff00", 8), ("", 8), ("0000", 4)]:
        with pytest.raises(PreconditionError, match="bytes, not"):
            BitVector.from_hex(text, n)


# -- the one elimination kernel against brute-force enumeration -------------------


@st.composite
def _systems(draw):
    cols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 7))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=nrows, max_size=nrows))
    rhs = draw(st.integers(0, (1 << nrows) - 1))
    return BitMatrix(tuple(rows), cols), BitVector(rhs, nrows)


def _brute_solutions(m: BitMatrix, b: BitVector) -> set:
    return {
        x
        for x in range(1 << m.cols)
        if all(bin(r & x).count("1") % 2 == (b.bits >> i) & 1 for i, r in enumerate(m.rows))
    }


def _brute_span(rows) -> set:
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return span


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_elimination_matches_brute_force(system):
    m, b = system
    kernel = _brute_solutions(m, BitVector.zero(m.nrows))
    solutions = _brute_solutions(m, b)
    r = rank(m)
    assert len(kernel) == 1 << (m.cols - r)
    assert set(subspace_elements(nullspace(m))) == kernel

    reduced, pivots = rref(m)
    assert len(reduced) == len(pivots) == r
    assert pivots == sorted(pivots)
    for k, (row, col) in enumerate(zip(reduced, pivots)):
        assert row & -row == 1 << col  # the pivot is the row's lowest bit
        assert all((other >> col) & 1 == 0 for j, other in enumerate(reduced) if j != k)
    assert _brute_span(reduced) == _brute_span(m.rows)
    assert rref(BitMatrix(reduced, m.cols)) == (reduced, pivots)  # idempotent

    # augmented columns follow the row operations: a right-hand side in bit
    # cols and an identity record above it
    tagged = [row | (((b.bits >> i) & 1) << m.cols) | (1 << (m.cols + 1 + i)) for i, row in enumerate(m.rows)]
    work, piv2 = eliminate(tagged, m.cols)
    assert piv2 == pivots
    low = (1 << m.cols) - 1
    assert [w & low for w in work[:r]] == list(reduced)
    assert all(w & low == 0 for w in work[r:])
    for w in work:
        record = w >> (m.cols + 1)
        combo = 0
        for i, row in enumerate(m.rows):
            if (record >> i) & 1:
                combo ^= row
        assert combo == w & low
    consistent = all((w >> m.cols) & 1 == 0 for w in work[r:])
    assert consistent == bool(solutions)

    space = solve_affine(m, b)
    if not solutions:
        assert space is None
    else:
        assert {v.bits for v in enumerate_affine(space)} == solutions


# -- subspace enumeration -------------------------------------------------------


def _all_subspaces_brute(n: int, d: int) -> list:
    """Reference: filter all 2^(n d) d x n matrices to rank d and dedupe their spans."""
    if d == 0:
        return [BitMatrix((), n)]
    seen = {}
    for packed in range(1 << (n * d)):
        rows = tuple((packed >> (n * i)) & ((1 << n) - 1) for i in range(d))
        m = BitMatrix(rows, n)
        if rank(m) != d:
            continue
        canon = span_canonical(m)
        seen[canon.rows] = canon
    return list(seen.values())


_subspaces = functools.lru_cache(maxsize=None)(all_subspaces)


def test_all_subspaces_matches_brute_force():
    for n in range(1, 16):
        for d in range(min(n, 15 // n) + 1):
            assert set(all_subspaces(n, d)) == set(_all_subspaces_brute(n, d)), (n, d)


def test_all_subspaces_canonical_distinct_and_counted():
    for n in range(1, 8):
        for d in range(n + 1):
            subs = _subspaces(n, d)
            assert len({s.rows for s in subs}) == len(subs) == count_subspaces(d, n, 2)
            assert all(s.cols == n and s.nrows == d and span_canonical(s) == s for s in subs)


def test_all_subspaces_extreme_dimensions():
    for n in range(1, 8):
        assert all_subspaces(n, 0) == [BitMatrix((), n)]
        assert all_subspaces(n, n) == [BitMatrix.identity(n)]
    assert all_subspaces(3, 4) == []


@st.composite
def _subspace(draw):
    """A subspace of GF(2)^n, n <= 6, drawn by its index in all_subspaces."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, n))
    subs = _subspaces(n, d)
    return subs[draw(st.integers(0, len(subs) - 1))]


@settings(max_examples=200, deadline=None)
@given(_subspace())
def test_dual_of_dual_is_the_subspace(s):
    dual = dual_space(s)
    assert dual.nrows == s.cols - s.nrows
    assert span_canonical(dual_space(dual)) == s


@settings(max_examples=200, deadline=None)
@given(_subspace(), st.data(), st.integers(0, 2**32 - 1))
def test_random_subspace_between_stays_between_walls(upper, data, seed):
    du = upper.nrows
    if du == 0:
        return
    # a lower wall inside upper, written in upper's coordinates
    coords = data.draw(st.sampled_from(_subspaces(du, data.draw(st.integers(0, du)))))
    lower = BitMatrix(tuple(vm(upper, BitVector(c, du)).bits for c in coords.rows), upper.cols)
    d = data.draw(st.integers(lower.nrows, du))
    s = random_subspace_between(lower, upper, d, np.random.default_rng(seed))
    assert s.nrows == rank(s) == d
    assert subspace_contains(s, lower)
    assert subspace_contains(upper, s)
