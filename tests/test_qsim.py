import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boltlab.errors import BoltlabError, PreconditionError, QubitCapExceeded
from boltlab.gf2 import random_subspaces, subspace_elements
from boltlab import jsonio, qsim
from boltlab.qsim import (
    StateVector,
    state_dump,
    state_load,
)
from oracles import (
    allocating_wht,
    apply_bijection,
    basis_state,
    dual_space,
    fidelity,
    from_amplitudes,
    hadamard_all,
    list_state_entries,
    list_state_load,
    loads,
    measure_function,
    measure_register,
    project_onto_span,
    regex_entry_blocks,
    register_values,
    sample_function,
    state_cdf,
    tensor,
    uniform_over,
)


def _random_state(q, rng):
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    return from_amplitudes(q, amps, normalize=True)


def _walsh_matrix(q):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(q):
        out = np.kron(out, h)
    return out


def test_uniform_over_single_point_is_basis_state():
    s = uniform_over([5], 3)
    assert fidelity(s, basis_state(3, 5)) == pytest.approx(1.0)


def test_uniform_over_full_domain():
    s = uniform_over(range(8), 3)
    assert np.allclose(s.amps, 2.0 ** (-1.5))


def test_uniform_over_rejects_bad_input():
    with pytest.raises(PreconditionError, match="point list is empty"):
        uniform_over([], 2)
    with pytest.raises(PreconditionError, match="duplicate basis indices"):
        uniform_over([1, 1], 2)
    with pytest.raises(PreconditionError, match="duplicate basis indices"):
        uniform_over(np.array([3, 0, 2, 0]), 2)
    with pytest.raises(PreconditionError, match="basis index out of range"):
        uniform_over([4], 2)
    with pytest.raises(PreconditionError, match="basis index out of range"):
        uniform_over([-1, 0], 2)
    # the range is checked before the points are written, so it is named first
    with pytest.raises(PreconditionError, match="basis index out of range"):
        uniform_over([4, 4], 2)


def test_hadamard_on_zero():
    assert np.allclose(qsim.wht(basis_state(1, 0).amps, 0), [2**-0.5, 2**-0.5])


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = _random_state(5, rng)
        q = int(rng.integers(5))
        back = qsim.wht(qsim.wht(s.amps, q), q)
        assert np.abs(back - s.amps).max() < 1e-12


def test_hadamard_all_matches_direct_walsh_transform():
    rng = np.random.default_rng(1)
    for q in [2, 4, 6]:
        s = _random_state(q, rng)
        direct = _walsh_matrix(q) @ s.amps
        assert np.abs(hadamard_all(s).amps - direct).max() < 1e-10


def test_hadamard_all_maps_subspace_to_dual():
    rng = np.random.default_rng(2)
    for n in range(2, 9):
        d = int(rng.integers(1, n))
        s = random_subspaces(n, d, 1, rng)[0]
        state = uniform_over(sorted(subspace_elements(s)), n)
        dual = uniform_over(sorted(subspace_elements(dual_space(s))), n)
        assert np.abs(hadamard_all(state).amps - dual.amps).max() < 1e-10


def test_apply_bijection_identity_and_bit_reversal():
    rng = np.random.default_rng(4)
    s = _random_state(4, rng)
    ident = apply_bijection(s, lambda idx: idx)
    assert np.abs(ident.amps - s.amps).max() == 0

    def rev(idx):
        out = np.zeros_like(idx)
        for j in range(4):
            out |= ((idx >> j) & 1) << (3 - j)
        return out

    twice = apply_bijection(apply_bijection(s, rev), rev)
    assert np.abs(twice.amps - s.amps).max() == 0


def test_apply_bijection_xor_involution():
    # (x, d) -> (x, x ^ d) on two 3-qubit registers, x in the high register
    rng = np.random.default_rng(5)
    s = _random_state(6, rng)

    def fold(idx):
        x = idx >> 3
        d = idx & 7
        return (x << 3) | (x ^ d)

    twice = apply_bijection(apply_bijection(s, fold), fold)
    assert np.abs(twice.amps - s.amps).max() == 0


def test_apply_bijection_detects_collision_on_support():
    s = uniform_over([0, 1], 2)
    with pytest.raises(PreconditionError):
        apply_bijection(s, lambda idx: np.zeros_like(idx))


def test_measure_basis_state_deterministic():
    rng = np.random.default_rng(6)
    value, probability, post = measure_register(basis_state(3, 5), [0, 1, 2], rng)
    assert value == 5
    assert probability == pytest.approx(1.0)
    assert fidelity(post, basis_state(3, 5)) == pytest.approx(1.0)


def test_measure_bell_pair_first_qubit():
    bell = from_amplitudes(2, [2**-0.5, 0, 0, 2**-0.5])
    dist = measure_function(bell, register_values(bell, [0]))
    assert len(dist) == 2
    for _, probability, _ in dist:
        assert probability == pytest.approx(0.5)


def test_measure_distribution_sums_to_one():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = _random_state(6, rng)
        qs = list(rng.choice(6, size=int(rng.integers(1, 6)), replace=False))
        dist = measure_function(s, register_values(s, [int(q) for q in qs]))
        assert abs(sum(p for _, p, _ in dist) - 1.0) < 1e-9


def test_measure_marginal_consistency():
    rng = np.random.default_rng(8)
    s = _random_state(5, rng)
    joint = measure_function(s, register_values(s, [0, 1, 2]))
    direct = measure_function(s, register_values(s, [0, 1]))
    marg = {}
    for v, p, _ in joint:
        marg[v & 3] = marg.get(v & 3, 0.0) + p
    for v, p, _ in direct:
        assert abs(marg[v] - p) < 1e-9


def test_project_onto_span_fixes_members():
    rng = np.random.default_rng(9)
    a, b = _random_state(4, rng), _random_state(4, rng)
    p, post = project_onto_span(a, [a, b])
    assert p == pytest.approx(1.0, abs=1e-12)
    assert fidelity(post, a) == pytest.approx(1.0, abs=1e-12)


def test_project_onto_span_orthogonal_state():
    p, post = project_onto_span(basis_state(3, 0), [basis_state(3, 1), basis_state(3, 2)])
    assert p == 0.0
    assert post is None


def test_project_rejects_zero_state_and_empty_span():
    zero = StateVector.__new__(StateVector)
    object.__setattr__(zero, "num_qubits", 2)
    object.__setattr__(zero, "amps", np.zeros(4, dtype=np.complex128))
    with pytest.raises(PreconditionError):
        project_onto_span(zero, [basis_state(2, 0)])
    with pytest.raises(PreconditionError):
        project_onto_span(basis_state(2, 0), [])


def test_projector_idempotence():
    rng = np.random.default_rng(10)
    basis = [_random_state(5, rng) for _ in range(3)]
    s = _random_state(5, rng)
    p1, once = project_onto_span(s, basis)
    p2, twice = project_onto_span(once, basis)
    assert abs(p2 - 1.0) < 1e-10
    assert fidelity(once, twice) > 1 - 1e-10


def test_fidelity_examples():
    s = basis_state(2, 1)
    assert fidelity(s, s) == pytest.approx(1.0)
    assert fidelity(basis_state(2, 0), basis_state(2, 1)) == 0.0
    assert fidelity(basis_state(1, 0), hadamard_all(basis_state(1, 0))) == pytest.approx(0.5)


def test_tensor_examples():
    # |0> tensor |1> = |01>: the first factor occupies the high-order bit
    s = tensor(basis_state(1, 0), basis_state(1, 1))
    assert np.flatnonzero(s.amps).tolist() == [1]
    rng = np.random.default_rng(11)
    a, b, a2, b2 = (_random_state(3, rng) for _ in range(4))
    assert np.linalg.norm(tensor(a, b).amps) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(tensor(a, b), tensor(a2, b2)) == pytest.approx(
        fidelity(a, a2) * fidelity(b, b2), abs=1e-12
    )


def test_qubit_cap(monkeypatch):
    monkeypatch.setenv("LF_QUBIT_CAP", "5")
    assert qsim.qubit_cap() == 5
    with pytest.raises(QubitCapExceeded):
        basis_state(6, 0)
    monkeypatch.delenv("LF_QUBIT_CAP")
    assert qsim.qubit_cap() == 26


def test_states_are_built_without_reading_the_cap(monkeypatch):
    s = basis_state(3, 5)
    monkeypatch.setattr(qsim, "qubit_cap", lambda: pytest.fail("qubit cap read"))
    assert np.linalg.norm(hadamard_all(s).amps) == pytest.approx(1.0, abs=1e-12)


def test_norm_preservation_random_circuit():
    rng = np.random.default_rng(12)
    s = _random_state(8, rng)
    for _ in range(300):
        op = rng.integers(3)
        if op == 0:
            s = StateVector(8, qsim.wht(s.amps, int(rng.integers(8))))
        elif op == 1:
            mask = int(rng.integers(1, 256))
            parity = np.bitwise_count(np.arange(256) & mask) & 1
            s = StateVector(8, s.amps * (1.0 - 2.0 * parity))
        else:
            mask = int(rng.integers(256))
            s = apply_bijection(s, lambda idx, m=mask: idx ^ m)
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12


def test_measurement_disturbance_bound():
    # distance between a state and its most likely collapse is at most sqrt(2 alpha)
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = _random_state(5, rng)
        dist = measure_function(s, register_values(s, [0, 1]))
        _, top, post = max(dist, key=lambda o: o[1])
        alpha = 1.0 - top
        # fix the free global phase to favor the collapsed branch
        phase = np.vdot(post.amps, s.amps)
        phase = phase / abs(phase)
        d = np.linalg.norm(s.amps - phase * post.amps)
        assert d <= np.sqrt(2 * alpha) + 1e-9


def test_close_states_have_close_measurement_statistics():
    # statistical distance of full measurements is at most 4 x Euclidean distance
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = _random_state(4, rng)
        noise = rng.normal(size=16) + 1j * rng.normal(size=16)
        eps = 0.05
        amps = s.amps + eps * noise / np.linalg.norm(noise)
        t = from_amplitudes(4, amps, normalize=True)
        eu = np.linalg.norm(s.amps - t.amps)
        sd = 0.5 * np.abs(np.abs(s.amps) ** 2 - np.abs(t.amps) ** 2).sum()
        assert sd <= 4 * eu + 1e-12


def test_state_dump_round_trip():
    rng = np.random.default_rng(15)
    s = _random_state(5, rng)
    doc = state_dump(s)
    back = state_load(doc)
    assert fidelity(s, back) == pytest.approx(1.0, abs=1e-9)
    sparse = uniform_over([3, 17], 5)
    assert len(json.loads(jsonio.dumps(state_dump(sparse)))["entries"]) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_state_dump_load_keeps_every_amplitude_above_tol(q, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    amps[rng.random(1 << q) < 0.5] = 0.0
    amps[0] = 1.0
    amps[(amps == 0) & (rng.random(1 << q) < 0.5)] = 1e-13  # at or below tol once normalized
    amps = amps / np.linalg.norm(amps)
    state = StateVector(q, amps)
    back = state_load(loads(jsonio.dumps(state_dump(state)).encode()))
    kept = np.abs(amps) > 1e-12
    assert np.array_equal(back.amps, np.where(kept, amps, 0.0))  # equal values, bit for bit
    # real unless a kept entry has a nonzero imaginary part
    assert back.amps.dtype == (np.complex128 if amps.imag[kept].any() else np.float64)


def test_state_load_checks_before_allocating(monkeypatch):
    monkeypatch.setenv("LF_QUBIT_CAP", "4")
    with pytest.raises(QubitCapExceeded):
        state_load({"num_qubits": 5, "entries": [["0", 1.0, 0.0]]})
    with pytest.raises(PreconditionError):
        state_load({"num_qubits": 0, "entries": []})
    for bad in ("10", "-1"):
        with pytest.raises(PreconditionError):
            state_load({"num_qubits": 4, "entries": [[bad, 1.0, 0.0]]})
    # a repeated index: the last entry would win, here over a state of norm 1.2
    with pytest.raises(PreconditionError, match="repeat a basis index"):
        state_load({"num_qubits": 2,
                    "entries": [["0", 0.6, 0.0], ["0", 0.8, 0.0], ["1", 0.6, 0.0]]})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_wht_is_the_dense_walsh_product_and_an_involution(q, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    full = allocating_wht(a, *range(q))
    assert np.abs(full - _walsh_matrix(q) @ a).max() < 1e-12
    assert np.abs(allocating_wht(full, *range(q)) - a).max() < 1e-12
    k = int(rng.integers(q))
    assert np.abs(qsim.wht(qsim.wht(a, k), k) - a).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_wht_is_the_allocating_loop_byte_for_byte(q, complex_amps, seed):
    # the one-qubit pass is the reference loop's on each qubit, in the input's dtype, as a new
    # array: a state's amplitudes are read-only, and never written
    rng = np.random.default_rng(seed)
    a = rng.normal(size=1 << q) + (1j * rng.normal(size=1 << q) if complex_amps else 0)
    a.flags.writeable = False
    for k in range(q):
        got, want = qsim.wht(a, k), allocating_wht(a, k)
        assert got.dtype == want.dtype == a.dtype and got.tobytes() == want.tobytes(), k
        assert not np.shares_memory(got, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_sample_function_draws_as_the_outcome_list_draw(q, nvalues, seed):
    # the draw over the full table picks what a draw over the nonzero
    # outcomes of measure_function picks, from the same generator state
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    amps[rng.random(1 << q) < 0.3] = 0.0
    amps[0] = 1.0
    state = from_amplitudes(q, amps, normalize=True)
    values = rng.integers(0, nvalues, size=1 << q)
    outcomes = measure_function(state, values)
    probs = np.array([p for _, p, _ in outcomes])
    new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(5):
        v, p, post = sample_function(state, values, new)
        ov, op, opost = outcomes[int(old.choice(len(outcomes), p=probs / probs.sum()))]
        assert (v, p) == (ov, op)
        assert post.amps.tobytes() == opost.amps.tobytes()


def _sparse_state(q, rng):
    amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    amps[rng.random(1 << q) < 0.4] = 0.0
    amps[0] = 1.0
    return from_amplitudes(q, amps, normalize=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_born_table_draw_is_the_full_measurement_draw(q, seed):
    # a draw from a state's |amp|^2 table picks what measuring every qubit picks
    state = _sparse_state(q, np.random.default_rng(seed))
    assert np.array_equal(state_cdf(state)[0], np.flatnonzero(state.amps))
    new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(5):
        v = qsim.draw(state_cdf(state), new)
        assert v == measure_register(state, list(range(q)), old)[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_draw_from_a_kept_cdf_is_the_choice_draw(size, seed, zero_first, zero_last):
    # one CDF kept on the support draws what rng.choice over the whole table draws,
    # and leaves the generator where rng.choice leaves it
    rng = np.random.default_rng(seed)
    table = rng.random(size) ** 2
    table[rng.random(size) < 0.4] = 0.0
    table[0] = 0.0 if zero_first else table[0]
    table[-1] = 0.0 if zero_last else table[-1]
    table[rng.integers(size)] = 0.5  # some mass
    cdf = qsim.born_cdf(table)
    assert np.array_equal(cdf[0], np.flatnonzero(table))
    new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(20):
        assert qsim.draw(cdf, new) == old.choice(table.size, p=table / table.sum())
    assert new.bit_generator.state == old.bit_generator.state


def test_state_cache_is_not_compared_or_copied():
    a = uniform_over([1, 2], 2)
    a.cache["analysis"] = object()  # what a verifier keeps on the state
    assert not any(x.flags.writeable for x in state_cdf(a))
    b = StateVector(2, a.amps)
    assert b.cache == {} and a == b
    assert "cache" not in repr(a)


def test_uniform_over_takes_any_order_and_keeps_its_checks():
    want = uniform_over([1, 3, 5], 3).amps.tobytes()
    assert uniform_over(np.array([5, 1, 3]), 3).amps.tobytes() == want
    assert uniform_over(range(1, 6, 2), 3).amps.tobytes() == want
    for bad, msg in [([], "empty"), ([3, 1, 3], "duplicate"), ([2, -1], "range"),
                     ([0, 8], "range")]:
        with pytest.raises(PreconditionError, match=msg):
            uniform_over(bad, 3)


BLOCK = qsim._BLOCK
# -0.0, subnormals, the 1e-12 cut and just above it, and a small normal value
SPECIAL = [-0.0, 0.0, 5e-324, 1e-310, 1e-12, np.nextafter(1e-12, 1.0), -np.nextafter(1e-12, 1.0),
           3e-7]


def _dump_case(kind, size, rng):
    """dense: a q = size state with about 40% zeros; sparse: up to five entries in a q = size
    register; count: exactly size entries, from index 0, at q = 16; special: q = size, every
    entry but index 0 has re and im from SPECIAL, and im is 0 everywhere when size is odd."""
    if kind == "dense":
        return _sparse_state(size, rng)
    if kind == "special":
        re, im = rng.choice(SPECIAL, size=(2, 1 << size))
        amps = re + 1j * im if size % 2 == 0 else re
        amps[0] = 1.0
        return StateVector(size, amps)
    q, n = (size, min(5, 1 << size)) if kind == "sparse" else (16, size)
    amps = np.zeros(1 << q)
    where = rng.choice(1 << q, n, replace=False) if kind == "sparse" else np.arange(n)
    amps[where] = rng.normal(size=n)
    return StateVector(q, amps / np.linalg.norm(amps))


def _read(load, text):
    """The amplitudes and dtype a decoder reads of a state's text, or the CLI error kind."""
    try:
        amps = load(text).amps
        return amps.dtype, amps.view(np.uint8)
    except BoltlabError as err:
        return err.kind
    except (ValueError, TypeError, KeyError, IndexError):
        return "bad_input"


def _new_read(text):
    # inside a document, as a note holds its state: a compact entries array comes as its Text
    return _read(lambda t: state_load(loads(('{"state":%s}' % t).encode())["state"]), text)


def _same_read(text):
    """state_load reads what the list decoder reads of json.loads' lists."""
    got, want = _new_read(text), _read(lambda t: list_state_load(json.loads(t)), text)
    assert type(got) is type(want), text[:200]
    if isinstance(got, str):
        assert got == want, text[:200]
    else:
        assert got[0] == want[0] and np.array_equal(got[1], want[1]), text[:200]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.just("dense"), st.integers(1, 8)),
                 st.tuples(st.just("sparse"), st.integers(1, 20)),
                 st.tuples(st.just("special"), st.integers(1, 8))), st.integers(0, 2**32 - 1))
@example(("sparse", 24), 1)
@example(("special", 10), 2)
@example(("special", 11), 3)
@example(("count", BLOCK - 1), 4)
@example(("count", BLOCK), 5)
@example(("count", BLOCK + 1), 6)
@example(("count", 3 * BLOCK + 7), 7)
def test_state_dump_writes_the_bytes_of_the_list_form(case, seed):
    # bolt files written while entries were lists, and read back the same
    state = _dump_case(*case, np.random.default_rng(seed))
    lists = list_state_entries(state)
    doc = {"num_qubits": state.num_qubits, "entries": lists}
    text = jsonio.dumps(doc)
    assert text == json.dumps(doc, separators=(",", ":"))
    assert jsonio.dumps(state_dump(state)) == text
    # read back as the list decoder reads the compact text, json.dumps' spacing, uppercase
    # hex, integer amplitudes (every integral float) and a NaN amplitude
    upper = [[h.upper(), x, y] for h, x, y in lists]
    integers = [[h] + [int(v) if v.is_integer() else v for v in (x, y)] for h, x, y in lists]
    nan = [[lists[0][0], float("nan"), lists[0][2]]] + lists[1:]
    for variant in (text, json.dumps(doc), *(jsonio.dumps({**doc, "entries": e})
                                             for e in (upper, integers, nan))):
        _same_read(variant)
    assert state_load(state_dump(state)).amps.tobytes() == state_load(doc).amps.tobytes()


# the list decoder took these for amplitudes or for no entries; they are bad_input now
STRICTER = ['[["0","1",0]]', '[["0",true,0]]', "{}"]


@pytest.mark.parametrize("entries", [
    "[]", "[ ]", '[["20",1.0,0.0]]', '[["-1",1.0,0.0]]', '[["3",0.6,0.0],["0",0.8,0.0]]',
    '[["1f",1.0,0.0],["1F",0.0,0.0]]', '[["0",1e0,0E-5]]', '[ [ "0" , 1 , 0 ] ]',
    '[["0",Infinity,0.0]]', '[["0",-Infinity,0.0]]', '[["0",-0,-0.0],["1",1,-0]]',
    '[["0",1e400,0]]', '[["0",1,-1e-400]]', '[["0",2.4703282292062328e-324,1]]',
    '[["0",1.0]]', '[["0",1.0,0.0,0.0]]', '[[0,1.0,0.0]]', '[["g",1.0,0.0]]', '[["",1.0,0.0]]',
    '[["0",1.0,0.0],]', '[,["0",1.0,0.0]]', '[["0",1.0,0.0]["1",0.0,0.0]]', '[["0",01,0]]',
    '[["0",1.,0]]', '[["0",.5,0]]', '[["0",+1,0]]', "7", *STRICTER,
])
def test_state_load_refuses_entries_as_the_list_decoder_does(entries):
    # empty, out of range, repeated or signed indices, odd numbers, and entries that are
    # not [hex, re, im]: the same amplitude bytes, dtype or error kind, at q = 5
    text = '{"num_qubits":5,"entries":%s}' % entries
    if entries in STRICTER:
        assert _new_read(text) == "bad_input"
    else:
        _same_read(text)


_VALUES = [0.5, -0.25, 1.0, 0.0, -0.0, 0.1, 2.0 ** -0.5, 1e-300, 5e-324, 3e20, -7.0]
_SPELLINGS = {  # what a number is replaced by: zeros, the special words, and text json refuses
    "zero": [b"-0", b"-0.0", b"0", b"-0e0", b"-0E+0", b"0.0", b"-00", b"00"],
    "word": [b"NaN", b"Infinity", b"-Infinity", b"nan", b"-NaN", b"inf"],
}


def _numbers(text):  # each number's span: after a comma, up to the next structural byte
    return [m.span() for m in re.finditer(rb'(?<=,)[^,\]\["]+', text)]


def _mutate(text: bytearray, rng) -> None:
    numbers, indices = _numbers(text), [m.span() for m in re.finditer(rb'(?<=")[^",]*(?=")', text)]
    op = rng.integers(12) if numbers and indices else rng.integers(10, 12)
    if op == 0:  # a structural byte becomes another
        where = [i for i, c in enumerate(text) if c in b'[",]']
        text[where[rng.integers(len(where))]] = b'[",]'[rng.integers(4)]
    elif op == 1:  # a comma between entries becomes another byte
        where = [m.start() for m in re.finditer(rb"(?<=\]),(?=\[)", text)] or [len(text) - 1]
        text[where[rng.integers(len(where))]] = b'[]" ,'[rng.integers(5)]
    elif op == 2:  # a sign on a number or an index, or a sign dropped
        i = (numbers + indices)[rng.integers(len(numbers) + len(indices))][0]
        text[i:i + 1] = text[i + 1:i + 1] if text[i:i + 1] == b"-" else b"-" + text[i:i + 1]
    elif op == 3:  # an exponent after a number, or half of one
        text[numbers[rng.integers(len(numbers))][1]:][:0] = [b"e5", b"E-3", b"e+0", b"e", b"E+400",
                                                            b"e-400", b"E0"][rng.integers(7)]
    elif op == 4:  # whitespace anywhere
        i = int(rng.integers(len(text) + 1))
        text[i:i] = b" \n\t\r"[rng.integers(4):][:1]
    elif op in (5, 6):  # a zero of either sign, or a special word
        a, b = numbers[rng.integers(len(numbers))]
        words = _SPELLINGS["zero" if op == 5 else "word"]
        text[a:b] = words[rng.integers(len(words))]
    elif op == 7:  # uppercase hex
        a, b = indices[rng.integers(len(indices))]
        text[a:b] = text[a:b].upper()
    elif op == 8:  # leading zeros, up to past 15 digits, and perhaps a sign before them
        a, b = indices[rng.integers(len(indices))]
        text[a:b] = b"-"[:rng.integers(2)] + b"0" * int(rng.integers(1, 18)) + text[a:b]
    elif op == 9:  # the same value, spelled longer: an equal tail of another length
        a, b = numbers[rng.integers(len(numbers))]
        word = bytes(text[a:b])
        if b"e" not in word.lower() and word[-1:].isdigit():
            text[b:b] = b"0" if b"." in word else b".0"
    elif op == 10:  # a byte dropped
        i = int(rng.integers(len(text)))
        del text[i]
    else:  # a byte put in, a NUL too
        i = int(rng.integers(len(text) + 1))
        text[i:i] = b'0123456789abcdefgA.-+[]",eEN\0'[rng.integers(29):][:1]


def _entries_text(seed: int) -> bytes:
    """A compact entries text of a few distinct tails, so that equal tails form runs, with up to
    three mutations."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 40))
    pool = rng.choice(_VALUES, size=3)
    entries = [[format(int(i), "x"), float(rng.choice(pool)), float(rng.choice(pool[:2]))]
               for i in np.sort(rng.choice(1 << 12, count, replace=False))]
    text = bytearray(jsonio.encode(entries).encode())
    for _ in range(int(rng.integers(4))):
        _mutate(text, rng)
    return bytes(text)


def _bits(reader, text):
    """Each column's dtype and bytes over the blocks a reader yields, or the error kind."""
    try:
        blocks = list(reader(jsonio.Text((memoryview(text),))))
    except BoltlabError as err:
        return err.kind
    except (ValueError, TypeError, KeyError, IndexError):
        return "bad_input"
    return [(str(col.dtype), col.tobytes()) for col in
            (np.concatenate(cols) for cols in zip(*blocks))] if blocks else []


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 30, 64, 1 << 17]))
@example(1, 1 << 17)
def test_entry_reader_reads_mutated_texts_as_the_regex_reader(seed, read):
    # flipped brackets, quotes and commas, signs, exponents, whitespace, zeros, special words,
    # uppercase hex, long indices, equal values spelled at other lengths, and bytes dropped or
    # put in; blocks of a few entries, so that entries and mutations straddle block boundaries
    text = _entries_text(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "_READ", read)
        got, want = _bits(qsim._entry_blocks, text), _bits(regex_entry_blocks, text)
    assert got == want, text


@pytest.mark.parametrize("read", [8, 1 << 17])
@pytest.mark.parametrize("text", [
    b'[["0",1,0][["1",1,0]]', b'[["0",1,0]]["1",1,0]]', b'[["0",1,0] ["1",1,0]]',
    b'[["0",1,0]"["1",1,0]]', b'[["0",1,0],["1",1,0]\0]', b'[["0",1,0],["1",1,0]\0,["2",1,0]]',
    b'[["5",1,0],["-b",1,0]]["c",nan,0]]',
    b'[["-00000000000000000001",1,0]]', b'[["-0000000000000000001g",1,0]]',
    b'[["1",1.5,0],["2",1.50,0],["3",1.5,0],["4",1.5e0,0],["5",1.5,0]]',
    b'[["1",-0,0],["2",-0.0,0],["3",0,-0]]', b'[["A",NaN,0],["b",Infinity,-Infinity]]',
])
def test_entry_reader_reads_handpicked_texts_as_the_regex_reader(text, read):
    # separators that are not commas (one after a block of a signed index: not JSON, so bad_input
    # before the index is refused), a NUL after a tail, wide and signed indices, equal values
    # spelled at other lengths, zeros of either sign and the special words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "_READ", read)
        assert _bits(qsim._entry_blocks, text) == _bits(regex_entry_blocks, text)


def test_state_dump_and_load_hold_no_object_per_amplitude():
    # a 2^16-entry register at q = 18: the list form cost about 200 B an entry, against
    # about 36 B of text; dumping, reading the file's JSON and loading each stay within
    # the text and the amplitudes, and a MiB
    rng = np.random.default_rng(3)
    amps = np.zeros(1 << 18)
    amps[rng.choice(1 << 18, 1 << 16, replace=False)] = rng.normal(size=1 << 16)
    state = StateVector(18, amps / np.linalg.norm(amps))
    text = '{"state":%s}' % jsonio.dumps(state_dump(state))
    doc = loads(text.encode())["state"]
    for run in (lambda: state_dump(state), lambda: loads(text.encode()),
                lambda: state_load(doc)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) + state.amps.nbytes + (1 << 20), peak


def test_entry_patterns_compile_on_python_3_10():
    # the package supports Python 3.10, whose re refuses possessive quantifiers and atomic
    # groups; the entries grammar and the span rule are checked entry by entry instead
    patterns = [p.pattern.decode() if isinstance(p.pattern, bytes) else p.pattern
                for mod in (qsim, jsonio) for p in vars(mod).values() if isinstance(p, re.Pattern)]
    assert len(patterns) >= 3
    for pattern in patterns:
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", pattern), pattern


def _uniform_dumps():
    """Dumps of one amplitude on a support: psi_y of keys at m = 6, 12 and 16 with the
    amplitudes 1/sqrt(N), -1/sqrt(N) and e^(i theta)/sqrt(N), a point, and money notes."""
    from boltlab import lightning as lt, money
    from boltlab.mqhash import keygen
    from boltlab.gf2 import BitVector
    out = []
    for n, m in ((1, 6), (2, 12), (2, 16)):
        key = keygen(n, m, np.random.default_rng(m))
        for y in range(1 << n):
            fiber = lt.Fiber(key, BitVector(y, n))
            if not fiber.size:
                continue
            out.append(state_dump(fiber))
            for phase in (-1.0, np.exp(0.7j)):
                out.append(state_dump(StateVector(m, phase * fiber.amps)))
        out.append(state_dump(lt.Point(key, BitVector(5, m))))
    out += [state_dump(money.money_gen(n, np.random.default_rng(n))) for n in (2, 6, 14, 20)]
    return out


def test_a_uniform_dump_loads_as_its_support_and_dumps_back_to_its_bytes():
    for doc in _uniform_dumps():
        text = jsonio.dumps(doc)
        back = state_load(loads(text.encode()))  # from a file's spans, as the CLI reads it
        assert isinstance(back, qsim.SupportState)
        assert jsonio.dumps(state_dump(back)) == jsonio.dumps(state_dump(state_load(doc))) == text
        want = list_state_load(json.loads(text)).amps
        assert back.amps.dtype == want.dtype and back.amps.tobytes() == want.tobytes()


@pytest.mark.parametrize("q,count", [(3, 7), (10, 1 << 9), (16, 40_000)])
@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
def test_a_dense_dump_loads_dense_and_dumps_back_to_its_bytes(q, count, phase):
    # blocks of one amplitude before blocks of others: the blocks held are scattered too
    rng = np.random.default_rng(q)
    amps = np.zeros(1 << q)
    amps[:count] = 1.0
    amps[count:] = np.where(rng.random((1 << q) - count) < 0.5, rng.normal(size=(1 << q) - count), 0)
    state = StateVector(q, phase * amps / np.linalg.norm(amps))
    doc = state_dump(state)
    back = state_load(doc)
    assert type(back) is StateVector and back.amps.tobytes() == state.amps.tobytes()
    assert jsonio.dumps(state_dump(back)) == jsonio.dumps(doc)


@pytest.mark.parametrize("entries", [
    [["3", 0.5, 0.0], ["1", 0.5, 0.0], ["0", 0.5, 0.0], ["2", 0.5, 0.0]],  # out of order
    [["3", 0.5, 0.0], ["1", 0.5, 0.0], ["3", 0.5, 0.0], ["2", 0.5, 0.0]],  # a repeat
    [["3", 0.5, 0.0], ["1", 0.5, 0.0], ["20", 0.5, 0.0], ["1", 0.5, 0.0]],  # outside, repeat
    [["0", 0.6, 0.0], ["1", 0.6, 0.0]], [["0", 0.5, 0.0]], [["0", 0.0, 0.0]],  # off norm
    [["0", 0.7071069, 0.0], ["1", 0.7071069, 0.0]],  # within 1e-6, outside 5e-7
    [["0", float("nan"), 0.0]], [["0", 1.0, float("nan")]], [["4", 0.0, 1.0]],
    [["4", 1.0, -0.0]], [["4", -0.0, -1.0]],
    [["1", 0.7071067811865476, 0.0], ["2", 0.7071067811865476, -0.0]],  # im compared by bits
])
def test_a_uniform_load_refuses_and_reads_as_the_list_decoder_does(entries):
    # the same amplitude bytes and dtype, or the same error and message, at q = 5
    def read(load):
        try:
            amps = load().amps
            return amps.dtype, amps.tobytes()
        except BoltlabError as err:
            return str(err)
    doc = {"num_qubits": 5, "entries": entries}
    assert read(lambda: state_load(doc)) == read(lambda: list_state_load(doc))
