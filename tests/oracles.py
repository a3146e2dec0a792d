"""References and helpers that only the tests use.

Each reference is the slow, literal form of something ``boltlab`` computes
another way: the basis state and the fidelity as one dot product over the
whole states, which the counterfeit game's closed-form scores are checked
against, the Gram-Schmidt span projector that lightning's fiber mean and
money's rank-1 projector are checked against, a measurement drawn from the
whole state with its collapsed post-state and the full outcome list it draws
one value from, a basis relabeling, the four steps of joint generation on a
dense array (lightning builds the state they leave from its closed form),
both verifiers with their whole post-states (the fiber-mean projector on any
block of a register, the circuit run backwards with its post-state, the
block-by-block verification of a joint bolt on the collapsed state, and
money's two tests on the whole state, with membership tables built from the
note's basis and the Hadamard on every qubit between them), the
literal-measurement reading of the circuit verifier, the phase states
phi_r, each transcript's solved r and the circuit's earlier form (inner
products with each extracted phi_r masked to the transcripts that solve to
r; the circuit reads the same numbers off one vector's fiber sums), the
extraction plan's rounds built by substituting affine maps into the key's
quadratic forms (with each round of a plan expanded to an index array and a
transcript split into its fields), the cloning bound matrix built one inner
product at a time, the whole prior matrix sqrt(p_i p_j) and the power
iteration that computes C x three times per step, the exhaustive survey of
joint generation's difference tuples, the per-candidate subspace sampler that
eliminates each draw on its own, the per-trial counterfeit loop (with the
built-in counterfeiters on dense note states, and the subspace family built
one state at a time) and psi_y builder that build every note and register
anew (with
``dense_registers``, which patches them in for the
``Fiber`` and ``Point`` descriptions lightning's storms and producers make,
and with the counterfeit loop's hybrid-wall sampling between two
subspaces, and the canonical basis and dual space that sampling uses), and
the closed-form rates of the built-in counterfeiters, of the lightning games
and of the min-entropy probe's producers, with the binomial band that
sampled counts must lie in, the list form of a state dump's entries with the
decoder that read it, ``loads`` (``jsonio.load`` of bytes), and the earlier
forms of five kernels: the reader that scanned a file's whole bytes for its
Text spans, the fiber sums gathered through the permutation that sorts every
input by digest, the entries reader that checked every entry by one regular
expression and parsed every float, the digest table built one output bit at
a time, and the Walsh-Hadamard transform that allocated an array per qubit.
A state's whole Born CDF, the dense uniform state over a support and the
dense money note (``boltlab`` holds both as their supports), and one matrix's
rows stacked on another's, which nothing in ``src/`` needs, are here too.
"""
from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from boltlab import jsonio, lightning as lt, money, qsim
from boltlab.errors import ConvergenceError, DimensionMismatch, PreconditionError
from boltlab.extraction import circuit_span_analysis, get_plan
from boltlab.gf2 import (
    BitMatrix, BitVector, all_subspaces, eliminate, enumerate_affine, nullspace,
    nullspace_from_rref, random_subspaces, rank, solve_affine, subspace_elements,
)
from boltlab.mqhash import HashKey, digest_table, eval_digest, fiber_counts, preimage_indices
from boltlab.qsim import StateVector

DESK = lt.LightningParams(n=2, m=12, k=2, u=3)


def micro(m: int = 4) -> lt.LightningParams:
    return lt.LightningParams(n=1, m=m, k=1, u=2)


# -- states ----------------------------------------------------------------------


def basis_state(num_qubits: int, index: int) -> StateVector:
    """|index> on num_qubits qubits."""
    qsim.check_num_qubits(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise PreconditionError("basis index out of range")
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def uniform_over(points: Sequence[int], num_qubits: int) -> StateVector:
    """Equal amplitude 1/sqrt(len(points)) on each listed basis index: the dense form of a state
    that ``boltlab`` holds as its support."""
    qsim.check_num_qubits(num_qubits)
    pts = np.asarray(points, dtype=np.int64)
    if pts.size == 0:
        raise PreconditionError("point list is empty")
    if pts.min() < 0 or pts.max() >= (1 << num_qubits):
        raise PreconditionError("basis index out of range")
    amps = np.zeros(1 << num_qubits)
    amps[pts] = 1.0 / np.sqrt(pts.size)
    if np.count_nonzero(amps) != pts.size:  # a repeated index was written twice
        raise PreconditionError("duplicate basis indices")
    return StateVector(num_qubits, amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, one dot product over the whole states."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatch("states have different qubit counts")
    return float(np.abs(np.vdot(a.amps, b.amps)) ** 2)


def from_amplitudes(num_qubits: int, amps, normalize: bool = False) -> StateVector:
    arr = np.asarray(amps, dtype=np.complex128).copy()
    if normalize:
        arr = arr / np.linalg.norm(arr)
    return StateVector(num_qubits, arr)


def list_state_load(doc: dict) -> StateVector:
    """The state-dump decoder of the list form: one Python ``[hex, re, im]`` per entry, as
    ``json.loads`` parses it.  ``qsim.state_load`` reads the same text as columns."""
    q = int(doc["num_qubits"])
    qsim.check_num_qubits(q)
    entries = doc["entries"]
    idx = [int(idx_hex, 16) for idx_hex, _, _ in entries]
    if idx and not (0 <= min(idx) and max(idx) < 1 << q):
        raise PreconditionError("state entry index outside the register")
    idx = np.asarray(idx, dtype=np.int64)
    seen = np.zeros(1 << q, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) != idx.size:
        raise PreconditionError("state entries repeat a basis index")
    re, im = (np.fromiter((e[i] for e in entries), np.float64, len(idx)) for i in (1, 2))
    amps = np.zeros(1 << q, dtype=np.complex128 if im.any() else np.float64)
    amps[idx] = re
    if im.any():
        amps.imag[idx] = im
    return StateVector(q, amps)


def list_state_entries(state: StateVector) -> list:
    """The list form of a state dump's entries: ``[hex, re, im]`` with |amp| > 1e-12."""
    idx = np.flatnonzero(np.abs(state.amps) > 1e-12)
    return [[format(int(i), "x"), float(state.amps[i].real), float(state.amps[i].imag)]
            for i in idx]


def loads(data: bytes):
    """``jsonio.load`` of a file that holds ``data``."""
    return jsonio.load(io.BytesIO(data))


def whole_spans(data: bytes) -> list:
    """``jsonio``'s spans, found in the whole bytes at once: (start, end) of each array after a
    whole ``TEXT_ARRAY`` key that the unescaped quotes before it leave outside any string, its
    colon and any whitespace, up to [] or the first "]" ws "]", unless it holds "{" or ":"."""
    keys = re.compile(b"%s:[ \t\n\r]*\\[" % re.escape(jsonio.encode(jsonio.TEXT_ARRAY).encode()))
    spans, counted, pos, inside = [], 0, 0, False  # the quotes before `counted` are counted
    while found := keys.search(data, pos):
        inside ^= len(jsonio._QUOTE.findall(data, counted, found.start())) % 2 == 1
        counted, pos = found.start(), found.start() + 1
        if not inside:
            i = found.end() - 1
            j = (jsonio._EMPTY.match(data, i) or jsonio._CLOSE.search(data, i)).end()
            if data.find(b"{", i, j) == -1 == data.find(b":", i, j):  # as no entries array does
                spans.append((i, j))
                counted = pos = j
    return spans


def whole_loads(data: bytes):
    """The reader that held a file's whole bytes: ``json.loads`` of the UTF-8 text, with each of
    ``whole_spans`` a Text of the bytes and json parsing only the gaps; other text goes to
    ``json.loads`` whole.  A Text's part is a ``jsonio._Span`` of ``data``, as ``load`` makes."""
    if not data.isascii():
        data.decode()  # UTF-8 only: spans are never decoded, so the whole is checked once
    try:
        spans = whole_spans(data)
        source = io.BytesIO(data)
        texts = iter([jsonio.Text((jsonio._Span(source, i, j),)) for i, j in spans])
        bounds = [0, *(k for span in spans for k in span), len(data)]
        gaps = [data[a:b].decode() for a, b in zip(bounds[::2], bounds[1::2])]
        mark = "1" * max((len(r) + 1 for gap in gaps for r in re.findall("1+", gap)), default=1)
        obj = json.loads(mark.join(gaps), parse_int=lambda s: next(texts) if s == mark else int(s))
        whole = next(texts, None) is None
    except Exception:
        whole = False
    return obj if whole else json.loads(data.decode())


_END = re.compile(rb"\]|\Z")  # a block's end: an entry's, or the last entry's
_ROW = re.compile(rb'\["-?[0-9a-fA-F]+",%s,%s\],' % (qsim._NUM, qsim._NUM))  # an entry, its comma


def regex_entry_blocks(entries, spelled: bool = False):
    """(index, re, im) of compact entries bytes, in the blocks ``qsim._entry_blocks`` cuts: each
    block checked by ``_ROW``, hex digits read by the nibble table, and every float parsed by
    one ``np.fromstring`` with brackets and indices blanked.  Other text is respelled from
    json's, from the first entry no block has yielded."""
    parts = (entries.parts if isinstance(entries, jsonio.Text)
             else (jsonio.encode(entries).encode(),))
    text = b"".join(part[:] for part in parts)  # a load's part is read from its file
    if text[:1] != b"[" or text[-1:] != b"]":
        raise ValueError("state entries are not a list of [index hex, re, im]")
    start, done = 1, 0
    while start < len(text) - 1:
        end = _END.search(text, min(start + qsim._READ, len(text) - 1), len(text) - 1).end()
        raw = bytes(text[start:end])
        if _ROW.sub(b"", raw + b",") or text[end] != b",]"[end == len(text) - 1]:
            if spelled:
                raise ValueError("state entries are not a list of [index hex, re, im]")
            yield from regex_entry_blocks(json.loads(str(text, "utf-8"))[done:], True)
            return
        quotes = np.flatnonzero(np.frombuffer(raw, np.uint8) == 34)
        first, stop = quotes[0::2] + 1, quotes[1::2]
        width = int((stop - first).max())
        pos = np.maximum(stop[:, None] + np.arange(-min(width, 16), 0), first[:, None] - 1)
        nib = qsim._NIBBLE[np.frombuffer(raw, np.uint8)[pos]]
        if width > 15 or nib.max() > 15:
            raise PreconditionError("state entry index outside the register")
        idx = (nib.astype(np.int64) << np.arange(4 * width - 4, -1, -4)).sum(1)
        floats = np.frombuffer(bytearray(raw.translate(bytes.maketrans(b'[]"', b"   "))), np.uint8)
        floats[pos] = floats[stop + 1] = 32
        values = np.fromstring(floats.tobytes(), sep=",")
        yield idx, values[0::2], values[1::2]
        start, done = end + 1, done + idx.size


def doubling_digest_table(key: HashKey) -> np.ndarray:
    """``mqhash.digest_table`` one output bit at a time: f_i(x + e_j) = f_i(x) + x . sym_i[j] +
    A_i[j, j] for x below 2^j, with the parities read by ``bitwise_count``."""
    size = 1 << key.m
    table = np.zeros(size, dtype=np.uint32)
    for i, (a, sym) in enumerate(zip(key.mats, key.sym)):
        ti = np.zeros(size, dtype=np.uint8)
        for j in range(key.m):
            half = 1 << j
            block = np.arange(half, dtype=np.uint64)
            lin = (np.bitwise_count(block & np.uint64(sym[j])) & 1).astype(np.uint8)
            ti[half : 2 * half] = ti[:half] ^ lin ^ a.entry(j, j)
        table |= ti.astype(np.uint32) << i
    return table


def allocating_wht(amps: np.ndarray, *qubits: int) -> np.ndarray:
    """``qsim.wht`` on each listed qubit in turn: the same sums and differences, in the same
    order, so the fast Walsh-Hadamard transform when every qubit is listed."""
    out = amps
    for q in qubits:
        a = out.reshape(-1, 2, 1 << q)
        nxt = np.empty_like(a)
        np.add(a[:, 0, :], a[:, 1, :], out=nxt[:, 0, :])
        np.subtract(a[:, 0, :], a[:, 1, :], out=nxt[:, 1, :])
        nxt *= qsim._SQRT_HALF
        out = nxt.reshape(-1)
    return out


def hadamard_all(state: StateVector) -> StateVector:
    """Hadamard on every qubit: the GF(2) quantum Fourier transform."""
    return StateVector(state.num_qubits, allocating_wht(state.amps, *range(state.num_qubits)))


def phi_amplitudes(key: HashKey, r: int) -> np.ndarray:
    """Real amplitudes of phi_r = 2^{-m/2} sum_x (-1)^{r . f(x)} |x>."""
    parity = np.bitwise_count(digest_table(key) & r) & 1  # r < 2^n: in the table's dtype
    return (1.0 - 2.0 * parity.astype(np.float64)) / np.sqrt(1 << key.m)


def phi_state(key: HashKey, r: int) -> StateVector:
    return StateVector(key.m, phi_amplitudes(key, r))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Product state with a in the high-order register."""
    qsim.check_num_qubits(a.num_qubits + b.num_qubits)
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amps, b.amps))


def ideal_product_state(key: HashKey, y, copies: int) -> StateVector:
    """psi_y tensored ``copies`` times (micro sizes only)."""
    return reduce(tensor, [fresh_psi_state(key, y)] * copies)


def apply_bijection(state: StateVector, pi: Callable[[np.ndarray], np.ndarray]) -> StateVector:
    """amp'(pi(x)) = amp(x); pi maps an index array to an index array.

    pi only needs to be injective on the support; a collision among relabeled
    support indices raises.
    """
    idx = np.arange(state.amps.size, dtype=np.int64)
    target = np.asarray(pi(idx), dtype=np.int64)
    if target.min() < 0 or target.max() >= state.amps.size:
        raise PreconditionError("bijection maps outside the register")
    support = np.flatnonzero(np.abs(state.amps) > 0)
    tgt = target[support]
    if len(np.unique(tgt)) != tgt.size:
        raise PreconditionError("map is not injective on the support")
    amps = np.zeros_like(state.amps)
    amps[tgt] = state.amps[support]
    return StateVector(state.num_qubits, amps)


# -- measurements ----------------------------------------------------------------


def state_cdf(state: StateVector) -> tuple:
    """``born_cdf`` of the Born probabilities |amp|^2 of the state's basis states."""
    return qsim.born_cdf(np.abs(state.amps) ** 2)


def outcome_table(state: StateVector, values: np.ndarray) -> np.ndarray:
    """Born mass of each value of a classical function of the basis index."""
    if values.shape != state.amps.shape:
        raise DimensionMismatch("function table length differs from state size")
    return np.bincount(values.astype(np.int64), weights=np.abs(state.amps) ** 2)


def collapse(state: StateVector, values: np.ndarray, v: int, mass: float) -> StateVector:
    """The post-state after the function ``values`` read v, of Born mass ``mass``."""
    post = np.where(values == v, state.amps, 0.0) / np.sqrt(mass)
    return StateVector(state.num_qubits, post)


def sample_function(
    state: StateVector, values: np.ndarray, rng: np.random.Generator
) -> Tuple[int, float, StateVector]:
    """Measure a classical function of the basis index (``values[i]`` is its value
    on basis state i) with one Born draw: (value, probability, post_state)."""
    table = outcome_table(state, values)
    v = qsim.draw(qsim.born_cdf(table), rng)
    return v, float(table[v]), collapse(state, values, v, table[v])


def register_values(state: StateVector, qubit_indices: Sequence[int]) -> np.ndarray:
    """Value of the listed qubits at every basis index (bit j is qubit_indices[j])."""
    if len(set(qubit_indices)) != len(qubit_indices):
        raise PreconditionError("duplicate qubit indices")
    if any(not 0 <= q < state.num_qubits for q in qubit_indices):
        raise PreconditionError("qubit index out of range")
    idx = np.arange(state.amps.size, dtype=np.int64)
    out = np.zeros_like(idx)
    for j, q in enumerate(qubit_indices):
        out |= ((idx >> q) & 1) << j
    return out


def measure_function(state: StateVector, values: np.ndarray) -> List[Tuple[int, float, StateVector]]:
    """Exact outcome list of measuring a function of the basis index: (value,
    probability, post_state) for every value with nonzero mass."""
    table = outcome_table(state, values)
    return [
        (int(v), float(table[v]), collapse(state, values, v, table[v]))
        for v in np.flatnonzero(table > 0.0)
    ]


def measure_register(
    state: StateVector, qubit_indices: Sequence[int], rng: np.random.Generator
) -> Tuple[int, float, StateVector]:
    """Sample the listed qubits with Born probabilities and collapse."""
    return sample_function(state, register_values(state, qubit_indices), rng)


# -- span projection -------------------------------------------------------------


def orthonormalize(states: Sequence[StateVector], drop_tol: float = 1e-10) -> List[np.ndarray]:
    """Modified Gram-Schmidt; vectors with residual norm below drop_tol are dropped."""
    basis: List[np.ndarray] = []
    for s in states:
        v = s.amps.copy()
        for e in basis:
            v -= np.vdot(e, v) * e
        # second pass guards against cancellation in nearly dependent sets
        for e in basis:
            v -= np.vdot(e, v) * e
        nrm = np.linalg.norm(v)
        if nrm > drop_tol:
            basis.append(v / nrm)
    return basis


def project_onto_span(
    state: StateVector, basis_states: Sequence[StateVector]
) -> Tuple[float, Optional[StateVector]]:
    """Probability of projecting onto span(basis_states) and the projected state."""
    if not basis_states:
        raise PreconditionError("span basis is empty")
    for b in basis_states:
        if b.num_qubits != state.num_qubits:
            raise DimensionMismatch("basis state dimension differs from input")
    if np.linalg.norm(state.amps) == 0:
        raise PreconditionError("cannot project the zero state")
    proj = np.zeros(state.amps.shape, np.result_type(state.amps, *(b.amps for b in basis_states)))
    for e in orthonormalize(basis_states):
        proj += np.vdot(e, state.amps) * e
    prob = float(np.linalg.norm(proj) ** 2)
    if prob <= 1e-300:
        return 0.0, None
    return prob, StateVector(state.num_qubits, proj / np.sqrt(prob))


def cloning_bound_matrix(states: Sequence[StateVector], prior: Sequence[float], copies: int) -> np.ndarray:
    """C[i, j] = conj(g) g^copies sqrt(p_i p_j), g = <psi_i|psi_j>, one inner product at a time."""
    c = np.zeros((len(states), len(states)), dtype=np.complex128)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            g = np.vdot(a.amps, b.amps)
            c[i, j] = np.conj(g) * g**copies * np.sqrt(prior[i] * prior[j])
    return c


def prior_matrix(probs: Sequence[float]) -> np.ndarray:
    """Rank-1 matrix sqrt(p_i p_j).  ``bounds`` multiplies C by it a row block at a time."""
    p = np.asarray(probs, dtype=np.float64)
    if not np.isfinite(p).all():
        raise PreconditionError("probabilities must be finite")
    if (p < 0).any():
        raise PreconditionError("negative probability")
    if abs(p.sum() - 1.0) > 1e-12:
        raise PreconditionError("probabilities must sum to 1 within 1e-12")
    r = np.sqrt(p)
    return np.outer(r, r)


def three_product_power_iteration(
    c: np.ndarray, restarts: Optional[list] = None
) -> Tuple[float, np.ndarray, int, float]:
    """``bounds.power_iteration`` with C x computed three times per step: for the iterate,
    its Rayleigh quotient and its residual.  Appends to ``restarts`` the step of each fresh
    draw after the first."""
    n = c.shape[0]
    if n == 1:
        lam = float(np.real(c[0, 0]))
        return lam, np.ones(1), 1, 0.0
    tol, max_iter = 1e-10, 100_000
    rng = np.random.default_rng(11)

    def unit_draw():
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if np.iscomplexobj(c) else 0.0)
        return x / np.linalg.norm(x)

    x = unit_draw()
    last_res = np.inf
    stagnant = 0
    for it in range(1, max_iter + 1):
        y = c @ x
        ynorm = np.linalg.norm(y)
        if ynorm == 0:
            if not c.any():
                return 0.0, x, it, 0.0
            x = unit_draw()
            if restarts is not None:
                restarts.append(it)
            continue
        xn = y / ynorm
        lam_new = float(np.real(np.vdot(xn, c @ xn)))
        res = float(np.linalg.norm(c @ xn - lam_new * xn))
        scale = max(1.0, lam_new)  # the tolerances are relative to lambda1 above 1
        if res < tol * scale:
            return lam_new, xn, it, res
        if res >= last_res - 1e-16 * scale:
            stagnant += 1
        else:
            stagnant = 0
        if stagnant > 50:
            x = unit_draw()
            if restarts is not None:
                restarts.append(it)
            stagnant = 0
            last_res = np.inf
            continue
        x, last_res = xn, res
    raise ConvergenceError(f"power iteration residual {last_res:.3e} after {max_iter} iterations")


# -- GF(2) -----------------------------------------------------------------------


def stack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a's rows above b's."""
    if a.cols != b.cols:
        raise DimensionMismatch("column counts differ")
    return BitMatrix(a.rows + b.rows, a.cols)


def intersection_dim(a: BitMatrix, b: BitMatrix) -> int:
    """dim(span(a) & span(b)) via rank(a) + rank(b) - rank(a stacked on b)."""
    return rank(a) + rank(b) - rank(stack(a, b))


def to_array(m: BitMatrix) -> np.ndarray:
    """The matrix as a rows x cols array of 0/1 entries."""
    bits = [[(r >> j) & 1 for j in range(m.cols)] for r in m.rows]
    return np.array(bits, dtype=np.uint8).reshape(m.nrows, m.cols)


def vm(m: BitMatrix, v: BitVector) -> BitVector:
    """Row-vector product v^T M (equals XOR of rows selected by v)."""
    if v.n != m.nrows:
        raise DimensionMismatch(f"matrix has {m.nrows} rows, vector has {v.n}")
    acc = 0
    for i in range(m.nrows):
        if (v.bits >> i) & 1:
            acc ^= m.rows[i]
    return BitVector(acc, m.cols)


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> BitMatrix:
    """Uniform rows x cols matrix, one ``rng.bytes`` draw per row (the stream that
    ``gf2.random_subspaces`` reproduces with its uint32 draws)."""
    return BitMatrix(tuple(BitVector.random(cols, rng).bits for _ in range(rows)), cols)


def eliminating_subspaces(n: int, d: int, count: int, rng: np.random.Generator) -> list:
    """``gf2.random_subspaces`` one ``eliminate`` per candidate: each round draws every pending
    candidate's rows as uint32s masked to n bits and redraws those of rank below d."""
    out, pending = [None] * count, range(count)
    while pending:
        draws = rng.integers(0, 2**32, size=(len(pending), d), dtype=np.uint32) & ((1 << n) - 1)
        left = []
        for i, rows in zip(pending, draws.tolist()):
            reduced, pivots = eliminate(rows, n)
            if len(pivots) == d:
                out[i] = BitMatrix(tuple(reduced), n)
            else:
                left.append(i)
        pending = left
    return out


def subspace_contains(outer: BitMatrix, inner: BitMatrix) -> bool:
    if outer.cols != inner.cols:
        raise DimensionMismatch("ambient dimensions differ")
    return rank(stack(outer, inner)) == rank(outer)


def rref(m: BitMatrix) -> tuple:
    """Reduced row-echelon form; returns (nonzero rows tuple, pivot column list)."""
    work, pivots = eliminate(m.rows, m.cols)
    return tuple(work[: len(pivots)]), pivots


def span_canonical(m: BitMatrix) -> BitMatrix:
    """Canonical (RREF) basis of the row span; equal spans give equal matrices."""
    reduced, _ = rref(m)
    return BitMatrix(reduced, m.cols)


def dual_space(s: BitMatrix) -> BitMatrix:
    """Basis of S^perp = {x : x . y = 0 for all y in S}; input rows must be independent."""
    if rank(s) != s.nrows:
        raise PreconditionError("input rows must be linearly independent")
    return nullspace(s)


def random_subspace_between(
    lower: BitMatrix, upper: BitMatrix, d: int, rng: np.random.Generator
) -> BitMatrix:
    """Uniform d-dimensional subspace S with lower <= S <= upper.

    Works in the quotient upper/lower: subspaces between the two correspond
    bijectively to subspaces of the quotient, so uniform sampling there lifts
    to uniform sampling here.
    """
    lo = span_canonical(lower)
    up = span_canonical(upper)
    if not subspace_contains(up, lo):
        raise PreconditionError("lower subspace is not contained in the upper one")
    dl, du = lo.nrows, up.nrows
    if not dl <= d <= du:
        raise PreconditionError(f"dimension {d} outside [{dl}, {du}]")
    # coordinates of lower inside upper: solve row_i(lo) = c . up
    upt = up.transpose()
    lo_coords = tuple(solve_affine(upt, BitVector(r, lo.cols)).offset.bits for r in lo.rows)
    pivots = rref(BitMatrix(lo_coords, du))[1]
    free = [c for c in range(du) if c not in pivots]
    w = random_subspaces(du - dl, d - dl, 1, rng)[0]
    lifted = tuple(
        sum(1 << free[j] for j in range(du - dl) if w.entry(i, j)) for i in range(w.nrows)
    )
    # map back from upper-coordinates to ambient coordinates
    rows = tuple(vm(up, BitVector(r, du)).bits for r in lo_coords + lifted)
    return span_canonical(BitMatrix(rows, up.cols))


# -- money, and the games' closed-form rates -------------------------------------

BAND_TAIL = 1e-9  # the mass of Binomial(trials, p) that may lie outside its band


def counterfeit_success(adversary: str, n: int) -> float:
    """Closed-form per-trial success of the built-in counterfeiters: the mean F^2.

    measure-copy returns |x>|x> and fixed-guess |0>|0>, with x and 0 in S, so each copy
    passes with |S|^-1 = 2^(-n/2); honest-forward returns the note (1) and |0> (2^(-n/2)).
    """
    per_copy = 2.0 ** (-n / 2)
    both = per_copy * per_copy
    return {"measure-copy": both, "fixed-guess": both, "honest-forward": per_copy}[adversary]


def counterfeit_f2(adversary: str, n: int) -> float:
    """A built-in counterfeiter's per-trial F^2 in floats: the note's amplitude
    a = 1/sqrt(2^(n/2)), as ``uniform_over`` writes it, squared for each basis-point
    output (the note itself scores exactly 1)."""
    per_copy = float(abs(1.0 / np.sqrt(2 ** (n // 2))) ** 2)
    return per_copy if adversary == "honest-forward" else per_copy * per_copy


def serial_masses(key: HashKey) -> np.ndarray:
    """|F_y| / 2^m for each digest y: the law of f(x) for uniform x, which is an honest
    bolt's serial.  The nonzero count over 2^m is a measured input's collapse-test pass rate."""
    return fiber_counts(key) / float(1 << key.m)


def game_accept_rate(key: HashKey, params: lt.LightningParams, storm: str, strategy: str) -> float:
    """Closed-form per-trial acceptance of the uniqueness game for a built-in storm.

    Both bolts hold 2(k+1) copies of one register, which must each pass and read one
    serial.  The oracle passes psi_y surely and reads y, so cheat-duplicate and
    affine-attack accept surely; the circuit passes psi_y with a_y, the product of its
    stages, where y has mass |F_y| / 2^m.  The classical storm's |x> passes each span
    test with 1 / |F(f(x))| and reads f(x), so its rate is the mean over x of
    |F(f(x))|^(-2(k+1)).
    """
    mass, copies = serial_masses(key), 2 * (params.k + 1)
    ys = np.flatnonzero(mass)
    if strategy == lt.ORACLE and storm in ("cheat-duplicate", "affine-attack"):
        return 1.0
    if strategy == lt.ORACLE and storm == "classical":
        per_copy = 1.0 / fiber_counts(key)[ys]
    elif strategy == lt.CIRCUIT and storm == "cheat-duplicate":
        per_copy = np.array([np.prod([p for p, _ in dense_span_test(
            key, params, fresh_psi_state(key, BitVector(int(y), key.n)), strategy)[0]])
            for y in ys])
    else:
        raise KeyError((storm, strategy))
    return float(np.sum(mass[ys] * per_copy ** copies))


def minentropy_serial_rates(key: HashKey, params: lt.LightningParams, producer: str) -> np.ndarray:
    """Closed-form per-trial probability that the min-entropy probe accepts a built-in
    producer's bolt and reads digest y, for each y (the oracle verifier); their sum is its
    acceptance.  constant emits psi_f(0), which passes surely and reads f(0).  classical emits
    |x>^(k+1) for a uniform x, each register passing with 1 / |F(f(x))| and reading f(x), so
    y carries |F_y| / 2^m * |F_y|^(-(k+1)) and the acceptance is E_x |F(f(x))|^(-(k+1))."""
    rates = np.zeros(1 << key.n)
    if producer == "constant":
        rates[eval_digest(key, BitVector.zero(key.m)).bits] = 1.0
    elif producer == "classical":
        counts = fiber_counts(key).astype(float)
        ys = np.flatnonzero(counts)
        rates[ys] = serial_masses(key)[ys] * counts[ys] ** -(params.k + 1)
    else:
        raise KeyError(producer)
    return rates


def binomial_band(trials: int, p: float) -> Tuple[int, int]:
    """Two-sided band of Binomial(trials, p): each tail past it holds at most BAND_TAIL / 2."""
    return (int(stats.binom.ppf(BAND_TAIL / 2, trials, p)),
            int(stats.binom.isf(BAND_TAIL / 2, trials, p)))


Copies = Tuple[StateVector, StateVector]
DenseAdversary = Callable[[StateVector, np.random.Generator], Copies]


def measure_and_copy(state: StateVector, rng: np.random.Generator) -> Copies:
    """Measure the note and output the observed basis state twice."""
    copy = basis_state(state.num_qubits, qsim.draw(state_cdf(state), rng))
    return copy, copy


def fixed_guess(state: StateVector, rng: np.random.Generator) -> Copies:
    """Ignore the note; output |0...0> twice (0 is in every subspace)."""
    z = basis_state(state.num_qubits, 0)
    return z, z


def honest_forwarding(state: StateVector, rng: np.random.Generator) -> Copies:
    """Return the untouched note plus |0...0> as the second output."""
    return state, basis_state(state.num_qubits, 0)


def subspace_state(basis: BitMatrix, n: int) -> StateVector:
    """The dense note |S>, uniform over the row span of ``basis``."""
    return uniform_over(sorted(subspace_elements(basis)), n)


def note_state(note: money.MoneyNote) -> StateVector:
    """A note's dense state, uniform over its support."""
    return uniform_over(note.support, note.num_qubits)


DENSE_ADVERSARIES = {  # the built-in counterfeiters on note states, by the same names
    "measure-copy": measure_and_copy,
    "fixed-guess": fixed_guess,
    "honest-forward": honest_forwarding,
}


def subspace_family_states(n: int) -> Tuple[List[StateVector], List[BitMatrix]]:
    """Uniform superpositions over every n/2-dimensional subspace of F_2^n, one StateVector
    each, in the order of their sorted bases."""
    qsim.check_num_qubits(n)
    subs = sorted(all_subspaces(n, n // 2), key=lambda s: s.rows)
    return [uniform_over(subspace_elements(s), n) for s in subs], subs


def counterfeit_experiment(
    n: int,
    adversary: DenseAdversary,
    trials: int,
    rng: np.random.Generator,
    t0: Optional[BitMatrix] = None,
    t1: Optional[BitMatrix] = None,
) -> dict:
    """The counterfeiting game with a new note state every trial, nothing kept across trials.

    Per trial a fresh subspace is drawn (uniform, or between t1-perp and t0
    when those hybrid walls are supplied), a dense adversary gets the note state
    only, and success means both returned states pass the
    projective verification onto the honest note.  Every draw comes from ``rng``,
    one trial after another: the note's subspace and serial, the adversary's
    draws, then one uniform per test that is reached.
    """
    if n % 2 != 0:
        raise PreconditionError("need an even number of qubits")
    successes = 0
    f2s = []
    for _ in range(trials):
        if t0 is not None and t1 is not None:
            s = random_subspace_between(dual_space(t1), t0, n // 2, rng)
            note = money.note_for_subspace(s, n, rng)
        else:
            note = money.money_gen(n, rng)
        state = note_state(note)
        out0, out1 = adversary(state, rng)
        p0 = fidelity(state, out0)  # projection onto the 1-D honest span
        p1 = fidelity(state, out1)
        f2 = p0 * p1
        f2s.append(f2)
        if rng.random() < p0 and rng.random() < p1:
            successes += 1
    arr = np.array(f2s) if f2s else np.zeros(1)
    return {
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials if trials else 0.0,
        "wilson_95": list(money.wilson_interval(successes, trials)),
        "mean_f2": float(arr.mean()),
        "per_trial_f2_sd": float(arr.std(ddof=1)) if len(f2s) > 1 else 0.0,
    }


def orthogonal_to(rows: Sequence[int], n: int) -> np.ndarray:
    """The 2^n membership table of {x : x . c = 0 for each listed row c}."""
    x = np.arange(1 << n, dtype=np.uint32)  # n <= 20
    table = np.ones(1 << n, dtype=bool)
    for row in rows:
        table &= (np.bitwise_count(x & np.uint32(row)) & 1) == 0
    return table


def two_tests(
    state: StateVector, subspace: BitMatrix, passes: Callable[[float], bool] = lambda p: True,
) -> Tuple[float, Optional[StateVector]]:
    """Money's two tests on the whole state, S-membership (orthogonal to S-perp), the
    Hadamard on every qubit, then S-perp-membership (orthogonal to S), each test
    passing when ``passes`` says so: (probability that both pass, the state after
    both, turned back by a second Hadamard), or (0, None) after a reject or a test
    that keeps no mass."""
    def mask(st, keep):
        masked = np.where(keep, st.amps, 0.0)
        p = float(np.linalg.norm(masked) ** 2)
        if p <= 1e-300:
            return 0.0, None
        return min(p, 1.0), StateVector(st.num_qubits, masked / np.sqrt(p))

    n = state.num_qubits
    p0, mid = mask(state, orthogonal_to(dual_space(subspace).rows, n))
    if mid is None or not passes(p0):
        return 0.0, None
    p1, out = mask(hadamard_all(mid), orthogonal_to(subspace.rows, n))
    if out is None or not passes(p1):
        return 0.0, None
    return p0 * p1, hadamard_all(out)


# -- lightning -------------------------------------------------------------------


def fresh_psi_state(key: HashKey, y) -> StateVector:
    """psi_y built anew on every call, so each trial analyses its own register."""
    idx = preimage_indices(key, y)
    if idx.size == 0:
        raise PreconditionError(f"digest {y.to_hex()} has no preimages")
    return uniform_over(idx, key.m)


def dense_registers(monkeypatch):
    """Patch lightning to build every register a built-in storm or producer makes as a dense
    state, anew on each call, and to draw the game's points from the dense psi_y's CDF: the
    per-trial reference for its descriptions."""
    monkeypatch.setattr(lt, "Fiber", fresh_psi_state)
    monkeypatch.setattr(lt, "Point", lambda key, x: basis_state(key.m, x.bits))
    monkeypatch.setattr(lt, "_psi_points", lambda key, y: partial(
        dense_draw, state_cdf(fresh_psi_state(key, y))))


def dense_draw(cdf: tuple, u: float) -> int:
    """The point a uniform u draws from a whole ``state_cdf``, as ``qsim.draw`` draws."""
    support, cum = cdf
    return int(support[np.searchsorted(cum, u, "right")])


def psi_combination(key: HashKey, psi_amps: np.ndarray) -> StateVector:
    """sum_y psi_amps[y] psi_y, the register whose amplitude along each psi_y is given."""
    tab = digest_table(key)
    return StateVector(key.m, psi_amps[tab] / np.sqrt(fiber_counts(key)[tab]))


def fiber_order(key: HashKey) -> Tuple[np.ndarray, np.ndarray]:
    """(order, starts): every input sorted by digest, stably, and where each nonempty fiber
    starts in that order, the permutation the oracle analysis once kept per key."""
    sizes, _ = lt.span_states(key)
    return np.argsort(digest_table(key), kind="stable"), np.concatenate(([0], np.cumsum(sizes)[:-1]))


def gathered_fiber_sums(key: HashKey, rows: np.ndarray) -> np.ndarray:
    """Each nonempty fiber's rows summed, as the oracle analysis once summed them: the whole
    register gathered by ``fiber_order`` and cut at each fiber's start by one reduceat."""
    order, starts = fiber_order(key)
    return np.add.reduceat(rows[order], starts)


def span_projection(
    key: HashKey, state: StateVector, start: int = 0
) -> Tuple[float, Optional[StateVector]]:
    """Exact probability and whole post-state of the ideal span projector on the m
    qubits from ``start`` on, the identity on the rest: each amplitude becomes the
    mean over its digest fiber."""
    order, starts = fiber_order(key)
    sizes, digests = lt.span_states(key)
    fiber = np.searchsorted(digests, digest_table(key))  # each input's place among the fibers
    blocks = state.amps.reshape(-1, 1 << key.m, 1 << start)[:, order]
    sums = np.add.reduceat(blocks, starts, axis=1)
    prob = float(np.sum(np.abs(sums) ** 2 / sizes[:, None]))
    if prob <= 1e-300:
        return 0.0, None
    post = (sums / sizes[:, None])[:, fiber].reshape(-1) / np.sqrt(prob)
    return prob, StateVector(state.num_qubits, post)


def circuit_reference(
    key: HashKey, u: int, state: StateVector
) -> Tuple[float, float, float, Optional[StateVector]]:
    """The circuit run backwards once per r: (accept, rank_ok, zero, post-state or None).

    The rank-flagged branches of the extracted register go to row r of
    ``joint`` when their transcript solves to r; each row is unextracted,
    multiplied by the phase signs of phi_r and Walsh-Hadamard transformed on
    every qubit, and its all-zeros amplitude is beta_r.  The post-state is
    sum_r beta_r phi_r, normalised, on all 2^m amplitudes.
    """
    plan = get_plan(key, u)
    n, m = key.n, key.m
    tau = np.arange(1 << m) & ((1 << plan.transcript_qubits) - 1)
    flags, rsol = plan.flag_ok[tau], solved_transcripts(plan)[tau]
    psi = plan.extract(state.amps.astype(np.complex128))
    p_rank = float(np.linalg.norm(psi[flags]) ** 2)
    if p_rank <= 1e-300:
        return 0.0, 0.0, 0.0, None
    joint = np.zeros((1 << n, 1 << m), dtype=np.complex128)
    joint[rsol, np.arange(1 << m)] = np.where(flags, psi, 0.0) / np.sqrt(p_rank)
    tab = digest_table(key)
    for r in range(1 << n):
        signs = 1.0 - 2.0 * (np.bitwise_count(tab & np.uint32(r)) & 1)
        joint[r] = allocating_wht(plan.unextract(joint[r]) * signs, *range(m))
    beta = joint[:, 0]
    p_zero = float(np.linalg.norm(beta) ** 2)
    if p_zero <= 1e-300:
        return 0.0, p_rank, 0.0, None
    post = sum(b * phi_amplitudes(key, r) for r, b in enumerate(beta))
    return p_rank * p_zero, p_rank, p_zero, StateVector(m, post / np.linalg.norm(post))


def solved_transcripts(plan) -> np.ndarray:
    """Each rank-n transcript's solved r, read off the pivot rows of its rows (ell_t, c_t) with
    no consistency check, so an inconsistent transcript gets a meaningless r; 0 elsewhere."""
    solved = np.zeros(plan.flag_ok.size, dtype=np.int64)
    for tau in np.flatnonzero(plan.flag_ok):
        cs, ells = transcript_fields(plan, int(tau))
        work, pivots = eliminate([e | c << plan.n for c, e in zip(cs, ells)], plan.n)
        solved[tau] = sum(1 << c for row, c in zip(work, pivots) if row >> plan.n)
    return solved


def phase_images(key: HashKey, u: int) -> np.ndarray:
    """Row r is Pi_r U phi_r: the extracted phi_r on the flagged indices whose transcript
    solves to r, zero elsewhere.  The all-zeros amplitude of the circuit's branch r on an
    extracted register psi is <Pi_r U phi_r|psi>."""
    plan = get_plan(key, u)
    tau = np.arange(1 << key.m) & ((1 << plan.transcript_qubits) - 1)
    flags, rsol = plan.flag_ok[tau], solved_transcripts(plan)[tau]
    return np.array([np.where(flags & (rsol == r), plan.extract(phi_amplitudes(key, r)), 0.0)
                     for r in range(1 << key.n)])


def images_analysis(key: HashKey, u: int, images: np.ndarray, state: StateVector) -> tuple:
    """(rank_ok, zero, psi_amps or None) of the circuit by inner products with
    ``phase_images(key, u)``: beta = images psi / sqrt(rank_ok) is the branches' all-zeros
    amplitudes, and sum_r beta_r phi_r is the Walsh-Hadamard transform of beta, times
    sqrt(|fiber|) 2^((n-m)/2), along psi_y.  The register is extracted in its own dtype, and
    the rank flag is read through a mask in index order, which tiles the plan's ``flag_ok``."""
    plan = get_plan(key, u)
    psi = plan.extract(state.amps.copy())
    p_rank = qsim.born_mass(psi[np.tile(plan.flag_ok, psi.size // plan.flag_ok.size)])
    if not p_rank:
        return 0.0, 0.0, None
    beta = images @ psi / np.sqrt(p_rank)
    p_zero = qsim.born_mass(beta)
    if not p_zero:
        return p_rank, 0.0, None
    along = allocating_wht(beta, *range(key.n))
    along *= np.sqrt(fiber_counts(key) * 2.0 ** (key.n - key.m))
    return p_rank, p_zero, along / np.linalg.norm(along)


def dense_span_test(
    key: HashKey, params: lt.LightningParams, register: StateVector, strategy: str, start: int = 0
) -> Tuple[List[tuple], Optional[StateVector]]:
    """A strategy's stages (clipped at 1) on the block from ``start`` on, and the
    whole register after they all pass."""
    if not 0 <= start <= register.num_qubits - key.m:
        raise PreconditionError("register does not match the key's input length")
    if strategy == lt.ORACLE:
        prob, post = span_projection(key, register, start)
        stages = [(prob, lt.SPAN_REJECT)]
    elif strategy == lt.CIRCUIT:
        if register.num_qubits != key.m:
            raise PreconditionError("the circuit strategy verifies single m-qubit registers only")
        a = circuit_span_analysis(key, params.u, register)  # the reported probabilities
        stages = [(a.rank_ok_probability, lt.RANK_DEFICIENT), (a.zero_probability, lt.SPAN_REJECT)]
        post = circuit_reference(key, params.u, register)[3]
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}")
    return [(min(p, 1.0), kind) for p, kind in stages], post


@dataclass(frozen=True)
class DenseVerifyResult:
    outcome: str
    serial: Optional[BitVector] = None
    bolt: Optional[lt.Bolt] = None  # the registers as verification collapsed them

    @property
    def accepted(self) -> bool:
        return self.outcome == lt.ACCEPTED


def dense_full_verify(
    key: HashKey, params: lt.LightningParams, bolt: lt.Bolt, rng: np.random.Generator,
    strategy: str = lt.ORACLE,
) -> DenseVerifyResult:
    """Verification on whole states, block by block: each block is tested, its serial
    drawn from the whole post-state and that state collapsed, and a joint bolt's next
    block is tested on the state the block above it left."""
    joint = bolt.mode == lt.MODE_JOINT
    if bolt.k != params.k:
        raise PreconditionError(f"a bolt with k={bolt.k} does not fit the scheme's k={params.k}")
    if len(bolt.registers) != (1 if joint else bolt.k + 1):
        raise PreconditionError(f"a {bolt.mode} bolt with k={bolt.k} holds the wrong registers")
    if bolt.serial.n != key.n or any(
            r.num_qubits != key.m * (bolt.k + 1 if joint else 1) for r in bolt.registers):
        raise PreconditionError("the serial or a register does not fit the key")
    blocks = ([(0, (bolt.k - j) * key.m) for j in range(bolt.k + 1)] if joint
              else [(j, 0) for j in range(len(bolt.registers))])
    regs, serials = list(bolt.registers), []
    for i, start in blocks:
        stages, post = dense_span_test(key, params, regs[i], strategy, start)
        for prob, kind in stages:
            if rng.random() >= prob:
                return DenseVerifyResult(kind)
        idx = np.arange(1 << post.num_qubits, dtype=np.int64)
        values = digest_table(key)[(idx >> start) & ((1 << key.m) - 1)]
        y, _, regs[i] = sample_function(post, values, rng)
        serials.append(BitVector(y, key.n))
    if len({s.bits for s in serials}) != 1:
        return DenseVerifyResult(lt.SERIAL_MISMATCH)
    post = replace(bolt, serial=serials[0], registers=tuple(regs))
    return DenseVerifyResult(lt.ACCEPTED, serials[0], post)


def measured_variant_run(
    key: HashKey, u: int, state: StateVector, rng: np.random.Generator
) -> Tuple[bool, Optional[int], Optional[StateVector]]:
    """Literal-measurement reading of the extraction: sample the transcript, then
    the all-zeros test of the branch it solves to.

    Measuring (c_t, ell_t) collapses the register, so honest inputs are both
    perturbed and mostly rejected.  Returns (accepted, solved r or None when the
    transcript is rank-deficient, phi_r on acceptance).
    """
    plan = get_plan(key, u)
    psi = StateVector(key.m, plan.extract(state.amps.astype(np.complex128)))
    tvals = np.arange(1 << key.m, dtype=np.int64) & ((1 << plan.transcript_qubits) - 1)
    tau, _, collapsed = sample_function(psi, tvals, rng)
    if not plan.flag_ok[tau]:
        return False, None, None
    r = int(solved_transcripts(plan)[tau])
    if rng.random() >= float(np.abs(phase_images(key, u)[r] @ collapsed.amps) ** 2):
        return False, r, None
    return True, r, phi_state(key, r)


def expanded_targets(plan) -> tuple:
    """Each round's relabeling as an index array: ``plan.target(t)`` for the rounds
    that relabel, the identity for the rest."""
    idx = np.arange(1 << plan.m, dtype=np.int64)
    return tuple(plan.target(t) if t <= plan.rounds else idx for t in range(1, plan.u + 1))


def transcript_fields(plan, tau: int) -> Tuple[list, list]:
    """Transcript tau's c bits and ell rows, round by round."""
    n = plan.n
    cs = [(tau >> (t * (n + 1))) & 1 for t in range(plan.u)]
    ells = [(tau >> (t * (n + 1) + 1)) & ((1 << n) - 1) for t in range(plan.u)]
    return cs, ells


def substitution_plan(key: HashKey, u: int) -> Tuple[List[set], tuple]:
    """The extraction plan's rounds by polynomial substitution: (round t's live
    prefixes at t - 1, round t's relabeling at t - 1).

    On one transcript prefix, round t's block carries n quadratic forms in its
    v qubits, as upper-triangular v x v matrices.  The leading qubit's row gives
    the round's linear forms ell = Q x' + const in the qubits x' above it; rank
    n keeps the prefix alive, and substituting x' = particular(ell) + kernel a
    into the rest of the forms gives each child prefix's forms in a, x''s free
    coordinates.  Round t then moves x' to (ell, a) on each live prefix.
    """
    n, m = key.n, key.m
    nodes: List[dict] = [dict() for _ in range(u + 1)]  # prefix -> (qrows, qconst, free) or None

    def build(t: int, prefix: int, polys: np.ndarray):
        w = m - (t - 1) * (n + 1) - 1
        qrows = [sum(int(polys[i, 0, k + 1]) << k for k in range(w)) for i in range(n)]
        qconst = sum(int(polys[i, 0, 0]) << i for i in range(n))
        # bits w+i record the row operations: above bit w, reduced row k holds
        # row k of the matrix T that brings the linear forms to RREF
        reduced, pivcols = eliminate([qrows[i] | (1 << (w + i)) for i in range(n)], w)
        if len(pivcols) < n:
            nodes[t][prefix] = None
            return
        free = [c for c in range(w) if c not in pivcols]
        nodes[t][prefix] = (qrows, qconst, free)
        if t == u:
            return
        kernel = nullspace_from_rref(reduced, pivcols, w)
        p_polys = polys[:, 1:, 1:].astype(np.int64)
        p_sym = (p_polys + p_polys.transpose(0, 2, 1)) % 2
        tmat = np.array([[(vec >> b) & 1 for vec in kernel] for b in range(w)], dtype=np.int64)
        for ell in range(1 << n):
            # particular solution of Q x' = ell + const with free coordinates 0
            t0 = np.zeros(w, dtype=np.int64)
            for row, col in zip(reduced, pivcols):
                t0[col] = ((row >> w) & (ell ^ qconst)).bit_count() & 1
            child = np.zeros((n, len(free), len(free)), dtype=np.uint8)
            for i in range(n):
                raw = (tmat.T @ p_polys[i] @ tmat) % 2
                upper = np.triu((raw + raw.T) % 2, 1)
                lin = (tmat.T @ ((p_sym[i] @ t0) % 2)) % 2
                np.fill_diagonal(upper, (np.diag(raw) + lin) % 2)
                child[i] = upper
            build(t + 1, prefix | (ell << (n * (t - 1))), child)

    build(1, 0, np.stack([to_array(a) for a in key.mats]))
    idx = np.arange(1 << m, dtype=np.int64)
    targets = []
    for t in range(1, u + 1):
        o = (t - 1) * (n + 1)
        w = m - o - 1
        prefixes = np.zeros_like(idx)
        for s in range(1, t):
            prefixes |= ((idx >> ((s - 1) * (n + 1) + 1)) & ((1 << n) - 1)) << (n * (s - 1))
        target = idx.copy()
        for prefix, node in nodes[t].items():
            if node is None:
                continue
            qrows, qconst, free = node
            sub = idx[prefixes == prefix]
            xp = (sub >> (o + 1)) & ((1 << w) - 1)
            ell = np.zeros_like(sub)
            for i in range(n):
                parity = np.bitwise_count(xp & qrows[i]) & 1
                ell |= (parity ^ ((qconst >> i) & 1)) << i
            a = np.zeros_like(sub)
            for j, col in enumerate(free):
                a |= ((xp >> col) & 1) << j
            target[sub] = (sub & ((1 << (o + 1)) - 1)) | (ell << (o + 1)) | (a << (o + 1 + n))
        targets.append(target)
    live = [{p for p, node in nodes[t].items() if node is not None} for t in range(1, u + 1)]
    return live, tuple(targets)


def dense_joint_bolt(key: HashKey, params: lt.LightningParams, rng: np.random.Generator) -> lt.Bolt:
    """Joint generation's four steps on a dense (k+1)m-qubit array: superpose every
    difference tuple (d_1..d_k) beside its colliding space, measure the hash of the
    x register, then relabel (x, d_1..d_k) to (x, x-d_1, ..., x-d_k)."""
    m, k = key.m, params.k
    total_qubits = (k + 1) * m
    amps = np.zeros(1 << total_qubits)
    base = 1.0 / np.sqrt(1 << (k * m))
    for combo, space in lt._difference_spaces(key, k):
        if space is None:
            continue  # unsolvable tuple: dropped, renormalized below
        elems = [e.bits for e in enumerate_affine(space)]
        amp = base / np.sqrt(len(elems))
        dpack = 0
        for j, d in enumerate(combo):
            dpack |= d << ((k - 1 - j) * m)
        for x in elems:
            amps[(x << (k * m)) | dpack] += amp
    state = StateVector(total_qubits, amps / np.linalg.norm(amps))
    xvals = digest_table(key)[np.arange(amps.size, dtype=np.int64) >> (k * m)]
    y, _, state = sample_function(state, xvals, rng)

    def remap(indices: np.ndarray) -> np.ndarray:
        x = indices >> (k * m)
        out = x << (k * m)
        for j in range(k):
            shift = (k - 1 - j) * m
            d = (indices >> shift) & ((1 << m) - 1)
            out |= (x ^ d) << shift
        return out

    return lt.Bolt(BitVector(y, key.n), lt.MODE_JOINT, (apply_bijection(state, remap),), k)


def joint_delta_survey(key: HashKey, params: lt.LightningParams) -> dict:
    """Exhaustive classification of every difference tuple of joint generation.

    Returns counts of tuples whose colliding space has the generic dimension
    m - nk, a histogram of dimensions, and the unsolvable count.  The mass of
    non-generic tuples is the deviation budget for the idealized product form.
    """
    m, k, n = key.m, params.k, key.n
    generic = m - n * k
    dims: dict = {}
    unsolvable = 0
    for _, space in lt._difference_spaces(key, k):
        if space is None:
            unsolvable += 1
        else:
            dims[space.dim] = dims.get(space.dim, 0) + 1
    total = 1 << (m * k)
    return {
        "total_tuples": total,
        "generic_dim": generic,
        "dim_histogram": {str(d): c for d, c in sorted(dims.items())},
        "unsolvable": unsolvable,
        "nongeneric_mass": (total - dims.get(generic, 0)) / total,
    }
