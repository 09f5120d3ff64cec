"""Single-party reduction of process matrices to density operators.

For one laboratory the framework collapses to ordinary quantum theory:
every valid W factors as W_1 (x) I with W_1 a density matrix. One certifier,
``_finish_report``, decides this by ``process.validate``'s rule: for one
party L_V W = W_1 (x) I with W_1 = Tr_out W / d_out, so the distance to the
valid set is hypot(||W - W_1 (x) I||, (Tr W_1 - 1) sqrt(d_out / d_in)),
with W_1 and ||W - W_1 (x) I|| from ``process.single_party_split``.
``projection_oracle`` applies it to any single party. The constructive
reductions add constraint sums, which only label a rejection: they force
every coefficient with output-side Pauli content to zero (single-qubit case
and its n-qubit parity-subset generalization). Each sum equals
2^n (w_identity + w_target) for the Pauli coefficient w_target it pins, so
``reduce_single_qubit`` and ``reduce_multiqubit`` read every sum off one
Pauli transform of W, a real Walsh-Hadamard transform between two gathers
(``_pauli_coefficients``); ``appendix_constraint_sum`` keeps the
instrument-level form, sums of <v|W|v> over the product eigenvectors of the
bases one instrument measures and prepares, as the one reference. At n = 1 it
gives the paper's single-qubit rules: m = s is xi_support [0], m = 0 is [].
``born_equivalence`` closes the loop by checking the trace rule against the
standard Kraus-form Born rule.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .channels import KrausFamily, cj_of_kraus
from .linalg import (
    DEFAULT_TOL,
    EIGENPROJECTOR_STACK,
    DimensionMismatchError,
    NonHermitianError,
    hermiticity_check,
    hermiticity_gap,
    kron_all,  # not called here; perfbench/selftest.py checks that its tracer rebinds it
    pauli_word,
    product_expectations,
)
from .process import ProcessMatrix, probability, single_party_psd, single_party_split

MAX_QUBITS = 4
SUM_PROBE_NORM = math.sqrt(2)  # ||(I + sigma) / 2^n||_F, every constraint sum's probe
_LETTER_DIGITS = {"1": 0, "x": 1, "y": 2, "z": 3}


@dataclass(frozen=True)
class ConstraintRecord:
    """One evaluated normalization constraint and the coefficient it pins."""

    description: str
    lhs_value: float
    expected: float
    coefficient_label: str
    coefficient_value: float


class PauliCoefficients(Mapping):
    """Read-only mapping from Pauli-word tuples such as ("1", "z") to real
    coefficients, in itertools.product("1xyz", repeat=length) order. Holds one
    tuple of floats and generates the words on each iteration;
    ``dict(coefficients.items())`` gives a mutable copy."""

    __slots__ = ("_length", "_values")

    def __init__(self, length: int, values):
        self._length, self._values = length, tuple(values)

    def __getitem__(self, word) -> float:
        if not isinstance(word, tuple) or len(word) != self._length:
            raise KeyError(word)
        index = 0
        for letter in word:
            digit = _LETTER_DIGITS.get(letter)
            if digit is None:
                raise KeyError(word)
            index = 4 * index + digit
        return self._values[index]

    def __iter__(self):
        return itertools.product("1xyz", repeat=self._length)

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> tuple:
        return self._values

    def items(self):
        return zip(self, self._values)


@dataclass(frozen=True)
class PauliDecomposition:
    """Real coefficients of W over Pauli words sigma (x) ... (x) sigma."""

    n: int
    coefficients: PauliCoefficients


@dataclass(frozen=True)
class ReductionReport:
    """``residual`` is W's Frobenius distance to the valid set."""

    certified: bool
    w1: np.ndarray
    residual: float
    violations: tuple
    w1_psd: bool
    w1_trace: float


def _qubit_count(w: ProcessMatrix) -> int:
    need = "expected one party of n qubits in and out"
    if len(w.spec.parties) != 1:
        raise DimensionMismatchError(f"{need}, got {len(w.spec.parties)} parties")
    dims = w.spec.parties[0]
    if dims.d_in != dims.d_out:
        raise DimensionMismatchError(f"{need}, got d_in = {dims.d_in}, d_out = {dims.d_out}")
    n = dims.d_in.bit_length() - 1
    if 2**n != dims.d_in:
        raise DimensionMismatchError(f"{need}, got dimension {dims.d_in}")
    return n


def pauli_coefficient(matrix: np.ndarray, word) -> float:
    """Single coefficient Tr(W sigma-word) / 4^n (n = half the word length)."""
    n2 = len(word)
    if np.shape(matrix) != (2**n2, 2**n2):
        raise DimensionMismatchError(f"a Pauli word of length {n2} needs a {2**n2}x{2**n2} "
                                     f"matrix, got shape {np.shape(matrix)}")
    value = complex(np.trace(matrix @ pauli_word(word))) / (2**n2)
    if abs(value.imag) > DEFAULT_TOL / math.sqrt(2**n2):  # probe norm 2^n / 4^n
        raise NonHermitianError(f"non-real Pauli coefficient {value} for word {word}")
    return value.real


def _pauli_plan(k: int) -> tuple:
    """``_pauli_coefficients``'s gather and output indices, phases and Hadamard
    factors H_floor(k/2), H_ceil(k/2) on k qubits, built a qubit at a time."""
    r = np.arange(2**k)
    gather = np.bitwise_xor.outer(r * (2**k + 1), r).ravel()  # r 2^k + (r ^ a)
    x_bits, z_bits = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])  # of 1, x, y, z
    out, phase = np.zeros(1, dtype=np.intp), np.full(1, 0.5**k, dtype=complex)
    for q in reversed(range(k)):  # qubit q becomes the leading letter
        out = (((z_bits << 2 * k - 1 - q) + (x_bits << k - 1 - q))[:, None] + out).ravel()
        phase = (np.where(x_bits & z_bits, 1j, 1)[:, None] * phase).ravel()
    hadamards = (reduce(np.kron, [[[1, 1], [1, -1]]] * m, np.ones((1, 1)))
                 for m in (k // 2, k - k // 2))
    return (gather, out, phase, *hadamards)


# the plans of every n <= MAX_QUBITS, 2.2 MB together; a larger one is built per call
_cached_pauli_plan = lru_cache(maxsize=MAX_QUBITS + 1)(_pauli_plan)


def _pauli_coefficients(w: ProcessMatrix) -> np.ndarray:
    """Tr(W sigma-word) / 4^n for every Pauli word of a single-party n-qubit-in/out
    W, a complex (4,) * 2n tensor, inputs first. The word with x-bits a and z-bits b
    (y sets both) is i^|a&b| X^a Z^b, so Tr(W sigma) = i^|a&b| sum_r W[r, r^a]
    (-1)^(r.b): one gather G[r, a] = W[r, r^a], a +-1 transform over r on G's float
    view (re and im interleaved) as two real matmuls, then one gather of each word's
    (b, a) in "1xyz" order and its exact phase i^|a&b| / 4^n."""
    n = _qubit_count(w)
    plan = _cached_pauli_plan if n <= MAX_QUBITS else _pauli_plan
    gather, out, phase, h1, h2 = plan(2 * n)
    t = h1 @ w.matrix.ravel()[gather].view(float).reshape(len(h1), -1)
    t = np.matmul(h2, t.reshape(len(h1), len(h2), -1))
    c = t.view(complex).ravel()[out]
    c *= phase
    return c.reshape((4,) * 2 * n)


def pauli_decompose(w: ProcessMatrix) -> PauliDecomposition:
    """Full Pauli decomposition of a single-party n-qubit-in/out W."""
    values = _pauli_coefficients(w)
    n = values.ndim // 2
    if np.max(np.abs(values.imag)) > DEFAULT_TOL / 2**n:
        raise NonHermitianError("decomposition of a non-Hermitian matrix")
    values = values.real.ravel()  # drops the complex tensor before the floats are made
    return PauliDecomposition(n, PauliCoefficients(2 * n, values.tolist()))


def _parity_sum(w: ProcessMatrix, bases, xi_support, eta_support) -> float:
    """Sum of <v|W|v> over products v of eigenvectors of the per-qubit bases
    (inputs first) whose input bits s and output bits m have equal parity
    over xi_support and eta_support, averaged over the 2^(n-1) admitted m.
    W meets only each qubit's two basis eigenprojectors: a (2,) * 2n tensor."""
    n = len(bases) // 2
    stacks = [EIGENPROJECTOR_STACK[2 * k:2 * k + 2] for k in map("xyz".index, bases)]
    t = product_expectations(w.matrix, stacks).real
    bits = np.indices(t.shape)
    parity = bits[list(xi_support) + [n + j for j in eta_support]].sum(axis=0) % 2
    return float(t[parity == 0].sum()) / 2 ** (n - 1)


def _finish_report(w: ProcessMatrix, violations, tol: float) -> ReductionReport:
    """Certify W = W_1 (x) I, W_1 = Tr_out W / d_out, iff W is Hermitian and PSD
    within tol and at most tol from the valid set. Appends trace, hermiticity and
    (for a W that close) eigenvalue rows to ``violations``; rows never decide."""
    dims = w.spec.parties[0]
    w1, off = single_party_split(w)
    trace = float(np.trace(w.matrix).real)
    root_d = math.sqrt(dims.total)  # ||I||_F, the trace's probe norm
    residual = math.hypot(off, (trace - dims.d_out) / root_d)
    if abs(trace - dims.d_out) > tol * root_d:
        violations.append(ConstraintRecord(f"Tr(W) = {dims.d_out}", trace, float(dims.d_out),
                                           "trace", trace / dims.d_out - 1.0))
    gap = hermiticity_gap(w.matrix)
    w1_lowest, psd = single_party_psd(w1, off, tol)
    if gap > tol:
        violations.append(ConstraintRecord("W = W^dagger", gap, 0.0, "hermiticity", gap))
    elif residual <= tol and not psd:  # W's own spectrum only when the verdict rests on it
        lowest = hermiticity_check(w.matrix, tol)[1]
        psd = lowest >= -tol
        if not psd:
            violations.append(ConstraintRecord("W >= 0", lowest, 0.0, "min_eigenvalue", lowest))
    return ReductionReport(certified=residual <= tol and gap <= tol and psd, w1=w1,
                           residual=residual, violations=tuple(violations),
                           w1_psd=w1_lowest >= -tol, w1_trace=trace / dims.d_out)


def reduce_single_qubit(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ReductionReport:
    """Constructive single-qubit reduction via the 18 constraint sums.

    Each is read off one Pauli transform: 2 (w_11 + w_{alpha,beta}) under the
    rule m=s, 2 (w_11 + w_{1,beta}) under m=0. Sums off by more than tol sqrt(2)
    are recorded, with the coefficient each pins, in (alpha, beta, rule) order;
    ``_finish_report`` certifies.
    """
    if _qubit_count(w) != 1:
        raise DimensionMismatchError("reduce_single_qubit needs one qubit in/out")
    c, i, violations = _pauli_coefficients(w).real.tolist(), "1xyz".index, []
    for alpha, beta, rule in itertools.product("xyz", "xyz", ("m=s", "m=0")):
        pinned = c[i(alpha) if rule == "m=s" else 0][i(beta)]
        lhs = 2 * (c[0][0] + pinned)
        if abs(lhs - 1.0) > tol * SUM_PROBE_NORM:
            label = f"w_{alpha}{beta}" if rule == "m=s" else f"w_1{beta}"
            violations.append(ConstraintRecord(f"alpha={alpha}, beta={beta}, rule {rule}",
                                               lhs, 1.0, label, pinned))
    return _finish_report(w, violations, tol)


def _parity_record(alphas, betas, xi_support, eta_support, lhs: float,
                   coefficient: float) -> ConstraintRecord:
    """The record of one parity-subset sum, labelled by the coefficient it pins."""
    n = len(alphas)
    xi_word = "".join(alphas[i] if i in xi_support else "1" for i in range(n))
    eta_word = "".join(betas[i] if i in eta_support else "1" for i in range(n))
    return ConstraintRecord(
        description=(
            f"alphas={''.join(alphas)}, betas={''.join(betas)}, "
            f"xi_support={list(xi_support)}, eta_support={list(eta_support)}"
        ),
        lhs_value=lhs,
        expected=1.0,
        coefficient_label=f"w_{xi_word},{eta_word}",
        coefficient_value=coefficient,
    )


def appendix_constraint_sum(
    w: ProcessMatrix, alphas, betas, xi_support, eta_support
) -> ConstraintRecord:
    """n-qubit parity-subset constraint sum.

    Measures each input qubit i in basis alphas[i] (outcome s_i) and
    prepares each output qubit in basis betas[i] (bit m_i), averaging m
    uniformly over the subset S_s where the parity of m over eta_support
    equals the parity of s over xi_support. For any Hermitian W the sum
    equals 2^n (w_identity + w_target), where w_target carries alphas on the
    xi_support input slots, betas on the eta_support output slots and
    identity elsewhere.
    """
    n = _qubit_count(w)
    alphas, betas = tuple(alphas), tuple(betas)
    if len(alphas) != n or len(betas) != n:
        raise DimensionMismatchError(f"need {n} input and output bases")
    if any(p not in ("x", "y", "z") for p in alphas + betas):
        raise ValueError("bases must be x, y or z")
    xi_support = sorted(set(xi_support))
    eta_support = sorted(set(eta_support))
    if not eta_support:
        raise ValueError("eta_support must be nonempty")
    if any(i < 0 or i >= n for i in xi_support + eta_support):
        raise ValueError("support index out of range")
    lhs = _parity_sum(w, alphas + betas, xi_support, eta_support)
    coefficient = lhs / 2**n - float(np.trace(w.matrix).real) / 4**n
    return _parity_record(alphas, betas, xi_support, eta_support, lhs, coefficient)


def _word_bases(word):
    """Per-qubit bases and support of a Pauli word; identity slots take x."""
    support = [i for i, p in enumerate(word) if p != "1"]
    return tuple("x" if p == "1" else p for p in word), support


def parity_sum_violations(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> list:
    """The records ``reduce_multiqubit`` lists before the certifier's rows.

    Checks the sum of every output-touching Pauli word, at every n up to
    MAX_QUBITS. Each sum is 2^n (w_identity + w_target), read off the Pauli
    coefficients arranged as (input word, output word); a record is built
    only for a sum off by more than tol sqrt(2), in row-major word order.
    """
    n = _qubit_count(w)
    if n > MAX_QUBITS:
        raise DimensionMismatchError(f"at most {MAX_QUBITS} qubits supported")
    c = _pauli_coefficients(w).real.reshape(4**n, 4**n)
    lhs = 2**n * (c[0, 0] + c)
    violated = np.abs(lhs - 1.0) > tol * SUM_PROBE_NORM
    violated[:, 0] = False  # an output-identity word pins no coefficient
    rows, cols = np.nonzero(violated)
    # the n-letter half-words, built only when some sum is off
    words = tuple(itertools.product("1xyz", repeat=n)) if rows.size else ()
    violations = []
    for i, j in zip(rows, cols):
        alphas, xi_support = _word_bases(words[i])
        betas, eta_support = _word_bases(words[j])
        violations.append(_parity_record(alphas, betas, xi_support, eta_support,
                                         float(lhs[i, j]), float(c[i, j])))
    return violations


def reduce_multiqubit(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ReductionReport:
    """n-qubit constructive reduction: ``projection_oracle``'s report, sum records first."""
    return _finish_report(w, parity_sum_violations(w, tol), tol)


def projection_oracle(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ReductionReport:
    """Dimension-agnostic reduction check by orthogonal projection.

    W_1 (x) I, W_1 = Tr_out(W) / d_out, is the orthogonal projection L_V W
    of W onto the operators X (x) I, which with Tr X = 1 are exactly those
    meeting every normalization constraint; ``_finish_report`` certifies.
    """
    if len(w.spec.parties) != 1:
        raise DimensionMismatchError("reduction operates on single-party W")
    return _finish_report(w, [], tol)


def born_equivalence(w1: np.ndarray, f: KrausFamily, w: ProcessMatrix):
    """(Tr[W M_f], Tr[sum_k E_k W_1 E_k^dagger]); equal when W = W_1 (x) I."""
    lhs = probability(w, [cj_of_kraus(f)])
    rhs = float(np.trace(f.apply(np.asarray(w1, dtype=complex))).real)
    return lhs, rhs
