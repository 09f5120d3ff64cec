"""Process matrices: the trace probability rule and validity checking.

A process matrix W lives on the tensor product of each laboratory's input
and output space (per party: input factor then output factor, parties in
declaration order). Event probabilities are Tr[W (M_1 (x) ... (x) M_n)]
with one CJ operator per party.

Validity = Hermitian and PSD, Tr(W) = product of output dimensions, and the
probability rule normalizes to 1 over every choice of CPTP instruments.
The normalization check uses a finite affine characterization: CPTP CJ
operators form the affine set {M >= 0, Tr_out M = I}, so by linearity it
suffices to check one reference CPTP CJ per party plus a basis of Hermitian
directions that are traceless on the output factor. This finite test set is
an implementation-level derivation from the probability rule, not something
stated per party count in the source framework. ``validate`` evaluates the
set without building it: W is contracted with a product Hermitian basis one
tensor factor at a time (``normalization_values``); the materialised
``normalization_constraints`` is kept as the readable reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import CJOperator, KrausFamily, cj_of_kraus
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DimensionPair,
    hermitian_basis,
    hermiticity_check,
    kron_all,
    partial_trace,
    product_expectations,
    traceless_hermitian_basis,
)


@dataclass(frozen=True)
class PartySpec:
    """Input/output dimensions of each laboratory, in factor order."""

    parties: tuple

    def __post_init__(self):
        parties = tuple(self.parties)
        if not parties:
            raise ValueError("PartySpec needs at least one party")
        if len(parties) > 16:  # the kernel takes four axes per party; numpy allows 64
            raise DimensionMismatchError(f"at most 16 parties supported, got {len(parties)}")
        for p in parties:
            if not isinstance(p, DimensionPair):
                raise TypeError("parties must be DimensionPair instances")
        object.__setattr__(self, "parties", parties)

    @property
    def total_dim(self) -> int:
        return math.prod(p.total for p in self.parties)

    @property
    def d_out_product(self) -> int:
        return math.prod(p.d_out for p in self.parties)

    @property
    def factor_dims(self) -> list:
        """Flat factor dimensions [in_1, out_1, in_2, out_2, ...]."""
        return [d for p in self.parties for d in (p.d_in, p.d_out)]


@dataclass(frozen=True)
class ProcessMatrix:
    spec: PartySpec
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.spec.total_dim
        if m.shape != (d, d):
            raise DimensionMismatchError(
                f"process matrix shape {m.shape} != ({d}, {d})"
            )
        object.__setattr__(self, "matrix", m)


def single_party(d_in: int, d_out: int, matrix: np.ndarray) -> ProcessMatrix:
    return ProcessMatrix(PartySpec((DimensionPair(d_in, d_out),)), matrix)


@dataclass(frozen=True)
class ValidityReport:
    psd_ok: bool
    min_eigenvalue: float
    normalization_ok: bool
    worst_residual: float
    trace_ok: bool
    trace_value: float
    violated_constraints: tuple = ()

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.normalization_ok and self.trace_ok


def probability(w: ProcessMatrix, branch_cjs) -> float:
    """Tr[W (M_1 (x) ... (x) M_n)] for one CJ operator per party.

    The raw real value is returned unclamped; a significant imaginary part
    signals non-Hermitian inputs and raises.
    """
    if len(branch_cjs) != len(w.spec.parties):
        raise DimensionMismatchError(
            f"expected {len(w.spec.parties)} CJ operators, got {len(branch_cjs)}"
        )
    for cj, party in zip(branch_cjs, w.spec.parties):
        if cj.dims != party:
            raise DimensionMismatchError(
                f"CJ dims {cj.dims} do not match party dims {party}"
            )
    stacks = [cj.matrix[np.newaxis] for cj in branch_cjs]  # one factor per party
    tr = complex(product_expectations(w.matrix, stacks).reshape(()))
    if abs(tr.imag) > DEFAULT_TOL:
        raise ValueError(f"probability trace has imaginary part {tr.imag:.3e}")
    return tr.real


def reference_cptp_cj(dims: DimensionPair) -> CJOperator:
    """One fixed CPTP CJ per party: identity channel if square, else
    trace-and-prepare-|0>."""
    if dims.d_in == dims.d_out:
        return cj_of_kraus(KrausFamily(dims, (np.eye(dims.d_in, dtype=complex),)))
    ops = []
    for k in range(dims.d_in):
        op = np.zeros((dims.d_out, dims.d_in), dtype=complex)
        op[0, k] = 1.0
        ops.append(op)
    return cj_of_kraus(KrausFamily(dims, tuple(ops)))


def normalization_constraints(spec: PartySpec) -> list:
    """Finite constraint set equivalent to normalization over all CPTP
    instruments, materialised (the reference form of ``normalization_values``).

    Returns (label, matrix, expected) triples: expected 1 when every party
    takes its reference CPTP CJ, 0 as soon as any party takes a traceless
    direction h_in (x) g_out (g_out traceless, so Tr_out of it vanishes).
    """
    per_party = []
    for i, dims in enumerate(spec.parties):
        directions = (
            np.kron(h, g)
            for h in hermitian_basis(dims.d_in)
            for g in traceless_hermitian_basis(dims.d_out)
        )
        per_party.append([(f"P{i}:ref", reference_cptp_cj(dims).matrix, 1.0)] + [
            (f"P{i}:dir{k}", direction, 0.0) for k, direction in enumerate(directions)
        ])
    return [
        ("|".join(c[0] for c in combo), kron_all(c[1] for c in combo),
         float(all(c[2] for c in combo)))
        for combo in itertools.product(*per_party)
    ]


@lru_cache(maxsize=None)
def _reference_coefficients(dims: DimensionPair) -> np.ndarray:
    """The reference CJ's real coefficients over the orthonormal product
    basis hermitian_basis(d_in) (x) hermitian_basis(d_out); read-only."""
    stacks = [hermitian_basis(dims.d_in), hermitian_basis(dims.d_out)]
    coefficients = product_expectations(reference_cptp_cj(dims).matrix, stacks).real
    coefficients.flags.writeable = False
    return coefficients


@lru_cache(maxsize=None)
def _constraint_norms(spec: PartySpec) -> np.ndarray:
    """||C||_F of every constraint C in ``normalization_values`` order, read-only: per
    party a factor ||reference CJ||_F, or 1 for a direction (orthonormal basis)."""
    norms = np.ones(1)
    for dims in spec.parties:
        party = np.ones(1 + dims.d_in**2 * (dims.d_out**2 - 1))
        party[0] = np.linalg.norm(_reference_coefficients(dims))
        norms = np.outer(norms, party).ravel()
    norms.flags.writeable = False
    return norms


def normalization_values(w: ProcessMatrix):
    """(Tr[W C], expected) for every constraint C of
    ``normalization_constraints``, as flat arrays in the same order.

    W is contracted with hermitian_basis on every input and output factor.
    Since that basis starts with the identity direction, a party's
    traceless-output directions are a slice of its two axes, and its
    reference CJ is one tensordot with ``_reference_coefficients``.
    """
    t = product_expectations(w.matrix, [hermitian_basis(d) for d in w.spec.factor_dims])
    for dims in w.spec.parties:
        ref = np.tensordot(t, _reference_coefficients(dims), axes=([0, 1], [0, 1]))
        directions = np.moveaxis(t[:, 1:], (0, 1), (-2, -1)).reshape(ref.shape + (-1,))
        t = np.concatenate([ref[..., None], directions], axis=-1)
    expected = np.zeros(t.size)
    expected[0] = 1.0
    return t.reshape(-1), expected


def constraint_label(spec: PartySpec, index: int) -> str:
    """Label of constraint ``index`` in ``normalization_constraints(spec)``."""
    shape = [1 + p.d_in**2 * (p.d_out**2 - 1) for p in spec.parties]
    return "|".join(
        f"P{i}:dir{k - 1}" if k else f"P{i}:ref"
        for i, k in enumerate(np.unravel_index(index, shape))
    )


def validate(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check PSD, trace = product of output dimensions, and normalization."""
    violated = []

    gap, mineig = hermiticity_check(w.matrix, tol)
    if gap > tol:
        violated.append(("hermiticity", gap))
    psd_ok = mineig >= -tol

    trace_value = float(np.trace(w.matrix).real)
    trace_ok = abs(trace_value - w.spec.d_out_product) <= tol * math.sqrt(w.spec.total_dim)
    if not trace_ok:
        violated.append(("trace", abs(trace_value - w.spec.d_out_product)))

    values, expected = normalization_values(w)
    residuals = np.abs(values - expected)
    over = residuals > tol * _constraint_norms(w.spec)
    for index in np.flatnonzero(over):
        violated.append((constraint_label(w.spec, index), float(residuals[index])))

    return ValidityReport(
        psd_ok=psd_ok,
        min_eigenvalue=mineig,
        normalization_ok=not over.any(),
        worst_residual=float(residuals.max()),
        trace_ok=trace_ok,
        trace_value=trace_value,
        violated_constraints=tuple(violated),
    )


def trace_dimension_identity(w: ProcessMatrix) -> float:
    """Probability sum over the flatten-and-reprepare Kraus family.

    Uses the instrument with Kraus operators E_{j,k} = |j><k| / sqrt(d_out)
    over all j, k; for any Hermitian W the sum equals Tr(W)/d_out, and it
    equals 1 exactly when Tr(W) = d_out.
    """
    if len(w.spec.parties) != 1:
        raise DimensionMismatchError("trace_dimension_identity needs a single party")
    dims = w.spec.parties[0]
    total = 0.0
    for j in range(dims.d_out):
        for k in range(dims.d_in):
            op = np.zeros((dims.d_out, dims.d_in), dtype=complex)
            op[j, k] = 1 / np.sqrt(dims.d_out)
            cj = cj_of_kraus(KrausFamily(dims, (op,)))
            total += probability(w, [cj])
    return total


def partial_trace_over_outputs(w: ProcessMatrix) -> np.ndarray:
    """Reduce a single-party W onto its input factor."""
    if len(w.spec.parties) != 1:
        raise DimensionMismatchError("single-party operation")
    dims = w.spec.parties[0]
    return partial_trace(w.matrix, [dims.d_in, dims.d_out], keep={0})
