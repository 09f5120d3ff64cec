"""Process matrices: the trace probability rule and validity checking.

A process matrix W lives on the tensor product of each laboratory's input
and output space (per party: input factor then output factor, parties in
declaration order). Event probabilities are Tr[W (M_1 (x) ... (x) M_n)]
with one CJ operator per party.

Validity = Hermitian and PSD, Tr(W) = product of output dimensions, and the
probability rule normalizes to 1 over every choice of CPTP instruments.
CPTP CJ operators form the affine set {M >= 0, Tr_out M = I}, so by
linearity normalization means one reference CPTP CJ per party plus a basis
of Hermitian directions traceless on the output factor (a derivation from
the probability rule, not stated per party count in the source framework).
With the trace, it puts W in an affine set whose linear part is the image of
L_V = 1 - (x)_i (1 - _{O_i} + _{I_i O_i}) + (x)_i _{I_i O_i}, where
_X W = Tr_X W (x) I_X / d_X (Araujo et al., NJP 17, 102001, 2015). In the
orthonormal product basis of ``hermitian_basis`` on every factor, L_V keeps
or drops each element, so ``validate`` reads W's Frobenius distance to the
valid set off one coefficient tensor; the constraint values read off it
(``normalization_values``) only label a rejection. The materialised
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
    distance: float
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
def _off_valid_mask(spec: PartySpec) -> np.ndarray:
    """Where W's product-basis coefficients lie off the image of L_V, read-only:
    L_V keeps the identity and every element in which some party is input-only
    (input direction not the identity, output the identity)."""
    mask = np.ones((), dtype=bool)
    for dims in spec.parties:
        input_only = np.zeros((dims.d_in**2, dims.d_out**2), dtype=bool)
        input_only[1:, 0] = True
        mask = np.logical_and.outer(mask, ~input_only)
    mask[(0,) * mask.ndim] = False
    mask.flags.writeable = False
    return mask


def _constraint_values(spec: PartySpec, t: np.ndarray) -> np.ndarray:
    """Tr[W C] for every constraint C in ``normalization_constraints`` order, from
    W's product-basis coefficients t: with a party's two axes leading, its reference
    CJ is one matmul with ``_reference_coefficients``, its directions the slice [:, 1:]."""
    for dims in spec.parties:
        t = t.reshape(dims.d_in**2, dims.d_out**2, -1)
        ref = _reference_coefficients(dims).reshape(1, -1) @ t.reshape(dims.total**2, -1)
        t = np.concatenate([ref, t[:, 1:].reshape(-1, ref.shape[1])]).T  # next party leads
    return t.reshape(-1)


def normalization_values(w: ProcessMatrix):
    """(Tr[W C], expected) for every constraint C of
    ``normalization_constraints``, as flat arrays in the same order."""
    t = product_expectations(w.matrix, [hermitian_basis(d) for d in w.spec.factor_dims])
    values = _constraint_values(w.spec, t)
    expected = np.zeros(values.size)
    expected[0] = 1.0
    return values, expected


def _constraint_labels(spec: PartySpec, indices) -> list:
    """Labels of the constraints ``indices`` in ``normalization_constraints(spec)``."""
    shape = [1 + p.d_in**2 * (p.d_out**2 - 1) for p in spec.parties]
    factors = np.unravel_index(indices, shape)
    return ["|".join(f"P{i}:dir{k - 1}" if k else f"P{i}:ref" for i, k in enumerate(row))
            for row in zip(*(f.tolist() for f in factors))]


def constraint_label(spec: PartySpec, index: int) -> str:
    """Label of constraint ``index`` in ``normalization_constraints(spec)``."""
    return _constraint_labels(spec, [index])[0]


def validate(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Certify W iff it is Hermitian and PSD within tol and its distance to the
    valid set, sqrt(||W - L_V W||_F^2 + (Tr W - d_out)^2 / D), is at most tol.

    Rows label a rejection: hermiticity or the smallest eigenvalue, the trace,
    the distance, then each constraint whose residual / ||C||_F exceeds tol (a
    quotient, so a tol whose bound tol ||C||_F passes the largest float lists
    no row instead of overflowing)."""
    violated = []

    gap, mineig = hermiticity_check(w.matrix, tol)
    if gap > tol:
        violated.append(("hermiticity", gap))
    elif mineig < -tol:
        violated.append(("min_eigenvalue", mineig))

    trace_value = float(np.trace(w.matrix).real)
    trace_gap = trace_value - w.spec.d_out_product
    trace_ok = abs(trace_gap) <= tol * math.sqrt(w.spec.total_dim)
    if not trace_ok:
        violated.append(("trace", abs(trace_gap)))

    t = product_expectations(w.matrix, [hermitian_basis(d) for d in w.spec.factor_dims])
    distance = math.hypot(float(np.linalg.norm(t[_off_valid_mask(w.spec)])),
                          trace_gap / math.sqrt(w.spec.total_dim))
    if distance > tol:
        violated.append(("distance", distance))

    values = _constraint_values(w.spec, t)
    values[0] -= 1.0  # the reference constraint expects 1, every direction 0
    residuals = np.abs(values)
    # residual / ||C||_F: one axis per party, its reference slice over its reference CJ's norm
    shape = [1 + p.d_in**2 * (p.d_out**2 - 1) for p in w.spec.parties]
    per_probe = residuals.reshape(shape).copy()
    for axis, dims in enumerate(w.spec.parties):
        per_probe[(slice(None),) * axis + (0,)] /= np.linalg.norm(_reference_coefficients(dims))
    over = np.flatnonzero(per_probe > tol)
    violated += zip(_constraint_labels(w.spec, over), residuals[over].tolist())

    return ValidityReport(psd_ok=mineig >= -tol, min_eigenvalue=mineig,
                          normalization_ok=distance <= tol, distance=distance,
                          worst_residual=float(residuals.max()), trace_ok=trace_ok,
                          trace_value=trace_value, violated_constraints=tuple(violated))


def trace_dimension_identity(w: ProcessMatrix) -> float:
    """Probability sum over the instrument with branches E_{j,k} = |j><k| / sqrt(d_out),
    all j, k: one probability of their joint CP map. For any Hermitian W it equals
    Tr(W)/d_out, which is 1 exactly when Tr(W) = d_out."""
    if len(w.spec.parties) != 1:
        raise DimensionMismatchError("trace_dimension_identity needs a single party")
    dims = w.spec.parties[0]
    ops = np.eye(dims.total).reshape(-1, dims.d_out, dims.d_in) / np.sqrt(dims.d_out)
    return probability(w, [cj_of_kraus(KrausFamily(dims, ops))])

