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
or drops each element by how every party splits into identity, input-only
and output-touching parts. So one per-party walk of one coefficient tensor
gives both W's Frobenius distance to the valid set (each party led by its
identity element) and the constraint values (led by its reference CJ's row,
in closed form), which only label a rejection, so ``validate``'s report computes
them when first read. ``validate``'s rows are tested against the materialised
``normalization_constraints``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import CJOperator, KrausFamily, cj_of_kraus
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DimensionPair,
    hermitian_basis,
    hermiticity_check,
    hermiticity_gap,
    kron_all,
    product_expectations,
    psd_lowest,
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


_REPORT_FIELDS = ("psd_ok", "min_eigenvalue", "normalization_ok", "distance",
                  "worst_residual", "trace_ok", "trace_value", "violated_constraints")


@dataclass(frozen=True)
class ValidityReport:
    """``validate``'s verdict, computed in the call. ``worst_residual`` and
    ``violated_constraints`` only explain it: they are built on first read of either
    off W's product-basis coefficients, which the report keeps until then (16 D^2 bytes
    for a D x D W), so they describe the W that was validated. ``==`` and ``repr``
    cover both, as fields."""

    psd_ok: bool
    min_eigenvalue: float
    normalization_ok: bool
    distance: float
    trace_ok: bool
    trace_value: float
    _spec: PartySpec = field(repr=False, compare=False)
    _tol: float = field(repr=False, compare=False)
    # the verdict's own rows: hermiticity or min_eigenvalue, trace, distance
    _verdict_rows: tuple = field(repr=False, compare=False)
    # one slot: the coefficient tensor until a row is first read, then the rows
    _rows: list = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.normalization_ok and self.trace_ok

    @property
    def worst_residual(self) -> float:
        return self._constraint_rows()[0]

    @property
    def violated_constraints(self) -> tuple:
        return self._constraint_rows()[1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return f"ValidityReport({', '.join(f'{k}={v!r}' for k, v in self._fields())})"

    def _fields(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in _REPORT_FIELDS)

    def _constraint_rows(self) -> tuple:
        """(largest |Tr[W C] - expected|, the verdict's rows then each constraint whose
        residual / ||C||_F exceeds tol: a quotient, so a tol whose bound tol ||C||_F
        passes the largest float lists no row instead of overflowing). Built once; the
        slot then holds them in place of the coefficients."""
        spec, t = self._spec, self._rows[0]
        if isinstance(t, tuple):
            return t
        values = _party_rows(spec, t, _reference_row)
        values[0] -= 1.0  # the reference constraint expects 1, every direction 0
        residuals = np.abs(values)
        # residual / ||C||_F: one axis per party, its reference slice over its reference CJ's
        # exact norm, d for the SWAP and sqrt(d_in) for I (x) |0><0|
        shape = [1 + p.d_in**2 * (p.d_out**2 - 1) for p in spec.parties]
        per_probe = residuals.reshape(shape).copy()
        for axis, dims in enumerate(spec.parties):
            per_probe[(slice(None),) * axis + (0,)] /= (
                dims.d_out if dims.d_in == dims.d_out else math.sqrt(dims.d_in))
        over = np.flatnonzero(per_probe > self._tol)
        rows = zip(_constraint_labels(spec, over), residuals[over].tolist())
        self._rows[0] = float(residuals.max()), self._verdict_rows + tuple(rows)
        return self._rows[0]


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
    instruments, materialised: what ``validate``'s constraint rows are tested against.

    Returns (label, matrix, expected) triples: expected 1 when every party
    takes its reference CPTP CJ, 0 as soon as any party takes a traceless
    direction h_in (x) g_out (g_out traceless, so Tr_out of it vanishes).
    """
    per_party = []
    for i, dims in enumerate(spec.parties):
        directions = (
            np.kron(h, g)
            for h in hermitian_basis(dims.d_in)
            for g in hermitian_basis(dims.d_out)[1:]
        )
        per_party.append([(f"P{i}:ref", reference_cptp_cj(dims).matrix, 1.0)] + [
            (f"P{i}:dir{k}", direction, 0.0) for k, direction in enumerate(directions)
        ])
    return [
        ("|".join(c[0] for c in combo), kron_all(c[1] for c in combo),
         float(all(c[2] for c in combo)))
        for combo in itertools.product(*per_party)
    ]


def _reference_row(dims: DimensionPair, block: np.ndarray) -> np.ndarray:
    """Tr[W (C (x) ...)] for the party's reference CJ C, off its block t[a, b, rest] of
    product-basis coefficients. Closed form: the identity channel's SWAP has coefficients
    delta_ab, since Tr[SWAP (A (x) B)] = Tr[AB]; trace-and-prepare's I (x) |0><0| has
    sqrt(d_in) delta_a0 <0|G_b|0>."""
    if dims.d_in == dims.d_out:
        return np.trace(block)
    return math.sqrt(dims.d_in) * hermitian_basis(dims.d_out)[:, 0, 0].real @ block[0]


def _party_rows(spec: PartySpec, t: np.ndarray, lead) -> np.ndarray:
    """W's product-basis coefficients t with each party's two axes made one, parties in
    order: the row ``lead(dims, block)``, then the output-touching ``block[:, 1:]``. With
    ``_reference_row`` it is Tr[W C] in ``normalization_constraints`` order; with
    ``block[0, 0]`` it is the identity's coefficient, then every element L_V drops."""
    for dims in spec.parties:
        block = t.reshape(dims.d_in**2, dims.d_out**2, -1)
        head = lead(dims, block)
        t = np.concatenate([head[np.newaxis], block[:, 1:].reshape(-1, head.size)]).T
    return t.reshape(-1)


def _constraint_labels(spec: PartySpec, indices) -> list:
    """Labels of the constraints ``indices`` in ``normalization_constraints(spec)``."""
    shape = [1 + p.d_in**2 * (p.d_out**2 - 1) for p in spec.parties]
    factors = np.unravel_index(indices, shape)
    return ["|".join(f"P{i}:dir{k - 1}" if k else f"P{i}:ref" for i, k in enumerate(row))
            for row in zip(*(f.tolist() for f in factors))]


def single_party_verdict(w: ProcessMatrix, tol: float) -> tuple:
    """(W_1, Tr W, distance, hermiticity gap, lambda_min(W_1), whether Weyl's bound certifies
    PSD): the one rule by which ``validate`` and the reduction oracles certify a single-party
    W. W_1 = Tr_out W / d_out, the a = b trace of blocks[i, a, j, b] = W[(i, a), (j, b)], gives
    L_V W = W_1 (x) I, never built: the distance is hypot(||blocks - W_1[i, j] delta_ab||_F,
    (Tr W - d_out) / sqrt(D)). W's Hermitian part H is within ||W - W_1 (x) I||_F of W_1 (x) I,
    whose spectrum is W_1's, so lambda_min(H) >= lambda_min(W_1) - ||W - W_1 (x) I||_F (Weyl)."""
    dims = w.spec.parties[0]
    blocks = w.matrix.reshape(dims.d_in, dims.d_out, dims.d_in, dims.d_out)
    w1 = np.trace(blocks, axis1=1, axis2=3) / dims.d_out
    off = float(np.linalg.norm(blocks - w1[:, None, :, None] * np.eye(dims.d_out)[:, None]))
    trace = float(np.trace(w.matrix).real)
    w1_lowest = hermiticity_check(w1, tol)[1]
    return (w1, trace, math.hypot(off, (trace - dims.d_out) / math.sqrt(dims.total)),
            hermiticity_gap(w.matrix), w1_lowest, w1_lowest - off >= -tol)


def validate(w: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Certify W iff it is Hermitian and PSD within tol and its distance to the
    valid set, sqrt(||W - L_V W||_F^2 + (Tr W - d_out)^2 / D), is at most tol.

    PSD is decided by ``single_party_verdict``'s Weyl bound for one party, ``psd_lowest`` for
    several; W's lowest eigenvalue is computed only when that fails (``min_eigenvalue`` NaN).

    Rows label a rejection: hermiticity or the smallest eigenvalue, the trace,
    the distance, then the constraints, built on first read (``ValidityReport``)."""
    violated = []
    single = len(w.spec.parties) == 1
    if single:  # the reduction oracles' rule, so their verdicts agree
        _, trace_value, distance, gap, _, certified = single_party_verdict(w, tol)
    else:
        gap, trace_value = hermiticity_gap(w.matrix), float(np.trace(w.matrix).real)
    if not gap <= tol:  # NaN entries fail too
        mineig = -np.inf  # no spectrum: W is not Hermitian
    elif single:
        mineig = np.nan if certified else hermiticity_check(w.matrix, tol)[1]
    else:
        mineig = psd_lowest(w.matrix, tol)
    psd_ok = gap <= tol and not mineig < -tol  # NaN: certified without the spectrum
    if gap > tol:
        violated.append(("hermiticity", gap))
    elif mineig < -tol:
        violated.append(("min_eigenvalue", mineig))

    trace_gap = trace_value - w.spec.d_out_product
    trace_ok = abs(trace_gap) <= tol * math.sqrt(w.spec.total_dim)
    if not trace_ok:
        violated.append(("trace", abs(trace_gap)))

    # after the PSD step, so its copies of W and the coefficients are never held together
    t = product_expectations(w.matrix, [hermitian_basis(d) for d in w.spec.factor_dims])
    if not single:
        rows = _party_rows(w.spec, t, lambda dims, block: block[0, 0])
        distance = math.hypot(float(np.linalg.norm(rows[1:])),
                              trace_gap / math.sqrt(w.spec.total_dim))
    if distance > tol:
        violated.append(("distance", distance))

    return ValidityReport(psd_ok=psd_ok, min_eigenvalue=mineig,
                          normalization_ok=distance <= tol, distance=distance,
                          trace_ok=trace_ok, trace_value=trace_value, _spec=w.spec,
                          _tol=tol, _verdict_rows=tuple(violated), _rows=[t])


def trace_dimension_identity(w: ProcessMatrix) -> float:
    """Probability sum over the instrument with branches E_{j,k} = |j><k| / sqrt(d_out),
    all j, k: one probability of their joint CP map. For any Hermitian W it equals
    Tr(W)/d_out, which is 1 exactly when Tr(W) = d_out."""
    if len(w.spec.parties) != 1:
        raise DimensionMismatchError("trace_dimension_identity needs a single party")
    dims = w.spec.parties[0]
    ops = np.eye(dims.total).reshape(-1, dims.d_out, dims.d_in) / np.sqrt(dims.d_out)
    return probability(w, [cj_of_kraus(KrausFamily(dims, ops))])

