"""CP maps as Kraus families, instruments, and their CJ operators.

The CJ operator used throughout is the transposed-Choi convention

    M = sum_{i,j} |i><j| (x) E(|j><i|)

with |ME> = sum_j |j>|j> non-normalized. The explicit double sum is the
normative definition. It equals (id (x) E)|ME><ME| transposed on the input
factor (for real Kraus operators this coincides with the global transpose),
so M is always Hermitian but, unlike the untransposed Choi matrix, not
always PSD: the identity channel gives the SWAP operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DimensionPair,
    projector,
)


@dataclass(frozen=True)
class KrausFamily:
    """A CP map E(rho) = sum_k E_k rho E_k^dagger."""

    dims: DimensionPair
    operators: tuple = field()

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ValueError("KrausFamily needs at least one operator")
        shape = (self.dims.d_out, self.dims.d_in)
        for op in ops:
            if op.shape != shape:
                raise DimensionMismatchError(
                    f"Kraus operator shape {op.shape} != {shape}"
                )
        object.__setattr__(self, "operators", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(op @ rho @ op.conj().T for op in self.operators)

    def kraus_sum(self) -> np.ndarray:
        """sum_k E_k^dagger E_k (equals I_{d_in} for a CPTP map)."""
        return sum(op.conj().T @ op for op in self.operators)


@dataclass(frozen=True)
class Instrument:
    """One CP map per outcome; the branch sum must be trace preserving."""

    dims: DimensionPair
    branches: tuple = field()

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("Instrument needs at least one branch")
        for br in branches:
            if br.dims != self.dims:
                raise DimensionMismatchError("branch dimensions disagree")
        if not is_cptp(KrausFamily(self.dims, sum((br.operators for br in branches), ()))):
            raise ValueError("instrument branches do not sum to a CPTP map")
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True)
class CJOperator:
    """CJ operator of a CP map, on H_in (x) H_out."""

    dims: DimensionPair
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dims.total
        if m.shape != (d, d):
            raise DimensionMismatchError(f"CJ matrix shape {m.shape} != ({d}, {d})")
        object.__setattr__(self, "matrix", m)


def cj_of_kraus(f: KrausFamily) -> CJOperator:
    """CJ operator sum_{i,j} |i><j| (x) E(|j><i|)."""
    ops = np.stack(f.operators)
    # M[(i,a),(j,b)] = sum_k E_k[a,j] conj(E_k[b,i])
    m = np.einsum("kaj,kbi->iajb", ops, ops.conj())
    d = f.dims.total
    return CJOperator(f.dims, m.reshape(d, d))


def cj_of_instrument(instr: Instrument) -> list:
    return [cj_of_kraus(br) for br in instr.branches]


def is_cptp(f: KrausFamily, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||sum_k E_k^dagger E_k - I_{d_in}||_F <= tol."""
    return float(np.linalg.norm(f.kraus_sum() - np.eye(f.dims.d_in))) <= tol


def measure_prepare_cj(meas_state: np.ndarray, prep_state: np.ndarray) -> CJOperator:
    """CJ of the single Kraus |prep><meas|: the product |meas><meas| (x) |prep><prep|."""
    meas = np.asarray(meas_state, dtype=complex).reshape(-1)
    prep = np.asarray(prep_state, dtype=complex).reshape(-1)
    dims = DimensionPair(len(meas), len(prep))
    return CJOperator(dims, np.kron(projector(meas), projector(prep)))


def random_cp_map(dims: DimensionPair, n_kraus: int, seed: int) -> KrausFamily:
    """Seeded Gaussian Kraus family (CP, generally not trace preserving)."""
    rng = np.random.default_rng(seed)
    shape = (n_kraus, dims.d_out, dims.d_in)
    ops = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return KrausFamily(dims, tuple(ops))


def random_cptp(dims: DimensionPair, n_kraus: int, seed: int) -> KrausFamily:
    """Seeded random CPTP map: Gaussian draw, then Gram normalization."""
    if n_kraus * dims.d_out < dims.d_in:  # sum_k E_k^dagger E_k would be singular
        raise ValueError(f"no CPTP map has n_kraus * d_out < d_in: {n_kraus} * {dims.d_out}"
                         f" < {dims.d_in}")
    raw = random_cp_map(dims, n_kraus, seed)
    s = raw.kraus_sum()
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs * (1 / np.sqrt(vals))) @ vecs.conj().T
    return KrausFamily(dims, tuple(op @ inv_sqrt for op in raw.operators))


def random_instrument(dims: DimensionPair, n_branches: int, seed: int) -> Instrument:
    """Seeded random instrument: a random CPTP map split into single-Kraus branches."""
    total = random_cptp(dims, n_branches, seed)
    branches = tuple(KrausFamily(dims, (op,)) for op in total.operators)
    return Instrument(dims, branches)
