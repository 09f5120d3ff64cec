"""Dense complex linear algebra over small Hilbert spaces.

Everything here works on plain numpy arrays (dtype complex128) in the
computational basis |0>, |1>, ... with multi-factor indices ordered so the
left tensor factor is most significant, matching ``numpy.kron``.

Tolerances follow one rule: ``tol`` bounds the Frobenius norm of a deviation.
A number read through a probe C, Tr[W C], then moves by at most tol ||C||_F
(Cauchy-Schwarz), which is what its check allows; a check on a norm (a
residual, the hermiticity gap ||m - m^dagger||_F / 2, ||sum E^dagger E - I||_F)
or on an eigenvalue allows tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9

PAULI_INDICES = ("1", "x", "y", "z")

_PAULI = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Eigenvectors |p(s)> with sigma_p |p(s)> = (-1)^s |p(s)>, global phase fixed
# so the first nonzero amplitude is real positive.
_PAULI_EIGVECS = {
    ("x", 0): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("x", 1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("y", 0): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("y", 1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
    ("z", 0): np.array([1, 0], dtype=complex),
    ("z", 1): np.array([0, 1], dtype=complex),
}


# The Pauli operators 1, x, y, z and their six eigenprojectors
# x0, x1, y0, y1, z0, z1, stacked for ``product_expectations``.
PAULI_STACK = np.stack([_PAULI[p] for p in PAULI_INDICES])
EIGENPROJECTOR_STACK = np.stack([np.outer(v, v.conj()) for v in _PAULI_EIGVECS.values()])
PAULI_STACK.flags.writeable = EIGENPROJECTOR_STACK.flags.writeable = False


class DimensionMismatchError(ValueError):
    """Matrix or factor dimensions do not match."""


class NonHermitianError(ValueError):
    """A Hermitian operator was required but not supplied."""


@dataclass(frozen=True)
class DimensionPair:
    """Input and output Hilbert-space dimensions of one laboratory."""

    d_in: int
    d_out: int

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dimensions must be positive")

    @property
    def total(self) -> int:
        return self.d_in * self.d_out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(factors) -> np.ndarray:
    out = np.array([[1]], dtype=complex)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def product_expectations(matrix: np.ndarray, stacks) -> np.ndarray:
    """Tr[W (S_1[a_1] (x) ... (x) S_n[a_n])] for every index tuple (a_1..a_n).

    ``stacks[k]`` has shape (m_k, d_k, d_k) and acts on tensor factor k of W
    (left factor first); the result has shape (m_1, ..., m_n). W is
    contracted one factor at a time, so no product operator is ever built.
    """
    dims = [s.shape[-1] for s in stacks]
    total = int(np.prod(dims))
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (total, total):
        raise DimensionMismatchError(f"matrix shape {m.shape} does not match factor dims {dims}")
    t = m.reshape(dims + dims)
    for k, s in enumerate(stacks):
        # Axis 0 is factor k's row, axis n - k its column; the new index
        # goes last, so the finished tensor is ordered (a_1, ..., a_n).
        t = np.tensordot(t, s, axes=([0, len(dims) - k], [2, 1]))
    return t


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Reduce ``m`` over the factors not in ``keep``.

    ``dims`` lists the factor dimensions (left factor first); ``keep`` is the
    set of factor indices to retain, in the induced basis ordering.
    """
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match factor dims {dims}"
        )
    n = len(dims)
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    rows = [chr(ord("a") + i) for i in range(n)]
    cols = [rows[i] if i not in keep else chr(ord("a") + n + i) for i in range(n)]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    sub = "".join(rows) + "".join(cols) + "->" + out
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.einsum(sub, t).reshape(d_keep, d_keep)


def pauli(p: str) -> np.ndarray:
    """Pauli operator sigma_p for p in {'1','x','y','z'} ('1' is identity)."""
    try:
        return _PAULI[p].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli index {p!r}") from None


def pauli_word(indices) -> np.ndarray:
    """Tensor product of Pauli operators, left factor most significant."""
    return kron_all(_PAULI[p] for p in indices)


def pauli_eigenvector(p: str, s: int) -> np.ndarray:
    """Unit eigenvector of sigma_p with eigenvalue (-1)^s, p in {x,y,z}."""
    if p not in ("x", "y", "z"):
        raise ValueError(f"eigenvectors defined for x, y, z only, got {p!r}")
    if s not in (0, 1):
        raise ValueError(f"s must be a bit, got {s!r}")
    return _PAULI_EIGVECS[(p, s)].copy()


def basis_state(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| for a state vector v."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def hermiticity_check(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """(gap, lowest): the hermiticity gap ||m - m^dagger||_F / 2 and the
    smallest eigenvalue of the Hermitian part, -inf (not computed) when gap > tol."""
    m = np.asarray(m, dtype=complex)
    gap = float(np.linalg.norm(m - m.conj().T)) / 2
    return gap, float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]) if gap <= tol else -np.inf


def min_eigenvalue(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix (checked within tol)."""
    gap, lowest = hermiticity_check(m, tol)
    if gap > tol:
        raise NonHermitianError("min_eigenvalue requires a Hermitian matrix")
    return lowest


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian and positive semidefinite, each within tol."""
    return hermiticity_check(m, tol)[1] >= -tol


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Frobenius) Hermitian basis of d x d matrices, as a
    read-only (d^2, d, d) stack built once per d.

    Identity-direction element first, then the traceless ones.
    """
    basis = np.stack([np.eye(d, dtype=complex) / np.sqrt(d)] + traceless_hermitian_basis(d))
    basis.flags.writeable = False
    return basis


def traceless_hermitian_basis(d: int) -> list:
    """Orthonormal basis of the traceless Hermitian d x d matrices.

    Generalized Gell-Mann construction: symmetric and antisymmetric
    off-diagonal pairs plus diagonal ladder elements; d^2 - 1 matrices.
    """
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1 / np.sqrt(2)
            basis.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[i, j] = -1j / np.sqrt(2)
            anti[j, i] = 1j / np.sqrt(2)
            basis.append(anti)
    for k in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for i in range(k):
            diag[i, i] = 1.0
        diag[k, k] = -k
        basis.append(diag / np.sqrt(k * (k + 1)))
    return basis


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian matrix with O(1) entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_density(dim: int, seed: int) -> np.ndarray:
    """Seeded random density matrix (Wishart construction)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-ish random unit vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
