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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9
MAX_BASIS_DIM = 64  # hermitian_basis(d) peaks at its own 16 d^4 bytes: 256 MiB at 64, 4 GiB at 128

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
PAULI_STACK = np.stack([_PAULI[p] for p in "1xyz"])
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
    (left factor first); the result has shape (m_1, ..., m_n). No product
    operator is built: W is permuted once to (c_1, r_1, ..., c_n, r_n), as
    Tr[W S] = sum_{c,r} W[r, c] S[c, r], and each factor is one matmul
    (rest, d_k^2) @ (d_k^2, m_k) whose result has the next factor leading.
    """
    dims = [s.shape[-1] for s in stacks]
    total = math.prod(dims)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (total, total):
        raise DimensionMismatchError(f"matrix shape {m.shape} does not match factor dims {dims}")
    n = len(dims)
    t = m.reshape(dims + dims).transpose([a for k in range(n) for a in (n + k, k)])
    for s, d in zip(stacks, dims):
        t = t.reshape(d * d, -1).T @ s.reshape(len(s), d * d).T
    return t.reshape([len(s) for s in stacks])


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


def pauli_word(indices) -> np.ndarray:
    """Tensor product of Pauli operators sigma_p, p in {'1','x','y','z'} ('1' is
    identity), left factor most significant, as a fresh array; "z" gives sigma_z."""
    try:
        factors = [_PAULI[p] for p in indices]
    except KeyError as unknown:
        raise ValueError(f"unknown Pauli index {unknown.args[0]!r}") from None
    return kron_all(factors)


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


def unit_vector(v: np.ndarray, name: str) -> np.ndarray:
    """``v`` flattened to a complex vector; ValueError unless ||v|| = 1 within DEFAULT_TOL."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
        raise ValueError(f"{name} is not a unit vector")
    return v


def hermiticity_gap(m: np.ndarray) -> float:
    """The hermiticity gap ||m - m^dagger||_F / 2."""
    return float(np.linalg.norm(m - np.conj(m).T)) / 2


def hermiticity_check(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """(gap, lowest): the hermiticity gap and the smallest eigenvalue of the
    Hermitian part, -inf (not computed) unless gap <= tol. The exact measure."""
    m = np.asarray(m, dtype=complex)
    gap = hermiticity_gap(m)
    return gap, float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]) if gap <= tol else -np.inf


def psd_lowest(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """NaN when a Cholesky factor of H + tol I, H = (m + m^dagger) / 2, certifies lambda_min(H)
    > -tol (to rounding, ~1e-16 ||H||); else H's smallest eigenvalue, as hermiticity_check's."""
    m = np.asarray(m, dtype=complex)
    h = (m + m.conj().T) / 2
    shifted = h.copy()
    shifted.reshape(-1)[::len(h) + 1] += tol  # the diagonal, as a view
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return float(np.linalg.eigvalsh(h)[0])
    return np.nan


def min_eigenvalue(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix (checked within tol)."""
    gap, lowest = hermiticity_check(m, tol)
    if gap > tol:
        raise NonHermitianError("min_eigenvalue requires a Hermitian matrix")
    return lowest


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Frobenius) Hermitian basis of d x d matrices: one read-only
    (d^2, d, d) stack per d, each element written in place. Generalized Gell-Mann
    order: the identity direction, the symmetric and antisymmetric element of each
    pair i < j, then the traceless diagonal ladder; d <= MAX_BASIS_DIM."""
    if d > MAX_BASIS_DIM:
        raise DimensionMismatchError(f"factor dimension {d} is above {MAX_BASIS_DIM}: its "
                                     f"Hermitian basis would take {16 * d**4} bytes")
    basis = np.zeros((d * d, d, d), dtype=complex)
    np.fill_diagonal(basis[0], 1 / np.sqrt(d))
    elements = iter(basis[1:])
    for i in range(d):
        for j in range(i + 1, d):
            sym, anti = next(elements), next(elements)
            sym[i, j] = sym[j, i] = 1 / np.sqrt(2)
            anti[i, j] = -1j / np.sqrt(2)
            anti[j, i] = 1j / np.sqrt(2)
    for k, diag in enumerate(elements, start=1):
        for i in range(k):
            diag[i, i] = 1.0
        diag[k, k] = -k
        diag /= np.sqrt(k * (k + 1))
    basis.flags.writeable = False
    return basis


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian matrix with O(1) entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_density(dim: int, seed: int) -> np.ndarray:
    """Seeded random density matrix (Wishart construction), exactly Hermitian
    (a matmul leaves g g^dagger Hermitian only to rounding)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real
