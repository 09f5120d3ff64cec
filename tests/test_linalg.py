import itertools

import numpy as np
import pytest

from pmtool.linalg import (
    PAULI_STACK,
    DimensionPair,
    NonHermitianError,
    DimensionMismatchError,
    basis_state,
    hermitian_basis,
    hermiticity_check,
    kron,
    min_eigenvalue,
    partial_trace,
    pauli_eigenvector,
    pauli_word,
    product_expectations,
    projector,
    random_density,
    random_hermitian,
)

I2 = np.eye(2)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def brute_partial_trace(m, dims, keep):
    """Independent index-loop partial trace used as an oracle."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1

    def unflatten(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def flatten(idx, factors):
        flat = 0
        for i in factors:
            flat = flat * dims[i] + idx[i]
        return flat

    out = np.zeros((d_keep, d_keep), dtype=complex)
    total = int(np.prod(dims))
    for r in range(total):
        for c in range(total):
            ri, ci = unflatten(r), unflatten(c)
            if any(ri[i] != ci[i] for i in traced):
                continue
            out[flatten(ri, keep), flatten(ci, keep)] += m[r, c]
    return out


def test_kron_identities():
    assert np.array_equal(kron(I2, I2), np.eye(4))
    assert np.array_equal(kron(pauli_word("z"), pauli_word("z")), np.diag([1, -1, -1, 1]))


def test_kron_block_structure():
    xz = kron(pauli_word("x"), pauli_word("z"))
    z = pauli_word("z")
    assert np.array_equal(xz[:2, 2:], z)
    assert np.array_equal(xz[2:, :2], z)
    assert np.array_equal(xz[:2, :2], np.zeros((2, 2)))


def test_kron_associativity():
    # exact-representable entries make the entrywise equality exact
    rng = np.random.default_rng(0)
    a = rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))
    b = rng.integers(-4, 5, (3, 3)) + 1j * rng.integers(-4, 5, (3, 3))
    c = rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    # floating inputs agree to rounding noise
    x, y, z = random_hermitian(2, 0), random_hermitian(3, 1), random_hermitian(2, 2)
    assert np.allclose(kron(kron(x, y), z), kron(x, kron(y, z)), atol=1e-13)


def test_partial_trace_factorized():
    a = random_hermitian(2, 10)
    b = random_hermitian(2, 11)
    reduced = partial_trace(kron(a, b), [2, 2], keep={0})
    assert np.allclose(reduced, a * np.trace(b), atol=1e-14)


def test_partial_trace_identity():
    assert np.allclose(partial_trace(np.eye(4), [2, 2], keep={1}), 2 * I2)


def test_partial_trace_swap():
    # Frozen from the 4x4 index computation in brute_partial_trace.
    assert np.allclose(brute_partial_trace(SWAP, [2, 2], {0}), I2)
    assert np.allclose(partial_trace(SWAP, [2, 2], keep={0}), I2, atol=1e-14)


def test_partial_trace_matches_bruteforce():
    m = random_hermitian(12, 5)
    for keep in [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}]:
        got = partial_trace(m, [2, 3, 2], keep)
        want = brute_partial_trace(m, [2, 3, 2], keep)
        assert np.allclose(got, want, atol=1e-13)


def test_partial_trace_keep_all_and_none():
    m = random_hermitian(4, 6)
    assert np.allclose(partial_trace(m, [2, 2], keep={0, 1}), m)
    assert np.allclose(partial_trace(m, [2, 2], keep=set()), np.trace(m))


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(4), [2, 3], keep={0})


def test_partial_trace_rejects_a_keep_index_out_of_range():
    with pytest.raises(DimensionMismatchError, match=r"keep indices \[2\] out of range"):
        partial_trace(np.eye(4), [2, 2], keep={2})


def test_product_expectations_rejects_a_mismatched_matrix():
    with pytest.raises(DimensionMismatchError, match=r"shape \(3, 3\) does not match"):
        product_expectations(np.eye(3), [PAULI_STACK])


def test_pauli_matrices():
    assert np.array_equal(pauli_word("1"), I2)
    assert np.array_equal(pauli_word("y"), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli_word("z"), np.diag([1, -1]))
    # each call returns a fresh array: writing into one leaves sigma_z intact
    pauli_word("z")[:] = 7
    assert np.array_equal(pauli_word("z"), np.diag([1, -1]))
    assert np.array_equal(PAULI_STACK[3], np.diag([1, -1]))
    with pytest.raises(ValueError, match="^unknown Pauli index 'q'$"):
        pauli_word("q")
    with pytest.raises(ValueError, match="^unknown Pauli index 'q'$"):
        pauli_word("xq")


def test_pauli_orthogonality_and_unitarity():
    for p in "1xyz":
        sp = pauli_word(p)
        assert np.array_equal(sp, sp.conj().T)
        assert np.allclose(sp @ sp.conj().T, I2)
    for p, q in itertools.product("1xyz", repeat=2):
        expected = 2.0 if p == q else 0.0
        assert abs(np.trace(pauli_word(p) @ pauli_word(q)) - expected) < 1e-15


def test_pauli_eigenvectors():
    assert np.allclose(pauli_eigenvector("z", 0), [1, 0])
    assert np.allclose(pauli_eigenvector("x", 1), np.array([1, -1]) / np.sqrt(2))
    # Frozen from solving the 2x2 eigenproblem for Y.
    assert np.allclose(pauli_eigenvector("y", 0), np.array([1, 1j]) / np.sqrt(2))
    for p in "xyz":
        for s in (0, 1):
            v = pauli_eigenvector(p, s)
            assert abs(np.linalg.norm(v) - 1) <= 1e-14
            assert np.max(np.abs(pauli_word(p) @ v - (-1) ** s * v)) <= 1e-14
            first = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
            assert first.imag == 0 and first.real > 0


def test_pauli_eigenvector_rejects_identity():
    with pytest.raises(ValueError):
        pauli_eigenvector("1", 0)


def test_pauli_eigenvector_rejects_a_sign_that_is_not_a_bit():
    with pytest.raises(ValueError, match="s must be a bit, got 2"):
        pauli_eigenvector("x", 2)


def test_min_eigenvalue_basic():
    assert min_eigenvalue(I2) == pytest.approx(1.0)
    assert min_eigenvalue(pauli_word("z")) == pytest.approx(-1.0)


def test_min_eigenvalue_reconstruction():
    rng = np.random.default_rng(3)
    lam = np.sort(rng.standard_normal(6))
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    v, _ = np.linalg.qr(g)
    m = (v * lam) @ v.conj().T
    assert min_eigenvalue(m) == pytest.approx(lam[0], abs=1e-12)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermiticity_check_measures_frobenius_gap():
    m = np.array([[2, 1], [0, 3]], dtype=complex)
    gap, lowest = hermiticity_check(m)
    assert gap == pytest.approx(np.sqrt(2) / 2)  # ||m - m^dagger||_F / 2
    assert lowest == float("-inf")
    gap, lowest = hermiticity_check(m, tol=1.0)
    assert lowest == pytest.approx(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    gap, lowest = hermiticity_check(pauli_word("y"))
    assert gap == 0.0 and lowest == pytest.approx(-1.0)
    gap, lowest = hermiticity_check(projector(basis_state(0)))
    assert gap == 0.0 and lowest == pytest.approx(0.0)
    assert hermiticity_check(pauli_word("z"))[1] == pytest.approx(-1.0)
    gap, lowest = hermiticity_check(np.array([[1, 1], [0, 1]], dtype=complex))  # PSD part
    assert gap > 1e-9 and lowest == float("-inf")


def test_hermitian_bases():
    for d in (1, 2, 3, 4, 8):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        assert not basis.flags.writeable
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        # the identity direction first, every other element traceless
        assert np.abs(basis[0] - np.eye(d) / np.sqrt(d)).max() <= 1e-15
        assert np.abs(np.trace(basis[1:], axis1=1, axis2=2)).max(initial=0.0) < 1e-14
        # orthonormality in the Hilbert-Schmidt inner product
        flat = basis.reshape(d * d, d * d)
        assert np.abs(flat.conj() @ flat.T - np.eye(d * d)).max() < 1e-13


def test_hermitian_basis_order():
    # qubits: 1, x, y, z up to the normalisation 1/sqrt(2)
    assert np.abs(hermitian_basis(2) * np.sqrt(2) - PAULI_STACK).max() <= 1e-15

    def pair(i, j, anti):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j], m[j, i] = (-1j, 1j) if anti else (1, 1)
        return m / np.sqrt(2)

    want = [np.eye(3) / np.sqrt(3)]
    want += [pair(i, j, anti) for i, j in ((0, 1), (0, 2), (1, 2)) for anti in (False, True)]
    want += [np.diag([1, -1, 0]) / np.sqrt(2), np.diag([1, 1, -2]) / np.sqrt(6)]
    assert np.abs(hermitian_basis(3) - np.array(want)).max() <= 1e-15


def test_hermitian_basis_refuses_dimension_above_max():
    # the stack would hold 16 d^4 bytes (4 GiB at d = 128), so it is never built
    with pytest.raises(DimensionMismatchError, match="dimension 65 is above 64"):
        hermitian_basis(65)


def test_random_density_is_density():
    for seed in range(5):
        rho = random_density(4, seed)
        assert hermiticity_check(rho, 1e-13)[1] >= -1e-13  # gap and spectrum within 1e-13
        assert np.trace(rho).real == pytest.approx(1.0)


def test_dimension_pair_validation():
    with pytest.raises(ValueError):
        DimensionPair(0, 2)
    assert DimensionPair(2, 3).total == 6
