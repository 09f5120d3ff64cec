import numpy as np
import pytest

from pmtool.channels import (
    CJOperator,
    Instrument,
    KrausFamily,
    cj_of_instrument,
    cj_of_kraus,
    is_cptp,
    measure_prepare_cj,
    random_cp_map,
    random_cptp,
    random_instrument,
)
from pmtool.linalg import (
    DimensionMismatchError,
    DimensionPair,
    basis_state,
    hermiticity_check,
    kron,
    partial_trace,
    pauli_eigenvector,
    pauli_word,
    projector,
)
from reference import max_entangled

Q = DimensionPair(2, 2)


def choi_conventional(f: KrausFamily) -> np.ndarray:
    """(id (x) E)|ME><ME|: the untransposed Choi matrix, used as an oracle."""
    me = max_entangled(f.dims.d_in)
    rho = np.outer(me, me.conj())
    d_in, d_out = f.dims.d_in, f.dims.d_out
    big = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for op in f.operators:
        ext = kron(np.eye(d_in), op)
        big += ext @ rho @ ext.conj().T
    return big


def transpose_input_factor(m: np.ndarray, dims: DimensionPair) -> np.ndarray:
    d_in, d_out = dims.d_in, dims.d_out
    t = m.reshape(d_in, d_out, d_in, d_out)
    return t.transpose(2, 1, 0, 3).reshape(d_in * d_out, d_in * d_out)


def test_max_entangled():
    assert np.array_equal(max_entangled(1), [1])
    assert np.array_equal(max_entangled(2), [1, 0, 0, 1])
    me3 = max_entangled(3)
    assert np.vdot(me3, me3).real == pytest.approx(3.0)


def test_cj_identity_channel_is_swap():
    f = KrausFamily(Q, (np.eye(2),))
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(cj_of_kraus(f).matrix, swap)


def test_cj_measure_prepare_product_form():
    psi = pauli_eigenvector("x", 0)
    eta = pauli_eigenvector("y", 1)
    f = KrausFamily(Q, (np.outer(eta, psi.conj()),))
    want = kron(projector(psi), projector(eta))
    assert np.allclose(cj_of_kraus(f).matrix, want, atol=1e-15)
    assert np.allclose(measure_prepare_cj(psi, eta).matrix, want, atol=1e-15)


def test_cj_flatten_reprepare_kraus():
    # Single Kraus |j><k| / sqrt(d_out) has CJ P_k (x) P_j / d_out.
    d_in, d_out = 3, 2
    for j in range(d_out):
        for k in range(d_in):
            op = np.zeros((d_out, d_in), dtype=complex)
            op[j, k] = 1 / np.sqrt(d_out)
            cj = cj_of_kraus(KrausFamily(DimensionPair(d_in, d_out), (op,)))
            want = kron(projector(basis_state(k, d_in)),
                        projector(basis_state(j, d_out))) / d_out
            assert np.allclose(cj.matrix, want, atol=1e-15)


def test_cj_matches_transposed_choi():
    # The explicit double sum equals the Choi matrix transposed on the input
    # factor; with real Kraus operators the global transpose coincides too.
    for seed in range(5):
        f = random_cp_map(DimensionPair(3, 2), 2, seed)
        want = transpose_input_factor(choi_conventional(f), f.dims)
        assert np.allclose(cj_of_kraus(f).matrix, want, atol=1e-12)
    # measure-and-prepare with real states: the Choi factorizes into real
    # symmetric projectors, so the global transpose agrees as well
    psi, eta = pauli_eigenvector("x", 0), pauli_eigenvector("x", 1)
    mp = KrausFamily(Q, (np.outer(eta, psi.conj()),))
    assert np.allclose(cj_of_kraus(mp).matrix, choi_conventional(mp).T, atol=1e-14)


def test_cj_psd_and_trace_identity():
    # The Choi matrix (input-transposed CJ) is PSD for every CP map; the CJ
    # itself is PSD for measure-and-prepare maps.
    for seed in range(5):
        f = random_cp_map(DimensionPair(2, 3), 3, seed)
        cj = cj_of_kraus(f)
        assert hermiticity_check(transpose_input_factor(cj.matrix, f.dims), 1e-12)[1] >= -1e-12
        assert np.trace(cj.matrix).real == pytest.approx(
            np.trace(f.kraus_sum()).real, abs=1e-12
        )
    psi, eta = pauli_eigenvector("y", 0), pauli_eigenvector("y", 1)
    assert hermiticity_check(measure_prepare_cj(psi, eta).matrix, 1e-12)[1] >= -1e-12


def test_cj_of_cptp_partial_trace_is_identity():
    for seed in range(5):
        f = random_cptp(DimensionPair(2, 3), 3, seed)
        cj = cj_of_kraus(f)
        reduced = partial_trace(cj.matrix, [2, 3], keep={0})
        assert np.allclose(reduced, np.eye(2), atol=1e-12)
        assert np.trace(cj.matrix).real == pytest.approx(2.0, abs=1e-12)


def test_cj_linearity_over_branches():
    instr = random_instrument(Q, 3, seed=4)
    total = KrausFamily(Q, tuple(op for br in instr.branches for op in br.operators))
    branch_sum = sum(cj.matrix for cj in cj_of_instrument(instr))
    assert np.array_equal(branch_sum, cj_of_kraus(total).matrix)


def test_is_cptp():
    assert is_cptp(KrausFamily(Q, (np.eye(2),)))
    assert not is_cptp(KrausFamily(Q, (pauli_word("x") / 2,)))
    # the full flatten-reprepare family over all (j, k) is trace preserving
    ops = []
    d_in, d_out = 3, 2
    for j in range(d_out):
        for k in range(d_in):
            op = np.zeros((d_out, d_in), dtype=complex)
            op[j, k] = 1 / np.sqrt(d_out)
            ops.append(op)
    assert is_cptp(KrausFamily(DimensionPair(d_in, d_out), tuple(ops)), tol=1e-15)


def test_random_cptp_exact_and_deterministic():
    f1 = random_cptp(DimensionPair(3, 2), 4, seed=7)
    f2 = random_cptp(DimensionPair(3, 2), 4, seed=7)
    f3 = random_cptp(DimensionPair(3, 2), 4, seed=8)
    assert np.max(np.abs(f1.kraus_sum() - np.eye(3))) <= 1e-12
    for a, b in zip(f1.operators, f2.operators):
        assert np.array_equal(a, b)
    assert not all(
        np.array_equal(a, b) for a, b in zip(f1.operators, f3.operators)
    )


@pytest.mark.parametrize("d_in, d_out, n", [
    (2, 1, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 1), (4, 1, 2), (4, 2, 1), (4, 3, 1),
])
def test_random_cptp_rejects_too_few_kraus_operators(d_in, d_out, n):
    # n * d_out < d_in: sum_k E_k^dagger E_k is singular, so no draw can be
    # normalised; the error names the condition before any eigendecomposition
    # (a RuntimeWarning from it would fail here under filterwarnings = error).
    dims = DimensionPair(d_in, d_out)
    for draw in (random_cptp, random_instrument):
        with pytest.raises(ValueError, match=r"n_kraus \* d_out < d_in"):
            draw(dims, n, seed=0)


@pytest.mark.parametrize("d_in, d_out, n", [(2, 1, 2), (3, 1, 3), (3, 2, 2), (4, 2, 2)])
def test_random_cptp_accepts_the_smallest_kraus_count(d_in, d_out, n):
    dims = DimensionPair(d_in, d_out)
    assert is_cptp(random_cptp(dims, n, seed=0), tol=1e-12)
    assert len(random_instrument(dims, n, seed=0).branches) == n


def test_kraus_family_shape_validation():
    with pytest.raises(DimensionMismatchError):
        KrausFamily(DimensionPair(2, 3), (np.eye(2),))
    with pytest.raises(ValueError):
        KrausFamily(Q, ())


def test_instrument_rejects_non_cptp_total():
    half = KrausFamily(Q, (np.eye(2) / 2,))
    with pytest.raises(ValueError):
        Instrument(Q, (half,))


def test_instrument_needs_branches_of_its_dims():
    with pytest.raises(ValueError, match="at least one branch"):
        Instrument(Q, ())
    other = random_cptp(DimensionPair(2, 3), 1, seed=0)
    with pytest.raises(DimensionMismatchError, match="branch dimensions disagree"):
        Instrument(Q, (random_cptp(Q, 1, seed=0), other))


def test_max_entangled_needs_a_positive_dimension():
    with pytest.raises(ValueError, match="dimension must be positive"):
        max_entangled(0)


def test_cj_operator_shape_validation():
    with pytest.raises(DimensionMismatchError):
        CJOperator(Q, np.eye(3))
