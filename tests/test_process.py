import functools
import itertools

import numpy as np
import pytest

from pmtool.channels import (
    cj_of_instrument,
    cj_of_kraus,
    measure_prepare_cj,
    random_cptp,
    random_instrument,
)
from pmtool.linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DimensionPair,
    basis_state,
    kron,
    min_eigenvalue,
    partial_trace,
    pauli_eigenvector,
    pauli_word,
    random_density,
    random_hermitian,
)
from pmtool.process import (
    PartySpec,
    ProcessMatrix,
    normalization_constraints,
    probability,
    single_party,
    trace_dimension_identity,
    validate,
)
from pmtool.reduction import projection_oracle

QUBIT_PARTY = DimensionPair(2, 2)


def rho_tensor_identity(rho: np.ndarray) -> ProcessMatrix:
    d = rho.shape[0]
    return single_party(d, d, kron(rho, np.eye(d)))


def test_probability_born_rule():
    rho = random_density(2, 0)
    w = rho_tensor_identity(rho)
    psi = pauli_eigenvector("x", 0)
    cj = measure_prepare_cj(psi, basis_state(1))
    assert probability(w, [cj]) == pytest.approx(
        float(np.real(psi.conj() @ rho @ psi)), abs=1e-13
    )


def test_probability_maximally_mixed():
    w = rho_tensor_identity(np.eye(2) / 2)
    cj = measure_prepare_cj(basis_state(0), basis_state(0))
    assert probability(w, [cj]) == pytest.approx(0.5, abs=1e-14)


def test_probability_two_party_direct_trace():
    from pmtool.ocbgame import build_w_ocb
    from reference import alice_cj, bob_cj

    w = build_w_ocb()
    a_cj = alice_cj(0, 0)
    b_cj = bob_cj(0, 0, 0, basis_state(0))
    # independent oracle: explicit 16x16 trace
    want = float(np.trace(w.matrix @ kron(a_cj.matrix, b_cj.matrix)).real)
    assert probability(w, [a_cj, b_cj]) == pytest.approx(want, abs=1e-14)
    # frozen value, cross-checked against the game acceptance numbers:
    # P(x=0, y=0 | a=0, b=0, b'=0) = (2 + sqrt(2)) / 8
    assert want == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-12)


def test_probability_dimension_mismatch():
    w = rho_tensor_identity(np.eye(2) / 2)
    cj = measure_prepare_cj(basis_state(0, 3), basis_state(0, 3))
    with pytest.raises(DimensionMismatchError):
        probability(w, [cj])
    with pytest.raises(DimensionMismatchError):
        probability(w, [])


def test_probability_rejects_an_imaginary_trace():
    # i 1e-6 I adds i 1e-6 Tr M to a probability, and this branch's CJ has Tr M = 1
    w = single_party(2, 2, kron(random_density(2, 0), np.eye(2)) + 1e-6j * np.eye(4))
    cj = measure_prepare_cj(basis_state(0), basis_state(1))
    with pytest.raises(ValueError, match="imaginary part 1.000e-06"):
        probability(w, [cj])


def test_party_spec_and_process_matrix_check_their_inputs():
    with pytest.raises(ValueError, match="at least one party"):
        PartySpec(())
    with pytest.raises(TypeError, match="DimensionPair instances"):
        PartySpec(((2, 2),))
    with pytest.raises(DimensionMismatchError, match=r"shape \(3, 3\) != \(4, 4\)"):
        ProcessMatrix(PartySpec((QUBIT_PARTY,)), np.eye(3))


def test_probability_linearity_in_each_party():
    w = rho_tensor_identity(random_density(2, 1))
    cj1 = measure_prepare_cj(pauli_eigenvector("x", 0), basis_state(0))
    cj2 = measure_prepare_cj(pauli_eigenvector("y", 1), basis_state(1))
    from pmtool.channels import CJOperator

    combo = CJOperator(QUBIT_PARTY, 0.3 * cj1.matrix + 0.7 * cj2.matrix)
    assert probability(w, [combo]) == pytest.approx(
        0.3 * probability(w, [cj1]) + 0.7 * probability(w, [cj2]), abs=1e-13
    )


def test_normalization_constraint_counts():
    single = normalization_constraints(PartySpec((QUBIT_PARTY,)))
    assert len(single) == 13  # 1 reference + 12 directions
    double = normalization_constraints(PartySpec((QUBIT_PARTY, QUBIT_PARTY)))
    assert len(double) == 169  # 1 + 12 + 12 + 144
    assert sum(1 for _, _, expected in double if expected == 1.0) == 1


def test_validate_rho_tensor_identity():
    for seed in range(5):
        report = validate(rho_tensor_identity(random_density(2, seed)))
        assert report.ok
        assert report.trace_value == pytest.approx(2.0)


def test_validate_w_ocb():
    from pmtool.ocbgame import build_w_ocb

    w = build_w_ocb()
    report = validate(w, tol=1e-10)
    assert report.ok and report.psd_ok
    # certified without the spectrum; W_OCB's lowest eigenvalue is 0, measured exactly
    assert np.isnan(report.min_eigenvalue)
    assert min_eigenvalue(w.matrix) == pytest.approx(0.0, abs=1e-12)
    assert report.trace_value == pytest.approx(4.0, abs=1e-12)
    assert report.worst_residual <= 1e-10


def test_validate_huge_tol_certifies_without_overflow():
    # each row compares residual / ||C||_F with tol, never tol * ||C||_F
    from pmtool.ocbgame import build_w_ocb

    report = validate(build_w_ocb(), tol=1e308)
    assert report.ok
    assert report.violated_constraints == ()


def test_validate_perturbed_fails_with_residual():
    w = single_party(2, 2, kron(np.eye(2), np.eye(2)) / 2 + 0.1 * pauli_word("zz"))
    report = validate(w)
    assert not report.normalization_ok
    # the Z (x) Z direction picks up residual 2 w_zz = 0.2
    assert report.worst_residual == pytest.approx(0.2, abs=1e-12)
    assert report.trace_ok and report.psd_ok


def test_validate_non_psd_rejection_is_labelled():
    # W1 (x) I with W1 of unit trace but a negative eigenvalue: at distance 0
    # from the valid set, rejected by the spectrum alone.
    w1 = np.diag([1.1, -0.1])
    report = validate(rho_tensor_identity(w1))
    assert report.distance <= 1e-12 and report.normalization_ok
    assert not report.ok and not report.psd_ok
    assert report.violated_constraints == (("min_eigenvalue", report.min_eigenvalue),)
    assert report.min_eigenvalue == pytest.approx(-0.1)


def test_validate_maximally_entangled_fails():
    # A maximally entangled W (trace rescaled to 2) would act as a closed
    # time-like curve; it must not validate.
    me = np.array([1, 0, 0, 1], dtype=complex)
    w = single_party(2, 2, np.outer(me, me).T)
    report = validate(w)
    assert not report.ok
    assert not report.normalization_ok


def test_instrument_probabilities_normalize():
    w = rho_tensor_identity(random_density(2, 3))
    for seed in range(10):
        instr = random_instrument(QUBIT_PARTY, 3, seed)
        probs = [probability(w, [cj]) for cj in cj_of_instrument(instr)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert all(-1e-9 <= p <= 1 + 1e-9 for p in probs)


def test_valid_w_gives_proper_probabilities_under_random_instruments():
    w = rho_tensor_identity(random_density(2, 4))
    assert validate(w).ok
    for seed in range(100):
        instr = random_instrument(QUBIT_PARTY, 2, seed)
        probs = [probability(w, [cj]) for cj in cj_of_instrument(instr)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert all(-1e-9 <= p <= 1 + 1e-9 for p in probs)


def test_trace_dimension_identity_examples():
    assert trace_dimension_identity(
        rho_tensor_identity(random_density(2, 5))
    ) == pytest.approx(1.0, abs=1e-12)
    assert trace_dimension_identity(
        single_party(2, 2, np.eye(4, dtype=complex))
    ) == pytest.approx(2.0, abs=1e-12)
    assert trace_dimension_identity(
        single_party(2, 2, pauli_word("zz"))
    ) == pytest.approx(0.0, abs=1e-12)


def test_trace_dimension_identity_is_operator_identity():
    # Tr identity holds for arbitrary Hermitian W, not only valid ones.
    for seed in range(20):
        for d_in, d_out in ((2, 2), (3, 3), (2, 3)):
            h = random_hermitian(d_in * d_out, seed)
            w = single_party(d_in, d_out, h)
            assert trace_dimension_identity(w) * d_out == pytest.approx(
                np.trace(h).real, abs=1e-12
            )


def test_trace_dimension_identity_rejects_multi_party():
    from pmtool.ocbgame import build_w_ocb

    with pytest.raises(DimensionMismatchError):
        trace_dimension_identity(build_w_ocb())


def test_validate_matches_reduction_certification():
    # cross-module equivalence on valid and invalid single-qubit inputs
    from pmtool.reduction import reduce_single_qubit

    for seed in range(20):
        rho = random_density(2, seed)
        good = rho_tensor_identity(rho)
        bad = single_party(2, 2, kron(rho, np.eye(2)) + 0.05 * pauli_word("xy"))
        for w in (good, bad):
            assert validate(w).ok == reduce_single_qubit(w).certified


def _spanning_cjs(dims, seed):
    """d_in^2 (d_out^2 - 1) + 1 random CPTP CJs, affinely independent: their affine
    hull is that of every CPTP CJ of the party, {M : Tr_out M = I}."""
    count = dims.d_in**2 * (dims.d_out**2 - 1) + 1
    cjs = [cj_of_kraus(random_cptp(dims, dims.total, seed + k)).matrix for k in range(count)]
    assert np.linalg.matrix_rank(np.array([(m - cjs[0]).ravel() for m in cjs])) == count - 1
    return cjs


@pytest.mark.parametrize("shape", [((2, 2), (2, 2)), ((2, 3), (3, 2)), ((3, 1), (1, 3)),
                                   ((2, 2),), ((3, 2),)])
def test_validate_agrees_with_the_operational_oracle(shape):
    # Validity from its definition, sharing no kernel with validate: W is normalised iff
    # Tr[W (M_1 (x) ... (x) M_n)] = 1 for every product of CPTP CJs, and by linearity
    # the products of per-party spanning sets suffice. W's distance to that affine set
    # is ||D|| for the minimum-norm D with Tr[D M] = 1 - Tr[W M] on every product M.
    # Tr[D M] = vec(D) . vec(M*), and each product's vec(M*) is one fixed permutation of
    # the Kronecker product of its parties' vec(M*), so ||D|| is the norm of the gaps
    # with each party's axis taken through the pseudo-inverse of its rows.
    spec = PartySpec(tuple(DimensionPair(*dims) for dims in shape))
    sets = [_spanning_cjs(dims, 100 * i) for i, dims in enumerate(spec.parties)]
    products = [functools.reduce(np.kron, combo) for combo in itertools.product(*sets)]
    pinvs = [np.linalg.pinv(np.array([m.conj().ravel() for m in cjs])) for cjs in sets]

    def distance(w):
        gaps = np.array([1.0 - np.trace(w @ m).real for m in products])
        gaps = gaps.reshape([len(cjs) for cjs in sets])
        for axis, pinv in enumerate(pinvs):
            gaps = np.moveaxis(np.tensordot(pinv, gaps, axes=([1], [axis])), 0, axis)
        return np.linalg.norm(gaps)

    valid = functools.reduce(np.kron, [f for k, dims in enumerate(spec.parties)
                                       for f in (random_density(dims.d_in, k), np.eye(dims.d_out))])
    for seed in (0, 1):
        # a real combination of the products is orthogonal to the set's directions
        weights = np.random.default_rng(seed).standard_normal(len(products))
        direction = np.tensordot(weights, products, axes=1)
        direction /= np.linalg.norm(direction)
        for scale in (0.0, 0.9, 1.1, 1e3, 1e6):
            w = valid + scale * DEFAULT_TOL * direction
            oracle = np.linalg.eigvalsh(w)[0] >= -DEFAULT_TOL and distance(w) <= DEFAULT_TOL
            assert validate(ProcessMatrix(spec, w)).ok == oracle == (scale < 1)


@pytest.mark.parametrize("d_out", [1, 2, 3, 4])
@pytest.mark.parametrize("d_in", [1, 2, 3, 4])
def test_normalised_w_is_w1_tensor_identity_in_every_dimension(d_in, d_out):
    # The paper's theorem from validity's definition alone, with no L_V and no product
    # basis: move a random PSD W onto {Tr[W M_k] = 1} for a party's spanning CPTP CJs
    # M_k by the minimum-norm correction W' = W + A^+ (1 - A vec W), each row of A being
    # vec(M_k*) so that A vec W lists the Tr[W M_k]. Then W' = W1 (x) I with
    # W1 = Tr_out W' / d_out, and both validity oracles accept W' where it is PSD.
    dims = DimensionPair(d_in, d_out)
    a = np.array([m.conj().ravel() for m in _spanning_cjs(dims, 0)])
    pinv = np.linalg.pinv(a)
    for seed in range(3):
        scale = d_out * np.random.default_rng(seed).uniform(0.5, 2.0)  # Tr W, not d_out
        w = scale * random_density(dims.total, seed)
        corrected = (w.ravel() + pinv @ (1.0 - a @ w.ravel())).reshape(w.shape)
        w1 = partial_trace(corrected, [d_in, d_out], keep={0}) / d_out
        deviation = np.linalg.norm(corrected - kron(w1, np.eye(d_out)))
        assert deviation <= 1e-10 * np.linalg.norm(corrected)
        if np.linalg.eigvalsh(corrected)[0] >= -DEFAULT_TOL:
            w = single_party(d_in, d_out, corrected)
            assert validate(w).ok and projection_oracle(w).certified
