import itertools

import numpy as np
import pytest

from pmtool import reduction
from pmtool.channels import KrausFamily, random_cp_map
from pmtool.linalg import (
    DimensionMismatchError,
    DimensionPair,
    basis_state,
    kron,
    pauli_word,
    random_density,
    random_hermitian,
)
from pmtool.process import single_party
from pmtool.reduction import (
    appendix_constraint_sum,
    born_equivalence,
    pauli_coefficient,
    pauli_decompose,
    projection_oracle,
    reduce_multiqubit,
    reduce_single_qubit,
)
from reference import random_state

PAULI_NONID = "xyz"


def rho_tensor_identity(rho):
    d = rho.shape[0]
    return single_party(d, d, kron(rho, np.eye(d)))


def single_qubit_sum(w, alpha, beta, rule):
    """The paper's single-qubit constraint sum: the appendix sum at n = 1, with
    xi_support [0] under the rule m=s and [] under m=0."""
    return appendix_constraint_sum(w, (alpha,), (beta,), [0] if rule == "m=s" else [], [0])


def perturbed(rho, word, eps):
    d = rho.shape[0]
    return single_party(d, d, kron(rho, np.eye(d)) + eps * pauli_word(word))


# ---------------------------------------------------------------- decompose


def test_decompose_maximally_mixed():
    decomp = pauli_decompose(rho_tensor_identity(np.eye(2) / 2))
    assert decomp.coefficients[("1", "1")] == pytest.approx(0.5)
    for word, coeff in decomp.coefficients.items():
        if word != ("1", "1"):
            assert coeff == pytest.approx(0.0, abs=1e-14)


def test_decompose_identity_coefficient_of_valid_w():
    for seed in range(5):
        decomp = pauli_decompose(rho_tensor_identity(random_density(2, seed)))
        assert decomp.coefficients[("1", "1")] == pytest.approx(0.5, abs=1e-13)


def test_decompose_single_word():
    w = single_party(2, 2, pauli_word("zx"))
    decomp = pauli_decompose(w)
    assert decomp.coefficients[("z", "x")] == pytest.approx(1.0)
    assert sum(abs(c) for c in decomp.coefficients.values()) == pytest.approx(1.0)


def test_decompose_round_trip():
    # sum_word c_word sigma_word without pauli_word's Kronecker products: each
    # letter axis of the coefficient tensor is contracted with the Pauli stack
    stack = np.stack([pauli_word(p) for p in "1xyz"])
    for n, seed in ((1, 0), (2, 1), (3, 2)):
        h = random_hermitian(4**n, seed)
        decomp = pauli_decompose(single_party(2**n, 2**n, h))
        t = np.zeros((4,) * 2 * n)
        for word, c in decomp.coefficients.items():
            t[tuple(map("1xyz".index, word))] = c
        for _ in range(2 * n):
            t = np.tensordot(t, stack, axes=([0], [0]))
        # axes are now (row_1, col_1, ..., row_2n, col_2n)
        rows_then_cols = list(range(0, 4 * n, 2)) + list(range(1, 4 * n, 2))
        rebuilt = t.transpose(rows_then_cols).reshape(4**n, 4**n)
        assert np.max(np.abs(rebuilt - h)) <= 1e-12
        assert len(decomp.coefficients) == 16**n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decompose_is_a_read_only_mapping(n):
    w = single_party(2**n, 2**n, random_hermitian(4**n, n))
    first = pauli_decompose(w).coefficients
    with pytest.raises(TypeError):
        first[("1",) * 2 * n] = 99.0
    with pytest.raises(TypeError):
        del first[("z",) * 2 * n]
    second = pauli_decompose(w).coefficients
    assert second == first
    assert list(second) == list(itertools.product("1xyz", repeat=2 * n))
    copy = dict(second.items())
    assert copy == dict(second)
    copy[("1",) * 2 * n] = 99.0
    assert copy != second
    assert pauli_decompose(w).coefficients == first


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decompose_items_match_the_transform_bit_for_bit(n):
    for seed in range(2):
        w = single_party(2**n, 2**n, random_hermitian(4**n, seed))
        values = reduction._pauli_coefficients(w).real.ravel().tolist()
        expected = dict(zip(itertools.product("1xyz", repeat=2 * n), values))
        coefficients = pauli_decompose(w).coefficients
        items = list(coefficients.items())
        assert [word for word, _ in items] == list(expected)
        bits = np.array([v for _, v in items]).view(np.uint64)
        assert np.array_equal(bits, np.array(list(expected.values())).view(np.uint64))
        looked_up = np.array([coefficients[word] for word in expected]).view(np.uint64)
        assert np.array_equal(looked_up, bits)


def test_decompose_rejects_keys_the_dict_did_not_hold():
    coefficients = pauli_decompose(rho_tensor_identity(np.eye(2) / 2)).coefficients
    for key in ("1z", ("1",), ("1", "q"), ("1", "z", "x")):
        with pytest.raises(KeyError):
            coefficients[key]
        assert key not in coefficients
        assert coefficients.get(key, "missing") == "missing"


def test_decompose_keeps_no_words(monkeypatch):
    generated, product = [], itertools.product

    def counting_product(*pools, repeat=1):
        generated.append(repeat)
        return product(*pools, repeat=repeat)

    monkeypatch.setattr(itertools, "product", counting_product)
    for n in range(1, 5):
        w = single_party(2**n, 2**n, random_hermitian(4**n, n + 2))
        values = tuple(reduction._pauli_coefficients(w).real.ravel().tolist())
        generated.clear()
        coefficients = pauli_decompose(w).coefficients
        assert generated == []  # making the mapping builds no word
        first, second = list(coefficients), list(coefficients)
        assert generated == [2 * n, 2 * n]
        assert first == second == list(product("1xyz", repeat=2 * n))
        assert not any(a is b for a, b in zip(first, second))  # generated anew, kept nowhere
        assert coefficients.values() == values
        assert coefficients == dict(zip(first, values))


def test_pauli_coefficient_rejects_a_word_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError, match=r"length 3 .* shape \(4, 4\)"):
        pauli_coefficient(np.eye(4), ("x", "y", "z"))


def test_decompose_rejects_non_power_of_two():
    with pytest.raises(DimensionMismatchError):
        pauli_decompose(single_party(3, 3, np.eye(9)))


# ------------------------------------------------------ single-qubit route


def test_constraint_sum_on_valid_w():
    w = rho_tensor_identity(random_density(2, 3))
    for alpha, beta in itertools.product(PAULI_NONID, repeat=2):
        for rule in ("m=s", "m=0"):
            rec = single_qubit_sum(w, alpha, beta, rule)
            assert rec.lhs_value == pytest.approx(1.0, abs=1e-12)
            assert rec.coefficient_value == pytest.approx(0.0, abs=1e-12)


def test_constraint_sum_localizes_zz():
    w = single_party(2, 2, np.eye(4) / 2 + 0.1 * pauli_word("zz"))
    rec = single_qubit_sum(w, "z", "z", "m=s")
    assert rec.lhs_value == pytest.approx(1.2, abs=1e-13)
    assert rec.coefficient_label == "w_z,z"
    assert rec.coefficient_value == pytest.approx(0.1, abs=1e-13)


def test_constraint_sum_localizes_1x():
    w = single_party(2, 2, np.eye(4) / 2 + 0.1 * pauli_word("1x"))
    rec = single_qubit_sum(w, "z", "x", "m=0")
    assert rec.lhs_value == pytest.approx(1.2, abs=1e-13)
    assert rec.coefficient_label == "w_1,x"
    assert rec.coefficient_value == pytest.approx(0.1, abs=1e-13)


def test_constraint_sum_algebra_on_arbitrary_hermitian():
    # lhs = 2 w_11 + 2 w_ab (m=s) and 2 w_11 + 2 w_1b (m=0) for any Hermitian W
    for seed in range(20):
        h = random_hermitian(4, seed)
        w = single_party(2, 2, h)
        w11 = pauli_coefficient(h, ("1", "1"))
        for alpha, beta in itertools.product(PAULI_NONID, repeat=2):
            rec_s = single_qubit_sum(w, alpha, beta, "m=s")
            rec_0 = single_qubit_sum(w, alpha, beta, "m=0")
            assert rec_s.lhs_value == pytest.approx(
                2 * w11 + 2 * pauli_coefficient(h, (alpha, beta)), abs=1e-12
            )
            assert rec_0.lhs_value == pytest.approx(
                2 * w11 + 2 * pauli_coefficient(h, ("1", beta)), abs=1e-12
            )


def test_appendix_rejects_empty_basis():
    w = rho_tensor_identity(random_density(2, 3))
    for beta in ("", "xy"):  # each basis is one letter
        with pytest.raises(ValueError, match="bases must be x, y or z"):
            appendix_constraint_sum(w, ("x",), (beta,), [0], [0])


def test_reduce_single_qubit_product_input():
    rho = np.eye(2) / 2 + 0.3 * pauli_word("z")
    report = reduce_single_qubit(rho_tensor_identity(rho))
    assert report.certified
    assert report.residual <= 1e-12
    assert np.max(np.abs(report.w1 - rho)) <= 1e-12
    assert report.w1_psd
    assert report.w1_trace == pytest.approx(1.0)


def test_reduce_single_qubit_maximally_mixed():
    report = reduce_single_qubit(rho_tensor_identity(np.eye(2) / 2))
    assert report.certified
    assert np.max(np.abs(report.w1 - np.eye(2) / 2)) <= 1e-13


def test_reduce_single_qubit_detects_perturbation():
    w = single_party(2, 2, np.eye(4) / 2 + 0.1 * pauli_word("zz"))
    report = reduce_single_qubit(w)
    assert not report.certified
    labels = {v.coefficient_label: v.coefficient_value for v in report.violations}
    assert labels["w_zz"] == pytest.approx(0.1, abs=1e-12)


def test_reduce_single_qubit_rejects_bad_trace():
    report = reduce_single_qubit(rho_tensor_identity(np.eye(2)))
    assert not report.certified
    assert any(v.coefficient_label == "trace" for v in report.violations)


# -------------------------------------------------------- appendix route


def test_appendix_on_valid_two_qubit_w():
    rho = kron(random_density(2, 0), random_density(2, 1))
    w = rho_tensor_identity(rho)
    for alphas in (("x", "y"), ("z", "z")):
        for betas in (("y", "x"), ("z", "y")):
            for xi_support in ([], [0], [1], [0, 1]):
                for eta_support in ([0], [1], [0, 1]):
                    rec = appendix_constraint_sum(
                        w, alphas, betas, xi_support, eta_support
                    )
                    assert rec.lhs_value == pytest.approx(1.0, abs=1e-11)
                    assert rec.coefficient_value == pytest.approx(0.0, abs=1e-11)


def test_appendix_localizes_coefficient():
    w = single_party(
        4, 4, np.eye(16) / 4 + 0.05 * pauli_word(("x", "1", "z", "1"))
    )
    rec = appendix_constraint_sum(w, ("x", "y"), ("z", "y"), [0], [0])
    assert rec.coefficient_value == pytest.approx(0.05, abs=1e-12)
    assert rec.coefficient_label == "w_x1,z1"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_appendix_operator_identity(n):
    # lhs = 2^n (w_identity + w_target) for arbitrary Hermitian W
    rng = np.random.default_rng(100 + n)
    for trial in range(5):
        h = random_hermitian(4**n, 1000 * n + trial)
        w = single_party(2**n, 2**n, h)
        alphas = tuple(rng.choice(list(PAULI_NONID)) for _ in range(n))
        betas = tuple(rng.choice(list(PAULI_NONID)) for _ in range(n))
        xi_support = [i for i in range(n) if rng.integers(2)]
        eta_support = [i for i in range(n) if rng.integers(2)] or [n - 1]
        rec = appendix_constraint_sum(w, alphas, betas, xi_support, eta_support)
        word = tuple(alphas[i] if i in xi_support else "1" for i in range(n)) + tuple(
            betas[i] if i in eta_support else "1" for i in range(n)
        )
        w_id = np.trace(h).real / 4**n
        w_target = pauli_coefficient(h, word)
        assert rec.lhs_value == pytest.approx(2**n * (w_id + w_target), abs=1e-11)
        assert rec.coefficient_value == pytest.approx(w_target, abs=1e-11)


def test_appendix_rejects_empty_eta_support():
    w = rho_tensor_identity(random_density(4, 2))
    with pytest.raises(ValueError):
        appendix_constraint_sum(w, ("x", "x"), ("x", "x"), [0], [])


def test_constraint_sums_check_rule_size_and_support():
    qubit = rho_tensor_identity(random_density(2, 3))
    two_qubits = rho_tensor_identity(random_density(4, 2))
    with pytest.raises(DimensionMismatchError, match="need 2 input and output bases"):
        appendix_constraint_sum(two_qubits, ("x",), ("x", "x"), [0], [0])
    with pytest.raises(ValueError, match="support index out of range"):
        appendix_constraint_sum(qubit, ("x",), ("z",), [1], [0])


# ------------------------------------------------------- multiqubit route


def test_reduce_multiqubit_product_recovery():
    for n, seed in ((1, 0), (2, 1), (3, 2)):
        rho = random_density(2**n, seed)
        report = reduce_multiqubit(rho_tensor_identity(rho))
        assert report.certified
        assert np.max(np.abs(report.w1 - rho)) <= 1e-10
        assert report.residual <= 1e-10


def test_reduce_multiqubit_detects_perturbation():
    rho = random_density(4, 5)
    w = perturbed(rho, ("z", "z", "z", "z"), 0.01)
    report = reduce_multiqubit(w)
    assert not report.certified
    hits = {
        v.coefficient_label: v.coefficient_value
        for v in report.violations
        if v.coefficient_label.startswith("w_")
    }
    assert hits["w_zz,zz"] == pytest.approx(0.01, abs=1e-11)


def test_reduce_multiqubit_localizes_three_qubit_word():
    w = perturbed(random_density(8, 7), ("y", "1", "z", "z", "y", "1"), 1e-3)
    report = reduce_multiqubit(w)
    assert not report.certified
    hits = {v.coefficient_label: v.coefficient_value for v in report.violations}
    assert hits["w_y1z,zy1"] == pytest.approx(1e-3, abs=1e-12)


def test_reduce_multiqubit_w1_matches_coefficient_reassembly():
    # partial-trace extraction agrees with reassembling input-only coefficients
    rho = random_density(4, 6)
    w = rho_tensor_identity(rho)
    report = reduce_multiqubit(w)
    rebuilt = np.zeros((4, 4), dtype=complex)
    for word in itertools.product("1xyz", repeat=2):
        coeff = pauli_coefficient(w.matrix, word + ("1", "1"))
        rebuilt += coeff * pauli_word(word)
    assert np.max(np.abs(report.w1 - rebuilt)) <= 1e-11


def test_reduce_multiqubit_agrees_with_single_qubit():
    for seed in range(50):
        rho = random_density(2, seed)
        if seed % 2:
            word = [("x", "y"), ("1", "z"), ("z", "x")][seed % 3]
            w = perturbed(rho, word, 1e-3)
        else:
            w = rho_tensor_identity(rho)
        assert (
            reduce_multiqubit(w).certified == reduce_single_qubit(w).certified
        )


def test_reduce_multiqubit_rejects_oversized():
    with pytest.raises(DimensionMismatchError):
        reduce_multiqubit(single_party(32, 32, np.eye(1024)))


# ------------------------------------------------------- projection oracle


def test_projection_oracle_qubit_and_qutrit():
    for d, seed in ((2, 0), (3, 1)):
        rho = random_density(d, seed)
        report = projection_oracle(rho_tensor_identity(rho))
        assert report.certified
        assert np.max(np.abs(report.w1 - rho)) <= 1e-12


def test_projection_oracle_rejects_perturbation():
    rho = random_density(2, 2)
    report = projection_oracle(perturbed(rho, ("x", "z"), 1e-3))
    assert not report.certified
    assert report.residual == pytest.approx(2e-3, abs=1e-12)  # eps ||X (x) Z||_F


# --------------------------------------------------------- Born equivalence


def test_born_equivalence_identity_channel():
    w1 = np.eye(2) / 2
    f = KrausFamily(DimensionPair(2, 2), (np.eye(2),))
    lhs, rhs = born_equivalence(w1, f, rho_tensor_identity(w1))
    assert lhs == pytest.approx(1.0, abs=1e-13)
    assert rhs == pytest.approx(1.0, abs=1e-13)


def test_born_equivalence_projective():
    psi = random_state(2, 3)
    eta = random_state(2, 4)
    w1 = np.outer(basis_state(0), basis_state(0).conj())
    f = KrausFamily(DimensionPair(2, 2), (np.outer(eta, psi.conj()),))
    lhs, rhs = born_equivalence(w1, f, rho_tensor_identity(w1))
    want = abs(psi.conj() @ basis_state(0)) ** 2
    assert lhs == pytest.approx(want, abs=1e-13)
    assert rhs == pytest.approx(want, abs=1e-13)


def test_born_equivalence_random_sweep():
    for seed in range(100):
        rho = random_density(2, seed)
        f = random_cp_map(DimensionPair(2, 2), 2, seed + 500)
        lhs, rhs = born_equivalence(rho, f, rho_tensor_identity(rho))
        assert abs(lhs - rhs) < 1e-10
