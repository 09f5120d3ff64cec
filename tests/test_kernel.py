"""The factorised product-basis kernel against its materialised references,
and the validity and reduction oracles against each other at the tolerance.

Property tests draw their inputs with hypothesis; ``derandomize`` and no
example database keep every run on the same examples.
"""

import itertools
import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtool.linalg import (
    DEFAULT_TOL,
    DimensionPair,
    NonHermitianError,
    kron,
    kron_all,
    partial_trace,
    pauli_word,
    product_expectations,
    random_density,
    random_hermitian,
)
from pmtool.process import (
    PartySpec,
    ProcessMatrix,
    constraint_label,
    normalization_constraints,
    normalization_values,
    single_party,
    validate,
)
from pmtool.reduction import (
    appendix_constraint_sum,
    pauli_coefficient,
    pauli_decompose,
    projection_oracle,
    reduce_multiqubit,
    reduce_single_qubit,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def _reference_size(dims) -> int:
    """Complex entries held by the materialised constraint list."""
    count = np.prod([1 + a * a * (b * b - 1) for a, b in dims])
    return int(count * np.prod([a * b for a, b in dims]) ** 2)


PARTY_DIMS = (
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
    .filter(lambda dims: _reference_size(dims) <= 2_000_000)
)


def test_product_expectations_matches_kron():
    stacks = [np.stack([random_hermitian(d, 10 * d + k) for k in range(m)])
              for d, m in ((2, 3), (3, 2), (2, 4))]
    w = random_hermitian(12, 0) + 0.3j * random_hermitian(12, 1)
    values = product_expectations(w, stacks)
    assert values.shape == (3, 2, 4)
    for index in itertools.product(*(range(len(s)) for s in stacks)):
        op = kron_all(s[a] for s, a in zip(stacks, index))
        assert abs(values[index] - np.trace(w @ op)) <= 1e-13


@PROPERTY
@given(PARTY_DIMS, SEEDS)
def test_constraint_values_match_materialised_constraints(dims, seed):
    spec = PartySpec(tuple(DimensionPair(a, b) for a, b in dims))
    w = ProcessMatrix(spec, random_hermitian(spec.total_dim, seed))
    values, expected = normalization_values(w)
    reference = normalization_constraints(spec)
    assert len(values) == len(reference)
    for index, (label, matrix, want) in enumerate(reference):
        assert constraint_label(spec, index) == label
        assert expected[index] == want
        assert abs(values[index] - np.trace(w.matrix @ matrix)) <= 1e-12


@PROPERTY
@given(st.integers(1, 2), SEEDS)
def test_pauli_decompose_matches_pauli_coefficient(n, seed):
    h = random_hermitian(4**n, seed)
    decomp = pauli_decompose(single_party(2**n, 2**n, h))
    assert len(decomp.coefficients) == 16**n
    for word, value in decomp.coefficients.items():
        assert abs(value - pauli_coefficient(h, word)) <= 1e-13


@PROPERTY
@given(st.integers(1, 3), SEEDS, st.sampled_from([0.0, 1e-6, 1e-3, 0.05]), SEEDS)
def test_constructive_and_projection_oracles_agree(n, seed, eps, word_seed):
    d = 2**n
    rng = np.random.default_rng(word_seed)
    word = tuple(rng.choice(list("1xyz"), size=2 * n))
    m = kron(random_density(d, seed), np.eye(d)) + eps * pauli_word(word)
    w = single_party(d, d, m)
    constructive = reduce_single_qubit(w) if n == 1 else reduce_multiqubit(w)
    assert constructive.certified == projection_oracle(w).certified == validate(w).ok


def _parity_arguments(description):
    """(alphas, betas, xi_support, eta_support) as a parity record spells them."""
    m = re.fullmatch(r"alphas=(\w+), betas=(\w+), xi_support=(\[.*\]), eta_support=(\[.*\])",
                     description)
    return m[1], m[2], json.loads(m[3]), json.loads(m[4])


@PROPERTY
@given(st.integers(1, 3), SEEDS, st.data())
def test_reduce_multiqubit_records_match_appendix_sums(n, seed, data):
    # Every output-touching sum is violated on a random Hermitian W. All are
    # checked against the instrument-level sum for n <= 2; at n = 3 a drawn
    # 128 of the 4032 keep the test short.
    w = single_party(2**n, 2**n, random_hermitian(4**n, seed))
    records = [v for v in reduce_multiqubit(w).violations
               if v.coefficient_label.startswith("w_")]
    assert len(records) == 4**n * (4**n - 1)
    if n == 3:
        records = data.draw(st.lists(st.sampled_from(records), min_size=128, max_size=128))
    for rec in records:
        want = appendix_constraint_sum(w, *_parity_arguments(rec.description))
        assert rec.description == want.description
        assert rec.coefficient_label == want.coefficient_label
        assert abs(rec.lhs_value - want.lhs_value) <= 1e-12
        assert abs(rec.coefficient_value - want.coefficient_value) <= 1e-12


def test_256_by_256_inputs_finish():
    start = time.perf_counter()
    rho = random_density(16, 0)
    four_qubits = single_party(16, 16, kron(rho, np.eye(16)))
    assert validate(four_qubits).ok
    assert projection_oracle(four_qubits).certified
    assert reduce_multiqubit(four_qubits).certified
    bad = single_party(16, 16, four_qubits.matrix + 1e-3 * pauli_word("1zx1" + "y11z"))
    assert not validate(bad).ok
    assert not projection_oracle(bad).certified
    assert not reduce_multiqubit(bad).certified

    qubit_parties = PartySpec((DimensionPair(2, 2),) * 4)
    factors = [f for k in range(4) for f in (random_density(2, k), np.eye(2))]
    assert validate(ProcessMatrix(qubit_parties, kron_all(factors))).ok
    assert time.perf_counter() - start < 60.0


def _swap_direction(d):
    """(SWAP - I/d) / sqrt(d^2 - 1): unit Frobenius norm, Tr_out of it is 0."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return (swap - np.eye(d * d) / d) / np.sqrt(d * d - 1)


def _random_direction(d, seed):
    """A random Hermitian direction of unit Frobenius norm with Tr_out of it 0."""
    r = random_hermitian(d * d, seed)
    r -= kron(partial_trace(r, [d, d], keep={0}), np.eye(d)) / d
    return r / np.linalg.norm(r)


def _certificates(w):
    """Certificates of the reduction oracles that take W's dimensions."""
    reports = [projection_oracle(w), reduce_multiqubit(w)]
    if w.spec.parties[0].d_in == 2:
        reports.append(reduce_single_qubit(w))
    return [report.certified for report in reports]


def test_swap_perturbation_within_tol_is_certified_by_every_oracle():
    # 0.8 tol from rho (x) I in Frobenius norm; its reference-CJ residual
    # 0.8 tol sqrt(3) exceeds tol but not tol ||SWAP||_F = 2 tol.
    w = single_party(2, 2, kron(random_density(2, 0), np.eye(2))
                     + 0.8 * DEFAULT_TOL * _swap_direction(2))
    report = validate(w)
    assert report.ok and report.violated_constraints == ()
    assert report.worst_residual == pytest.approx(0.8e-9 * np.sqrt(3), rel=1e-6)
    assert all(_certificates(w))


@PROPERTY
@given(st.integers(1, 3), SEEDS, st.floats(0.0, 2.0).filter(lambda s: not 0.9 < s < 1.1),
       st.one_of(st.none(), SEEDS))
def test_oracles_agree_at_the_tolerance_scale(n, seed, scale, direction_seed):
    # W = rho (x) I + scale * tol * R, R of unit Frobenius norm off the W1 (x) I
    # subspace: within tol every oracle certifies, beyond it the reduction
    # oracles reject, and a projection certificate always implies validity.
    d = 2**n
    r = _swap_direction(d) if direction_seed is None else _random_direction(d, direction_seed)
    w = single_party(d, d, kron(random_density(d, seed), np.eye(d)) + scale * DEFAULT_TOL * r)
    certificates = _certificates(w)
    if scale <= 0.9:
        assert all(certificates) and validate(w).ok
    else:
        assert not any(certificates)
    assert validate(w).ok or not certificates[0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_pauli_coefficient_and_decompose_share_imaginary_bound(n, factor):
    # The imaginary part of a coefficient Tr(W sigma)/4^n may reach tol / 2^n.
    word = "z" * n + "x" * n
    h = kron(random_density(2**n, n), np.eye(2**n))
    w = h + 1j * factor * DEFAULT_TOL / 2**n * pauli_word(word)
    if factor < 1:
        pauli_coefficient(w, word)
        pauli_decompose(single_party(2**n, 2**n, w))
    else:
        with pytest.raises(NonHermitianError):
            pauli_coefficient(w, word)
        with pytest.raises(NonHermitianError):
            pauli_decompose(single_party(2**n, 2**n, w))
