"""The factorised product-basis kernel against its materialised references.

Property tests draw their inputs with hypothesis; ``derandomize`` and no
example database keep every run on the same examples.
"""

import itertools
import json
import re
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtool.linalg import (
    DimensionPair,
    kron,
    kron_all,
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
