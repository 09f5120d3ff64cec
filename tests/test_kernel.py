"""The factorised product-basis kernel against its materialised references,
and the validity and reduction oracles against each other at the tolerance.

Property tests draw their inputs with hypothesis; ``derandomize`` and no
example database keep every run on the same examples.
"""

import itertools
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtool.linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
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
    reference_cptp_cj,
    single_party,
    validate,
)
from pmtool.reduction import (
    appendix_constraint_sum,
    constraint_sum_single,
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
    """Each entry is Tr[W (S_1[a_1] (x) ... (x) S_n[a_n])] with the product built by
    ``kron_all``. First a fixed three-factor case as drawn; then 1-6 factors, factor
    dimension 1, one-element stacks, Hermitian and complex non-Hermitian stacks, and
    W contiguous, transposed or in Fortran order, with W and every stack element
    scaled to unit Frobenius norm so each entry is at most 1 and 1e-13 stays tight."""
    stacks = [np.stack([random_hermitian(d, 10 * d + k) for k in range(m)])
              for d, m in ((2, 3), (3, 2), (2, 4))]
    w = random_hermitian(12, 0) + 0.3j * random_hermitian(12, 1)
    values = product_expectations(w, stacks)
    assert values.shape == (3, 2, 4)
    for index in itertools.product(*(range(len(s)) for s in stacks)):
        op = kron_all(s[a] for s, a in zip(stacks, index))
        assert abs(values[index] - np.trace(w @ op)) <= 1e-13

    rng = np.random.default_rng(0)

    def unit(m):
        return m / np.linalg.norm(m, axis=(-2, -1), keepdims=True)

    def complex_normal(*shape):
        return unit(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    cases = (  # (d_k, m_k) for each factor
        ((2, 3), (3, 2), (2, 4)),
        ((1, 1),),
        ((3, 1),),
        ((1, 2), (2, 1), (1, 3)),
        ((2, 1), (1, 1), (3, 2), (1, 1)),
        ((2, 2), (1, 3), (2, 1), (2, 2), (1, 1)),
        ((2, 2),) * 6,
    )
    for seed, case in enumerate(cases):
        total = math.prod(d for d, _ in case)
        w = complex_normal(total, total)
        hermitian = [unit(np.stack([random_hermitian(d, 10 * seed + k) for k in range(m)]))
                     for d, m in case]
        general = [complex_normal(m, d, d) for d, m in case]
        for stacks in (hermitian, general):
            for matrix in (w, w.T, np.asfortranarray(w)):
                values = product_expectations(matrix, stacks)
                assert values.shape == tuple(m for _, m in case)
                for index in itertools.product(*(range(m) for _, m in case)):
                    op = kron_all(s[a] for s, a in zip(stacks, index))
                    assert abs(values[index] - np.trace(matrix @ op)) <= 1e-13


@pytest.mark.parametrize("d_in, d_out", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (2, 2),
                                         (4, 4), (8, 8)])
def test_single_party_certifier_matches_partial_trace_and_kron(d_in, d_out):
    """The certifier's W_1 and residual, read off W's (d_in, d_out, d_in, d_out)
    view, against ``partial_trace`` and the materialised W_1 (x) I from
    ``kron_all``: Hermitian and complex non-Hermitian W of unit Frobenius norm,
    and a valid rho (x) I plus 1e-10 of Hermitian noise, whose residual a
    difference of squared norms would lose to cancellation; each passed
    contiguous, transposed and in Fortran order."""
    total = d_in * d_out
    rng = np.random.default_rng(total)
    general = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    noise = random_hermitian(total, total + 1)
    valid = kron(random_density(d_in, total), np.eye(d_out))
    inputs = [m / np.linalg.norm(m) for m in (random_hermitian(total, total), general)]
    for w in inputs + [valid + 1e-10 * noise / np.linalg.norm(noise)]:
        for matrix in (w, w.T, np.asfortranarray(w)):
            report = projection_oracle(single_party(d_in, d_out, matrix))
            w1 = partial_trace(matrix, [d_in, d_out], keep={0}) / d_out
            off = np.linalg.norm(matrix - kron_all([w1, np.eye(d_out)]))
            trace_gap = (np.trace(matrix).real - d_out) / math.sqrt(total)
            assert np.max(np.abs(report.w1 - w1)) <= 1e-13
            assert abs(report.residual - math.hypot(off, trace_gap)) <= 1e-13


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


@pytest.mark.parametrize("dims", [((2, 2),), ((2, 3), (3, 2)), ((1, 2), (2, 1)), ((2, 2),) * 3])
def test_validate_labels_each_violated_constraint_in_index_order(dims):
    """validate's constraint rows are, in order, (constraint_label(spec, i), residual_i)
    for every i with residual_i > tol ||C_i||_F, both on a random W and on a valid W
    moved by tol times a random Hermitian, which meets some constraints and breaks others."""
    spec = PartySpec(tuple(DimensionPair(a, b) for a, b in dims))
    norms = np.ones(1)
    for party in spec.parties:  # ||C||_F: the reference CJ's norm, or 1 for a direction
        party_norms = np.ones(1 + party.d_in**2 * (party.d_out**2 - 1))
        party_norms[0] = np.linalg.norm(reference_cptp_cj(party).matrix)
        norms = np.outer(norms, party_norms).ravel()
    valid = kron_all(kron(random_density(p.d_in, 7), np.eye(p.d_out)) for p in spec.parties)
    noise = random_hermitian(spec.total_dim, 8)
    for m, all_broken in ((noise, True), (valid + DEFAULT_TOL * noise, False)):
        w = ProcessMatrix(spec, m)
        values, expected = normalization_values(w)
        residual = np.abs(values - expected)
        over = np.flatnonzero(residual > DEFAULT_TOL * norms)
        want = [(constraint_label(spec, i), float(residual[i])) for i in over]
        rows = [row for row in validate(w).violated_constraints if row[0].startswith("P0:")]
        assert rows == want
        assert len(want) == len(values) if all_broken else 0 < len(want) < len(values)


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


SINGLE_ROWS = list(itertools.product("xyz", "xyz", ("m=s", "m=0")))


@PROPERTY
@given(SEEDS, st.sampled_from(list(itertools.product("1xyz", repeat=2))),
       st.sampled_from([1e-12, -3.5e-10, 1.5e-9, -1e-6, 1e-3]))
def test_reduce_single_qubit_records_match_constraint_sums(seed, word, eps):
    # A random Hermitian W violates all 18 sums, in (alpha, beta, rule) order.
    w = single_party(2, 2, random_hermitian(4, seed))
    records = [v for v in reduce_single_qubit(w).violations
               if v.coefficient_label.startswith("w_")]
    assert len(records) == len(SINGLE_ROWS)
    for rec, row in zip(records, SINGLE_ROWS):
        want = constraint_sum_single(w, *row)
        assert rec.description == want.description
        assert rec.coefficient_label == want.coefficient_label
        assert abs(rec.lhs_value - want.lhs_value) <= 1e-12
        assert abs(rec.coefficient_value - want.coefficient_value) <= 1e-12
    # Off the valid set by eps sigma-word, 2 |eps| away from tol sqrt(2) by a
    # factor of 2 or more, exactly the rows whose reference sum is off are listed.
    w = single_party(2, 2, kron(random_density(2, seed), np.eye(2)) + eps * pauli_word(word))
    listed = [v.description for v in reduce_single_qubit(w).violations
              if v.coefficient_label.startswith("w_")]
    off = [want.description for want in (constraint_sum_single(w, *row) for row in SINGLE_ROWS)
           if abs(want.lhs_value - 1.0) > DEFAULT_TOL * np.sqrt(2)]
    assert listed == off
    for d in (4, 3):
        with pytest.raises(DimensionMismatchError):
            reduce_single_qubit(single_party(d, d, np.eye(d * d) / d))


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


def test_trace_shift_is_rejected_by_every_oracle():
    # Residual ||W - W1 (x) I|| and Tr W1 - 1 are 0.9 tol each, so each alone
    # is within tol, but W's distance to the valid set is 0.9 sqrt(2) tol.
    shift = 0.45 * DEFAULT_TOL * (np.eye(4) + pauli_word("zz"))
    w = single_party(2, 2, kron(random_density(2, 0), np.eye(2)) + shift)
    report = validate(w)
    assert report.distance == pytest.approx(0.9e-9 * np.sqrt(2), rel=1e-6)
    assert not report.ok
    assert report.violated_constraints == (("distance", report.distance),)
    assert not any(_certificates(w))


@pytest.mark.parametrize("block, lowest", [(0, -0.5), (1, -1.2)])
def test_spectrum_of_w_decides_every_oracle(block, lowest):
    # W1 = diag(1 + tol/2, -tol/2) is PSD within tol and W is 0.99 tol from the
    # valid set. A Z on W's input block |0> leaves its lowest eigenvalue at
    # -tol/2; on block |1> it moves it to -1.2 tol.
    tol = DEFAULT_TOL
    block_z = kron(np.diag(np.eye(2)[block]), pauli_word("z"))
    w = single_party(2, 2, kron(np.diag([1 + tol / 2, -tol / 2]), np.eye(2)) + 0.7 * tol * block_z)
    report = validate(w)
    assert report.normalization_ok and report.min_eigenvalue == pytest.approx(lowest * tol)
    projection = projection_oracle(w)
    assert projection.w1_psd
    rows = [(v.coefficient_label, v.lhs_value) for v in projection.violations]
    assert rows == ([] if lowest >= -1 else [("min_eigenvalue", pytest.approx(lowest * tol))])
    verdicts = _certificates(w) + [report.ok]
    assert all(verdicts) if lowest >= -1 else not any(verdicts)


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
    # subspace, so W is scale * tol from the valid set: within tol every
    # oracle certifies, beyond it every oracle rejects.
    d = 2**n
    r = _swap_direction(d) if direction_seed is None else _random_direction(d, direction_seed)
    w = single_party(d, d, kron(random_density(d, seed), np.eye(d)) + scale * DEFAULT_TOL * r)
    verdicts = _certificates(w) + [validate(w).ok]
    assert all(verdicts) if scale <= 0.9 else not any(verdicts)


def _dephase(m, dims, k):
    """Tr_k m (x) I_k / d_k, the identity back in factor k's place."""
    n = len(dims)
    reduced = np.trace(m.reshape(dims + dims), axis1=k, axis2=n + k) / dims[k]
    t = np.moveaxis(np.multiply.outer(reduced, np.eye(dims[k])), (-2, -1), (k, n + k))
    return t.reshape(m.shape)


def _araujo_projector(m, spec):
    """L_V m, L_V = 1 - (x)_i (1 - _{O_i} + _{I_i O_i}) + (x)_i _{I_i O_i} with
    _X m = Tr_X m (x) I_X / d_X (Araujo et al., NJP 17, 102001), party by party."""
    factors = spec.factor_dims
    v = u = m
    for k in range(1, len(factors), 2):  # party k // 2: input factor k - 1, output k
        out = _dephase(v, factors, k)
        v = v - out + _dephase(out, factors, k - 1)
        u = _dephase(_dephase(u, factors, k), factors, k - 1)
    return m - v + u


SMALL_PARTY_DIMS = (
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
    .filter(lambda dims: np.prod([a * b for a, b in dims]) <= 64)
)


@PROPERTY
@given(SMALL_PARTY_DIMS, SEEDS)
def test_validate_distance_is_the_araujo_projector_distance(dims, seed):
    spec = PartySpec(tuple(DimensionPair(a, b) for a, b in dims))
    m, other = random_hermitian(spec.total_dim, seed), random_hermitian(spec.total_dim, seed + 1)
    projected = _araujo_projector(m, spec)
    assert np.max(np.abs(_araujo_projector(projected, spec) - projected)) <= 1e-12
    assert abs(np.vdot(other, projected) - np.vdot(_araujo_projector(other, spec), m)) <= 1e-10
    values, expected = normalization_values(ProcessMatrix(spec, projected))
    assert np.max(np.abs(values[expected == 0]), initial=0.0) <= 1e-10

    w = ProcessMatrix(spec, m)
    trace_gap = np.trace(m).real - spec.d_out_product
    want = np.hypot(np.linalg.norm(m - projected), trace_gap / np.sqrt(spec.total_dim))
    distance = validate(w).distance
    assert distance == pytest.approx(want, rel=1e-10, abs=1e-12)
    if len(dims) == 1:
        assert projection_oracle(w).residual == pytest.approx(distance, rel=1e-10, abs=1e-12)


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
