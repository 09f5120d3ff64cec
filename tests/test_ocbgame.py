import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from pmtool.channels import KrausFamily, cj_of_kraus, is_cptp, random_cptp
from pmtool.linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    DimensionPair,
    basis_state,
    kron,
    min_eigenvalue,
    pauli_eigenvector,
    projector,
    random_density,
    random_hermitian,
)
from pmtool.ocbgame import (
    CausalStrategy,
    ETA_STATES,
    P_GAME_QUANTUM,
    build_w_ocb,
    causal_bound_details,
    evaluate_game,
    evaluate_strategy,
)
from pmtool.process import PartySpec, ProcessMatrix, validate
from reference import alice_cj, bob_cj, outcome_probability, random_state

KET0 = basis_state(0)


def test_w_ocb_trace_and_spectrum():
    w = build_w_ocb()
    assert np.trace(w.matrix).real == pytest.approx(4.0, abs=1e-14)
    # the two non-identity Pauli words anticommute, so eigenvalues are {1/2, 0}
    eigs = np.linalg.eigvalsh(w.matrix)
    assert min_eigenvalue(w.matrix) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sorted(eigs), [0.0] * 8 + [0.5] * 8, atol=1e-12)


def test_w_ocb_is_built_once_and_read_only():
    w = build_w_ocb()
    assert build_w_ocb() is w
    with pytest.raises(ValueError):
        w.matrix[0, 0] = 0


def test_w_ocb_is_valid():
    assert validate(build_w_ocb(), tol=1e-10).ok


def test_alice_cj():
    p0, p1 = projector(basis_state(0)), projector(basis_state(1))
    assert np.allclose(alice_cj(0, 0).matrix, kron(p0, p0))
    assert np.allclose(alice_cj(0, 1).matrix, kron(p1, p0))
    for a in (0, 1):
        total = sum(alice_cj(a, x).matrix for x in (0, 1))
        reduced = total.reshape(2, 2, 2, 2)
        # summed over outcomes the map is CPTP: Tr_out CJ = I
        assert np.allclose(np.einsum("iaja->ij", reduced), np.eye(2), atol=1e-14)


def test_bob_cj():
    p0, p1 = projector(basis_state(0)), projector(basis_state(1))
    plus = projector(pauli_eigenvector("x", 0))
    assert np.allclose(bob_cj(0, 1, 0, KET0).matrix, kron(p0, p0))
    assert np.allclose(bob_cj(1, 0, 0, KET0).matrix, kron(plus, p1))
    for b, bp in itertools.product((0, 1), repeat=2):
        total = sum(bob_cj(b, bp, y, KET0).matrix for y in (0, 1))
        reduced = total.reshape(2, 2, 2, 2)
        assert np.allclose(np.einsum("iaja->ij", reduced), np.eye(2), atol=1e-14)


def test_bob_cj_rejects_non_unit_eta():
    with pytest.raises(ValueError):
        bob_cj(0, 1, 0, np.array([1.0, 1.0]))


def test_outcomes_normalize_per_setting():
    w = build_w_ocb()
    for a, b, bp in itertools.product((0, 1), repeat=3):
        total = sum(
            outcome_probability(w, a, b, bp, x, y, KET0)
            for x in (0, 1)
            for y in (0, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_game_value_matches_quantum_score():
    start = time.perf_counter()
    result = evaluate_game(build_w_ocb(), KET0)
    assert time.perf_counter() - start < 1.0
    assert result.p_ocb == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)
    assert result.p_ocb == pytest.approx(P_GAME_QUANTUM, abs=1e-12)
    assert result.p_ocb == pytest.approx((result.p_guess_a + result.p_guess_b) / 2)
    assert 0 <= result.p_guess_a <= 1 + 1e-9
    assert 0 <= result.p_guess_b <= 1 + 1e-9


def test_game_value_identity_w():
    spec = PartySpec((DimensionPair(2, 2), DimensionPair(2, 2)))
    w = ProcessMatrix(spec, np.eye(16, dtype=complex) / 4)
    result = evaluate_game(w, KET0)
    assert result.p_guess_b == pytest.approx(0.5, abs=1e-12)
    assert result.p_guess_a == pytest.approx(0.5, abs=1e-12)
    assert result.p_ocb == pytest.approx(0.5, abs=1e-12)


def test_game_value_is_eta_independent():
    w = build_w_ocb()
    reference = evaluate_game(w, ETA_STATES["0"]).p_ocb
    for name in ("1", "plus", "iplus"):
        assert evaluate_game(w, ETA_STATES[name]).p_ocb == pytest.approx(
            reference, abs=1e-12
        )


def _game_by_outcome_loop(w, eta):
    """The score as 16 instrument-level ``outcome_probability`` calls."""
    p_guess_b = p_guess_a = 0.0
    for a in (0, 1):
        for b in (0, 1):
            for y in (0, 1):
                p_guess_b += outcome_probability(w, a, b, 0, x=b, y=y, eta=eta) / 4
            for x in (0, 1):
                p_guess_a += outcome_probability(w, a, b, 1, x=x, y=a, eta=eta) / 4
    return p_guess_b, p_guess_a


TWO_QUBIT_PARTIES = PartySpec((DimensionPair(2, 2), DimensionPair(2, 2)))
GAME_INPUTS = {
    "w_ocb": build_w_ocb().matrix,
    "identity": np.eye(16, dtype=complex) / 4,
    **{f"hermitian-{seed}": random_hermitian(16, seed) for seed in (0, 1, 2)},
}


@pytest.mark.parametrize("eta", sorted(ETA_STATES))
@pytest.mark.parametrize("name", sorted(GAME_INPUTS))
def test_game_contraction_matches_outcome_loop(name, eta):
    w = ProcessMatrix(TWO_QUBIT_PARTIES, GAME_INPUTS[name])
    result = evaluate_game(w, ETA_STATES[eta])
    p_guess_b, p_guess_a = _game_by_outcome_loop(w, ETA_STATES[eta])
    assert result.p_guess_b == pytest.approx(p_guess_b, abs=1e-12)
    assert result.p_guess_a == pytest.approx(p_guess_a, abs=1e-12)
    assert result.p_ocb == pytest.approx((p_guess_b + p_guess_a) / 2, abs=1e-12)


def test_game_rejects_non_unit_eta():
    with pytest.raises(ValueError, match="unit"):
        evaluate_game(build_w_ocb(), np.array([1.0, 1.0]))


def test_game_rejects_other_party_dims():
    # 16x16 like W_OCB, but Alice is a (4, 1) party
    spec = PartySpec((DimensionPair(4, 1), DimensionPair(2, 2)))
    with pytest.raises(DimensionMismatchError):
        evaluate_game(ProcessMatrix(spec, np.eye(16, dtype=complex) / 4), KET0)
    with pytest.raises(DimensionMismatchError):  # a unit qutrit eta
        evaluate_game(build_w_ocb(), basis_state(0, 3))


def test_game_rejects_imaginary_probabilities():
    # Tr[(W + i c I) P] = Tr[W P] + i c for every product of unit projectors P
    w = ProcessMatrix(TWO_QUBIT_PARTIES, build_w_ocb().matrix + 1e-6j * np.eye(16))
    with pytest.raises(ValueError, match="imaginary"):
        evaluate_game(w, KET0)


def test_strategy_cjs_are_cptp():
    # Alice's outcome-summed map for each a is the CPTP measure-and-prepare
    # channel with Kraus operators |a><x|.
    dims = DimensionPair(2, 2)
    for a in (0, 1):
        branch_kraus = tuple(
            np.outer(basis_state(a), basis_state(x).conj()) for x in (0, 1)
        )
        family = KrausFamily(dims, branch_kraus)
        assert is_cptp(family, tol=1e-14)
        assert np.allclose(
            cj_of_kraus(family).matrix,
            sum(alice_cj(a, x).matrix for x in (0, 1)),
            atol=1e-14,
        )


def test_evaluate_strategy_exact_example():
    # x constant, message carries a, Bob echoes the message when b'=1
    strategy = CausalStrategy(
        order="A_before_B",
        first_output=(0, 0),
        message=(0, 1),
        second_output={
            (b, bp, m): (m if bp == 1 else 0)
            for b in (0, 1)
            for bp in (0, 1)
            for m in (0, 1)
        },
    )
    assert evaluate_strategy(strategy) == Fraction(3, 4)


def test_evaluate_strategy_rejects_an_unknown_order():
    strategy = CausalStrategy("A_with_B", (0, 0), (0, 0), {})
    with pytest.raises(ValueError, match="unknown order 'A_with_B'"):
        evaluate_strategy(strategy)


def test_causal_bound_is_three_quarters_exactly():
    start = time.perf_counter()
    details = causal_bound_details()
    assert time.perf_counter() - start < 1.0
    assert details.bound == Fraction(3, 4)
    assert details.a_before_b == Fraction(3, 4)
    assert details.b_before_a == Fraction(3, 4)
    assert details.b_before_a_two_bit == Fraction(3, 4)
    assert float(details.bound) == 0.75
    assert evaluate_strategy(details.best_strategy) == Fraction(3, 4)
    assert details.best_strategy.order == "A_before_B"


def _tables(keys, alphabet):
    """All functions from keys to alphabet, as dicts."""
    keys = list(keys)
    return [dict(zip(keys, values))
            for values in itertools.product(alphabet, repeat=len(keys))]


def _brute_force_max(order, n_msg):
    """Best score over every deterministic strategy of one causal order."""
    bits, msgs = (0, 1), range(n_msg)
    pairs = list(itertools.product(bits, bits))
    if order == "A_before_B":
        tables = (_tables(bits, bits), _tables(bits, msgs),
                  _tables(itertools.product(bits, bits, msgs), bits))
    else:
        tables = (_tables(pairs, bits), _tables(pairs, msgs),
                  _tables(itertools.product(bits, msgs), bits))
    return max(evaluate_strategy(CausalStrategy(order, f, g, h))
               for f, g, h in itertools.product(*tables))


def test_causal_bound_matches_exhaustive_enumeration():
    details = causal_bound_details()
    assert details.a_before_b == _brute_force_max("A_before_B", 2)
    assert details.b_before_a == _brute_force_max("B_before_A", 2)
    assert details.no_communication == max(
        _brute_force_max(order, 1) for order in ("A_before_B", "B_before_A")
    )


@pytest.mark.parametrize("order", ["A_before_B", "B_before_A"])
def test_causal_bound_matches_the_one_way_no_signalling_lp(order):
    # The best score over every normalized p(x, y | a, b, b') that lets no
    # signal pass from the second party to the first (Branciard et al., NJP
    # 18, 013008): shared randomness and unbounded one-way communication.
    linprog = pytest.importorskip("scipy.optimize").linprog
    x, y, a, b, b_prime = np.indices((2,) * 5)
    score = np.where(b_prime == 0, x == b, y == a) / 8  # uniform a, b, b'
    setting = 4 * a + 2 * b + b_prime
    # The first party's outcome and input, and the second party's input.
    out, inp, other = (x, a, 2 * b + b_prime) if order == "A_before_B" else (y, 2 * b + b_prime, a)
    rows = [setting == s for s in range(8)] + [
        ((out == o) & (inp == i) & (other == s)).astype(float) - ((out == o) & (inp == i) & (other == 0))
        for o, i, s in itertools.product(np.unique(out), np.unique(inp), np.unique(other)[1:])
    ]
    result = linprog(-score.ravel(), A_eq=np.array([r.ravel() for r in rows], dtype=float),
                     b_eq=[1.0] * 8 + [0.0] * (len(rows) - 8), bounds=(0, None), method="highs")
    assert result.status == 0
    assert -result.fun == pytest.approx(float(causal_bound_details().bound), abs=1e-9)


def test_no_communication_bound():
    # With a trivial message alphabet neither output can correlate with the
    # other laboratory's input, so the enumerated maximum is 1/2.
    assert causal_bound_details().no_communication == Fraction(1, 2)


def test_quantum_score_violates_causal_bound():
    assert evaluate_game(build_w_ocb()).p_ocb > float(causal_bound_details().bound)


def causally_ordered_pair(seed):
    """W^{A<B} = rho_{A_I} (x) C_T (x) I_{B_O}, C_T = sum_ij |i><j| (x) T(|i><j|) the
    untransposed Choi matrix of a random channel T from A_O to B_I, and its mirror
    W^{B<A}: the same factors on (B_I, B_O, A_I, A_O)."""
    ops = np.stack(random_cptp(DimensionPair(2, 2), 2, seed).operators)
    choi = np.einsum("kai,kbj->iajb", ops, ops.conj()).reshape(4, 4)
    a_before_b = kron(kron(random_density(2, seed + 1), choi), np.eye(2))
    # row and column axes (A_I, A_O, B_I, B_O) each; B's pair moves first
    b_before_a = a_before_b.reshape((2,) * 8).transpose(2, 3, 0, 1, 6, 7, 4, 5).reshape(16, 16)
    return a_before_b, b_before_a


def test_causally_ordered_w_never_beats_the_causal_bound():
    bound = float(causal_bound_details().bound)
    spec = PartySpec((DimensionPair(2, 2), DimensionPair(2, 2)))
    for seed in range(20):
        a_before_b, b_before_a = causally_ordered_pair(seed)
        etas = list(ETA_STATES.values()) + [random_state(2, seed + 2)]
        for p in (1.0, 0.0, 1 / 3, 2 / 3):  # each order, then two convex mixtures
            w = ProcessMatrix(spec, p * a_before_b + (1 - p) * b_before_a)
            assert validate(w).ok
            for eta in etas:
                assert evaluate_game(w, eta).p_ocb <= bound + DEFAULT_TOL


def test_causal_bound_details_computed_once():
    assert causal_bound_details() is causal_bound_details()
