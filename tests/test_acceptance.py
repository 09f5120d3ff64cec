"""Acceptance suite: one pass/fail line per criterion, strict tolerances."""

import itertools
import time

import numpy as np

from pmtool.channels import random_cp_map
from pmtool.linalg import (
    DimensionPair,
    kron,
    min_eigenvalue,
    pauli_word,
    random_density,
    random_hermitian,
)
from pmtool.ocbgame import build_w_ocb, causal_bound_details, evaluate_game
from pmtool.process import single_party, trace_dimension_identity, validate
from pmtool.reduction import (
    appendix_constraint_sum,
    born_equivalence,
    pauli_coefficient,
    projection_oracle,
    reduce_multiqubit,
    reduce_single_qubit,
)

P_QUANTUM = (2 + np.sqrt(2)) / 4


def report(number: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {name}")
    return ok


def rho_tensor_identity(rho):
    d = rho.shape[0]
    return single_party(d, d, kron(rho, np.eye(d)))


def test_criterion_1_causal_inequality_violation():
    start = time.perf_counter()
    result = evaluate_game(build_w_ocb())
    elapsed = time.perf_counter() - start
    ok = abs(result.p_ocb - P_QUANTUM) <= 1e-12 and elapsed < 1.0
    assert report(1, f"p_game = {result.p_ocb!r} in {elapsed:.3f}s", ok)


def test_criterion_2_causal_bound():
    start = time.perf_counter()
    details = causal_bound_details()
    elapsed = time.perf_counter() - start
    exact = (
        float(details.bound) == 0.75
        and float(details.a_before_b) == 0.75
        and float(details.b_before_a) == 0.75
        and float(details.b_before_a_two_bit) == 0.75
    )
    ok = exact and elapsed < 1.0
    assert report(2, f"causal bound = {details.bound} in {elapsed:.3f}s", ok)


def test_criterion_3_w_ocb_validity():
    w = build_w_ocb()
    mineig = min_eigenvalue(w.matrix)
    rep = validate(w, tol=1e-10)
    ok = (
        abs(mineig) <= 1e-12
        and abs(rep.trace_value - 4.0) <= 1e-12
        and rep.normalization_ok
        and rep.worst_residual <= 1e-10
    )
    assert report(
        3,
        f"min eig {mineig:.2e}, trace {rep.trace_value}, "
        f"worst constraint residual {rep.worst_residual:.2e} over 169",
        ok,
    )


def test_criterion_4_trace_theorem():
    worst = 0.0
    for i in range(100):
        d = 2 if i < 50 else 3
        h = random_hermitian(d * d, seed=i)
        w = single_party(d, d, h)
        worst = max(
            worst, abs(trace_dimension_identity(w) * d - np.trace(h).real)
        )
    valid_value = trace_dimension_identity(rho_tensor_identity(random_density(2, 0)))
    ok = worst <= 1e-12 and abs(valid_value - 1.0) <= 1e-12
    assert report(
        4, f"worst identity residual {worst:.2e}, valid W value {valid_value!r}", ok
    )


def test_criterion_5_reduction_positive():
    start = time.perf_counter()
    worst_recovery = 0.0
    all_certified = True
    counts = {1: 34, 2: 33, 3: 33}
    for n, count in counts.items():
        for i in range(count):
            rho = random_density(2**n, seed=1000 * n + i)
            rep = reduce_multiqubit(rho_tensor_identity(rho))
            all_certified &= rep.certified
            worst_recovery = max(
                worst_recovery, float(np.linalg.norm(rep.w1 - rho))
            )
    worst_born = 0.0
    for i in range(100):
        rho = random_density(2, seed=i)
        f = random_cp_map(DimensionPair(2, 2), 2, seed=2000 + i)
        lhs, rhs = born_equivalence(rho, f, rho_tensor_identity(rho))
        worst_born = max(worst_born, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = (
        all_certified
        and worst_recovery < 1e-10
        and worst_born < 1e-10
        and elapsed < 30.0
    )
    assert report(
        5,
        f"100 certified recoveries (worst {worst_recovery:.2e}), "
        f"Born residual {worst_born:.2e}, {elapsed:.1f}s",
        ok,
    )


def test_criterion_6_reduction_negative():
    eps = 1e-3
    worst = 0.0
    ok = True
    # all 12 single-qubit output-touching Pauli directions, each with the
    # state seeded by the word's index (independent of PYTHONHASHSEED)
    one_qubit_words = [w for w in itertools.product("1xyz", repeat=2) if w[1] != "1"]
    for index, word in enumerate(one_qubit_words):
        rho = random_density(2, seed=index)
        w = single_party(2, 2, kron(rho, np.eye(2)) + eps * pauli_word(word))
        rep = reduce_single_qubit(w)
        label = f"w_{word[0]}{word[1]}"
        hits = {v.coefficient_label: v.coefficient_value for v in rep.violations}
        ok &= not rep.certified and label in hits
        if label in hits:
            worst = max(worst, abs(hits[label] - eps))
    # 20 seeded two-qubit directions with output content
    rng = np.random.default_rng(77)
    two_qubit_words = [
        w for w in itertools.product("1xyz", repeat=4) if w[2:] != ("1", "1")
    ]
    for i in rng.choice(len(two_qubit_words), size=20, replace=False):
        word = two_qubit_words[i]
        rho = random_density(4, seed=3000 + int(i))
        w = single_party(4, 4, kron(rho, np.eye(4)) + eps * pauli_word(word))
        rep = reduce_multiqubit(w)
        label = f"w_{word[0]}{word[1]},{word[2]}{word[3]}"
        hits = {v.coefficient_label: v.coefficient_value for v in rep.violations}
        ok &= not rep.certified and label in hits
        if label in hits:
            worst = max(worst, abs(hits[label] - eps))
    ok &= worst <= 1e-6
    assert report(6, f"32 perturbations localized, worst |implied - eps| {worst:.2e}", ok)


def test_criterion_7_oracle_equivalence():
    words = [w for w in itertools.product("1xyz", repeat=2) if w[1] != "1"]
    disagreements = 0
    for i in range(100):
        rho = random_density(2, seed=i)
        valid = rho_tensor_identity(rho)
        perturbed = single_party(
            2, 2, kron(rho, np.eye(2)) + 1e-3 * pauli_word(words[i % len(words)])
        )
        for w in (valid, perturbed):
            if reduce_single_qubit(w).certified != projection_oracle(w).certified:
                disagreements += 1
    assert report(7, f"{disagreements} disagreements over 200 inputs", disagreements == 0)


def test_criterion_8_appendix_identity():
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        for i in range(50):
            h = random_hermitian(4**n, seed=5000 * n + i)
            w = single_party(2**n, 2**n, h)
            alphas = tuple(rng.choice(list("xyz")) for _ in range(n))
            betas = tuple(rng.choice(list("xyz")) for _ in range(n))
            xi_support = [k for k in range(n) if rng.integers(2)]
            eta_support = [k for k in range(n) if rng.integers(2)] or [0]
            rec = appendix_constraint_sum(w, alphas, betas, xi_support, eta_support)
            word = tuple(
                alphas[k] if k in xi_support else "1" for k in range(n)
            ) + tuple(betas[k] if k in eta_support else "1" for k in range(n))
            want = 2**n * (
                np.trace(h).real / 4**n + pauli_coefficient(h, word)
            )
            worst = max(worst, abs(rec.lhs_value - want))
    assert report(8, f"worst identity residual {worst:.2e} over 150 inputs", worst <= 1e-11)
