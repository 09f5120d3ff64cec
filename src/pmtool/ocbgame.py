"""The two-party causal guessing game and its inequality.

Alice gets a random bit a and outputs x; Bob gets random bits b, b' and
outputs y. The score is

    p_game = (1/2) [ p(x=b | b'=0) + p(y=a | b'=1) ]

which any fixed causal order with one-way classical communication bounds by
3/4 (established here by exhaustive strategy enumeration). The process
matrix W_OCB together with the measure-and-prepare strategies below reaches
(2 + sqrt(2))/4.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import CJOperator, measure_prepare_cj
from .linalg import (
    DEFAULT_TOL,
    DimensionPair,
    basis_state,
    kron_all,
    pauli,
    pauli_eigenvector,
)
from .process import PartySpec, ProcessMatrix, probability

P_GAME_QUANTUM = (2 + np.sqrt(2)) / 4

ETA_STATES = {
    "0": basis_state(0),
    "1": basis_state(1),
    "plus": pauli_eigenvector("x", 0),
    "iplus": pauli_eigenvector("y", 0),
}


@dataclass(frozen=True)
class GameResult:
    p_guess_b: float
    p_guess_a: float
    p_ocb: float


@dataclass(frozen=True)
class CausalStrategy:
    """Deterministic causal strategy with one-way classical communication.

    order: "A_before_B" or "B_before_A".
    first_output / message: tables over the first party's inputs.
    second_output: table over the second party's inputs plus the message.
    """

    order: str
    first_output: tuple
    message: tuple
    second_output: tuple


@dataclass(frozen=True)
class CausalBoundReport:
    a_before_b: Fraction
    b_before_a: Fraction
    b_before_a_two_bit: Fraction
    no_communication: Fraction
    bound: Fraction
    best_strategy: CausalStrategy


def build_w_ocb() -> ProcessMatrix:
    """The 16x16 process matrix (1/4)[I + (IZZI + ZIXZ)/sqrt(2)] over
    A_in (x) A_out (x) B_in (x) B_out."""
    i, x, z = pauli("1"), pauli("x"), pauli("z")
    izzi = kron_all([i, z, z, i])
    zixz = kron_all([z, i, x, z])
    w = (np.eye(16, dtype=complex) + (izzi + zixz) / np.sqrt(2)) / 4
    spec = PartySpec((DimensionPair(2, 2), DimensionPair(2, 2)))
    return ProcessMatrix(spec, w)


def alice_cj(a: int, x: int) -> CJOperator:
    """Alice measures Z obtaining x and sends |a>: CJ = P_|x> (x) P_|a>."""
    return measure_prepare_cj(basis_state(x), basis_state(a))


def bob_cj(b: int, b_prime: int, y: int, eta: np.ndarray) -> CJOperator:
    """Bob's strategy CJ.

    b'=1: measure Z obtaining y, send |eta>.
    b'=0: measure X obtaining the eigenvalue (-1)^y, send |b xor y>.
    """
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(eta) - 1.0) > DEFAULT_TOL:
        raise ValueError("eta must be a unit vector")
    if b_prime == 1:
        return measure_prepare_cj(basis_state(y), eta)
    return measure_prepare_cj(pauli_eigenvector("x", y), basis_state((b + y) % 2))


def outcome_probability(
    w: ProcessMatrix, a: int, b: int, b_prime: int, x: int, y: int, eta: np.ndarray
) -> float:
    """P(x, y | a, b, b') under the optimal game strategies."""
    return probability(w, [alice_cj(a, x), bob_cj(b, b_prime, y, eta)])


def evaluate_game(w: ProcessMatrix, eta: np.ndarray = None) -> GameResult:
    """Game score of W under the fixed quantum strategies, uniform inputs."""
    if eta is None:
        eta = basis_state(0)
    p_guess_b = 0.0
    p_guess_a = 0.0
    for a in (0, 1):
        for b in (0, 1):
            for y in (0, 1):
                p_guess_b += outcome_probability(w, a, b, 0, x=b, y=y, eta=eta) / 4
            for x in (0, 1):
                p_guess_a += outcome_probability(w, a, b, 1, x=x, y=a, eta=eta) / 4
    return GameResult(p_guess_b, p_guess_a, (p_guess_b + p_guess_a) / 2)


def evaluate_strategy(strategy: CausalStrategy) -> Fraction:
    """Exact game score of a deterministic causal strategy, uniform inputs."""
    wins = 0
    for a, b, b_prime in itertools.product((0, 1), repeat=3):
        if strategy.order == "A_before_B":
            x = strategy.first_output[a]
            msg = strategy.message[a]
            y = strategy.second_output[(b, b_prime, msg)]
        elif strategy.order == "B_before_A":
            y = strategy.first_output[(b, b_prime)]
            msg = strategy.message[(b, b_prime)]
            x = strategy.second_output[(a, msg)]
        else:
            raise ValueError(f"unknown order {strategy.order!r}")
        wins += (x == b) if b_prime == 0 else (y == a)
    return Fraction(wins, 8)


def _tables(keys, alphabet):
    """All functions from keys to alphabet, as dicts."""
    keys = list(keys)
    for values in itertools.product(alphabet, repeat=len(keys)):
        yield dict(zip(keys, values))


def _enumerate_a_before_b(n_msg: int):
    bits = (0, 1)
    msgs = range(n_msg)
    for f in itertools.product(bits, repeat=2):
        for g in itertools.product(msgs, repeat=2):
            for h in _tables(itertools.product(bits, bits, msgs), bits):
                yield CausalStrategy("A_before_B", f, g, h)


def _enumerate_b_before_a(n_msg: int):
    bits = (0, 1)
    msgs = range(n_msg)
    keys_bb = list(itertools.product(bits, bits))
    for f in _tables(keys_bb, bits):
        for g in _tables(keys_bb, msgs):
            for h in _tables(itertools.product(bits, msgs), bits):
                yield CausalStrategy("B_before_A", f, g, h)


def _max_b_before_a_factored(n_msg: int) -> Fraction:
    """Max over B-before-A strategies, factored for large message alphabets.

    The score splits as wins = w1(second_output, message at b'=0)
    + w2(first_output at b'=1); enumerating each factor exhaustively and
    adding the maxima covers every strategy in the full product space.
    """
    bits = (0, 1)
    msgs = range(n_msg)
    best_w1 = 0
    for g0 in itertools.product(msgs, repeat=2):  # message table at b'=0
        for h in _tables(itertools.product(bits, msgs), bits):
            w1 = sum(h[(a, g0[b])] == b for a in bits for b in bits)
            best_w1 = max(best_w1, w1)
    best_w2 = 0
    for y1 in itertools.product(bits, repeat=2):  # y table at b'=1
        w2 = sum(y1[b] == a for a in bits for b in bits)
        best_w2 = max(best_w2, w2)
    return Fraction(best_w1 + best_w2, 8)


@functools.cache
def causal_bound_details() -> CausalBoundReport:
    """Exhaustive enumeration of deterministic causal strategies.

    One-bit forward message in both orders, plus a two-bit rerun for
    B-before-A (where the first party holds two input bits); deterministic
    maxima bound all mixed strategies by convexity. The bound is a constant,
    so the enumeration runs once per process and every call shares the report.
    """
    best_ab = Fraction(0)
    best_ab_strategy = None
    for strat in _enumerate_a_before_b(2):
        score = evaluate_strategy(strat)
        if score > best_ab:
            best_ab, best_ab_strategy = score, strat
    best_ba = max(evaluate_strategy(s) for s in _enumerate_b_before_a(2))
    best_ba_two = _max_b_before_a_factored(4)
    best_nocomm = max(
        max(evaluate_strategy(s) for s in _enumerate_a_before_b(1)),
        max(evaluate_strategy(s) for s in _enumerate_b_before_a(1)),
    )
    bound = max(best_ab, best_ba, best_ba_two)
    return CausalBoundReport(
        a_before_b=best_ab,
        b_before_a=best_ba,
        b_before_a_two_bit=best_ba_two,
        no_communication=best_nocomm,
        bound=bound,
        best_strategy=best_ab_strategy,
    )


def causal_bound_bruteforce() -> float:
    """Maximum game score over all deterministic causal strategies."""
    return float(causal_bound_details().bound)
