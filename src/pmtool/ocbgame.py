"""The two-party causal guessing game and its inequality.

Alice gets a random bit a and outputs x; Bob gets random bits b, b' and
outputs y. The score is

    p_game = (1/2) [ p(x=b | b'=0) + p(y=a | b'=1) ]

which any fixed causal order with one-way classical communication bounds by
3/4. This is established here by enumerating deterministic strategies,
split at b': the first party's scored guess wins exactly half of its cases
whatever its table, so only the message and the second party's guess are
searched (see ``causal_bound_details``). The process matrix W_OCB together
with the measure-and-prepare strategies below reaches (2 + sqrt(2))/4, read
off one ``product_expectations`` contraction of W (see ``evaluate_game``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    EIGENPROJECTOR_STACK,
    DimensionMismatchError,
    DimensionPair,
    basis_state,
    pauli_eigenvector,
    pauli_word,
    product_expectations,
    projector,
    unit_vector,
)
from .process import PartySpec, ProcessMatrix

P_GAME_QUANTUM = (2 + np.sqrt(2)) / 4

ETA_STATES = {
    "0": basis_state(0),
    "1": basis_state(1),
    "plus": pauli_eigenvector("x", 0),
    "iplus": pauli_eigenvector("y", 0),
}

_GAME_PARTIES = PartySpec((DimensionPair(2, 2), DimensionPair(2, 2)))  # A, then B
_Z = EIGENPROJECTOR_STACK[4:]  # |0><0|, |1><1|
_BOB_MEASUREMENTS = EIGENPROJECTOR_STACK[[0, 1, 4, 5]]  # X eigenprojectors, then Z


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


@functools.cache
def build_w_ocb() -> ProcessMatrix:
    """The 16x16 process matrix (1/4)[I + (IZZI + ZIXZ)/sqrt(2)] over
    A_in (x) A_out (x) B_in (x) B_out, built once and shared read-only."""
    izzi, zixz = pauli_word("1zz1"), pauli_word("z1xz")
    w = (np.eye(16, dtype=complex) + (izzi + zixz) / np.sqrt(2)) / 4
    w.flags.writeable = False
    return ProcessMatrix(_GAME_PARTIES, w)


def evaluate_game(w: ProcessMatrix, eta: np.ndarray = None) -> GameResult:
    """Game score of W under the fixed quantum strategies, uniform inputs.

    Every strategy CJ is a product of rank-one projectors on A_in, A_out,
    B_in, B_out, so one ``product_expectations`` call gives every
    P(x, y | a, b, b') as an entry of a (2, 2, 4, 3) tensor over Alice's Z
    projectors (x, a), Bob's X and Z projectors and his preparations |0>,
    |1>, |eta>. An imaginary part above ``DEFAULT_TOL`` raises, as in ``probability``.
    """
    eta = unit_vector(basis_state(0) if eta is None else eta, "eta")
    if w.spec != _GAME_PARTIES or eta.shape != (2,):
        raise DimensionMismatchError(
            f"the game takes two (2,2) parties and a qubit eta, got {w.spec.parties}")
    preparations = np.concatenate([_Z, [projector(eta)]])
    t = product_expectations(w.matrix, [_Z, _Z, _BOB_MEASUREMENTS, preparations])
    a, b, k = np.indices((2, 2, 2))
    p = np.stack([t[b, a, k, b ^ k],   # b'=0: x = b; Bob measures X (y = k), sends |b xor y>
                  t[k, a, 2 + a, 2]])  # b'=1: y = a; Bob measures Z, sends |eta>; x = k
    worst = np.max(np.abs(p.imag))
    if worst > DEFAULT_TOL:
        raise ValueError(f"probability trace has imaginary part {worst:.3e}")
    p_guess_b, p_guess_a = (p.real.sum(axis=(1, 2, 3)) / 4).tolist()
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


def _best_strategy(order: str, n_msg: int) -> tuple:
    """(best score, a deterministic strategy reaching it) for one causal
    order with an n_msg-symbol message.

    The score splits at b'. The first party's scored guess (x at b'=0 when
    A is first, y at b'=1 when B is first) cannot see the other party's
    input, so every output table wins exactly 2 of those 4 cases. The
    second party's scored guess targets the first party's scored input t
    (a, or b at b'=0) from the message g[t] and its own other input u, so
    only g and the guess table h over (u, message) are searched. Unscored
    table entries are 0.
    """
    bits, msgs = (0, 1), range(n_msg)
    keys = list(itertools.product(bits, msgs))
    wins = -1
    for g_try in itertools.product(msgs, repeat=2):
        for values in itertools.product(bits, repeat=len(keys)):
            h_try = dict(zip(keys, values))
            w = sum(h_try[(u, g_try[t])] == t for t in bits for u in bits)
            if w > wins:
                wins, g, h = w, g_try, h_try
    if order == "A_before_B":
        second = {(b, bp, m): h[(b, m)] if bp else 0
                  for b, bp, m in itertools.product(bits, bits, msgs)}
        strategy = CausalStrategy(order, (0, 0), g, second)
    else:
        pairs = list(itertools.product(bits, bits))
        message = {(b, bp): 0 if bp else g[b] for b, bp in pairs}
        strategy = CausalStrategy(order, dict.fromkeys(pairs, 0), message, h)
    score = Fraction(2 + wins, 8)
    if evaluate_strategy(strategy) != score:
        raise RuntimeError(f"b'-split score {score} not reached by {strategy}")
    return score, strategy


@functools.cache
def causal_bound_details() -> CausalBoundReport:
    """The classical causal bound by the b'-split enumeration.

    A one-bit forward message in both orders, plus a two-bit rerun for
    B-before-A (where the first party holds two input bits), and a
    one-symbol message in both orders for the no-communication value. Each
    quantity is the best deterministic score of its order, which bounds all
    mixed strategies by convexity; ``_best_strategy`` searches only the
    tables the score depends on and checks its strategy with
    ``evaluate_strategy``. The bound is a constant, so the enumeration runs
    once per process and every call shares the report.
    """
    ab = _best_strategy("A_before_B", 2)
    ba = _best_strategy("B_before_A", 2)
    ba_two = _best_strategy("B_before_A", 4)
    bound, best = max(ab, ba, ba_two, key=lambda result: result[0])
    return CausalBoundReport(
        a_before_b=ab[0],
        b_before_a=ba[0],
        b_before_a_two_bit=ba_two[0],
        no_communication=max(_best_strategy(order, 1)[0]
                             for order in ("A_before_B", "B_before_A")),
        bound=bound,
        best_strategy=best,
    )
