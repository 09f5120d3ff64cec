"""Reference forms the tests hold pmtool to; pmtool itself never calls them.

The per-outcome game probabilities through ``process.probability`` (what
``ocbgame.evaluate_game`` reads off one contraction), the unnormalised
maximally entangled vector behind the conventional Choi matrix, and a seeded
random state vector.
"""

from __future__ import annotations

import numpy as np

from pmtool.channels import CJOperator, measure_prepare_cj
from pmtool.linalg import basis_state, pauli_eigenvector, unit_vector
from pmtool.process import ProcessMatrix, probability


def random_state(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-ish random unit vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def max_entangled(d: int) -> np.ndarray:
    """Non-normalized |ME> = sum_{j} |j>|j>, squared norm d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.eye(d, dtype=complex).reshape(-1)


def alice_cj(a: int, x: int) -> CJOperator:
    """Alice measures Z obtaining x and sends |a>: CJ = P_|x> (x) P_|a>."""
    return measure_prepare_cj(basis_state(x), basis_state(a))


def bob_cj(b: int, b_prime: int, y: int, eta: np.ndarray) -> CJOperator:
    """Bob's strategy CJ.

    b'=1: measure Z obtaining y, send |eta>.
    b'=0: measure X obtaining the eigenvalue (-1)^y, send |b xor y>.
    """
    eta = unit_vector(eta, "eta")
    if b_prime == 1:
        return measure_prepare_cj(basis_state(y), eta)
    return measure_prepare_cj(pauli_eigenvector("x", y), basis_state((b + y) % 2))


def outcome_probability(
    w: ProcessMatrix, a: int, b: int, b_prime: int, x: int, y: int, eta: np.ndarray
) -> float:
    """P(x, y | a, b, b') under the game strategies; the reference for ``evaluate_game``."""
    return probability(w, [alice_cj(a, x), bob_cj(b, b_prime, y, eta)])
