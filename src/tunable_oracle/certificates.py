"""Convergence certificates A_k of the accelerated method and the fast
gradient method's impact coefficients (a, b) derived from them.

The certificates obey A_{k+1} (1 + mu A_k) = L_{k+1} (A_{k+1} - A_k)^2 with
A_0 = 0; the recursion is solved for its larger root (the smaller one falls
below A_k and contradicts growth).
"""

from __future__ import annotations

import math

import numpy as np


def next_certificate(A_k: float, L_next: float, mu: float = 0.0) -> float:
    """Larger root of L A^2 - (2 L A_k + 1 + mu A_k) A + L A_k^2 = 0."""
    # each test is written so that NaN fails it
    if not (0.0 < L_next < math.inf and 0.0 <= A_k < math.inf
            and 0.0 <= mu < math.inf):
        raise ValueError(f"need 0 < L_next < inf, 0 <= A_k < inf and "
                         f"0 <= mu < inf, got L_next = {L_next!r}, "
                         f"A_k = {A_k!r}, mu = {mu!r}")
    # mu A_k formed once: its three uses pay for the domain check above
    mu_A = mu * A_k
    B = 2.0 * L_next * A_k + 1.0 + mu_A
    # discriminant B^2 - 4 L^2 A_k^2 factored for stability
    disc = (1.0 + mu_A) * (4.0 * L_next * A_k + 1.0 + mu_A)
    return (B + math.sqrt(disc)) / (2.0 * L_next)


def fixed_step_certificates(N: int, L: float, mu: float = 0.0) -> np.ndarray:
    """A_0..A_N: the recursion chained N times with a constant inverse
    stepsize."""
    if N < 1:
        raise ValueError("N must be >= 1")
    A = np.empty(N + 1)
    A[0] = 0.0
    A[1] = A_k = next_certificate(0.0, L, mu)  # rejects a bad L or mu
    # chained on a Python float: the same IEEE arithmetic as on the
    # np.float64 elements, without numpy's per-scalar overhead
    try:
        for k in range(2, N + 1):
            A[k] = A_k = next_certificate(A_k, L, mu)
    except ValueError:  # A_k overflowed to inf, stored in A: reported below
        pass
    if not np.isfinite(A).all():
        raise ValueError("certificates must be finite")
    if np.any(np.diff(A) <= 0.0):
        raise ValueError("certificates must grow strictly")
    return A


def impact_coefficients_fgm(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fast gradient method row from the certificates A_0..A_N: a_k = A_{k+1},
    unit cost distortions."""
    a = A[1:].copy()
    return a, np.ones_like(a)
