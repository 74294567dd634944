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
    stepsize.

    L and mu are checked once per chain, by the first ``next_certificate``
    call; the later steps run its arithmetic inline, in its operation order,
    so every A_k has the bits of the ``next_certificate`` chain. The chain
    stops at the first A_k that is not finite and raises ``ValueError``
    naming its k.
    """
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise ValueError(f"N must be an integer, got {N!r}")
    if N < 1:
        raise ValueError("N must be >= 1")
    next_certificate(0.0, L, mu)  # the chain's one domain check: a bad L or mu raises
    L, mu = float(L), float(mu)
    two_L, four_L, sqrt, inf = 2.0 * L, 4.0 * L, math.sqrt, math.inf
    A = np.empty(N + 1)
    out = memoryview(A)  # stores a Python float without numpy's per-item cost
    out[0] = A_k = 0.0
    for k in range(1, N + 1):
        # next_certificate's B + sqrt(disc) over 2 L, term for term
        mu_A = mu * A_k
        A_k = (two_L * A_k + 1.0 + mu_A
               + sqrt((1.0 + mu_A) * (four_L * A_k + 1.0 + mu_A))) / two_L
        if not A_k < inf:  # NaN fails too
            raise ValueError(f"certificates must be finite: A_k overflows at k = {k}")
        out[k] = A_k
    if np.any(np.diff(A) <= 0.0):
        raise ValueError("certificates must grow strictly")
    return A


def impact_coefficients_fgm(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fast gradient method row from the certificates A_0..A_N: a_k = A_{k+1},
    unit cost distortions."""
    a = A[1:].copy()
    return a, np.ones_like(a)
