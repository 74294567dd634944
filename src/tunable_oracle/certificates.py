"""Convergence certificates A_k of the accelerated method and the fast
gradient method's impact coefficients (a, b) derived from them.

The certificates obey A_{k+1} (1 + mu A_k) = L_{k+1} (A_{k+1} - A_k)^2 with
A_0 = 0; the recursion is solved for its larger root (the smaller one falls
below A_k and contradicts growth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CertificateSequence:
    """A_0..A_N with the inverse stepsizes L_1..L_N that generated them."""

    A: np.ndarray
    L: np.ndarray
    mu: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        L = np.asarray(self.L, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "L", L)
        if A.size != L.size + 1:
            raise ValueError("need one stepsize per certificate increment")
        if not (np.isfinite(A).all() and np.isfinite(L).all()):
            raise ValueError("certificates and stepsizes must be finite")
        if A[0] != 0.0 or np.any(np.diff(A) <= 0.0):
            raise ValueError("certificates must start at 0 and grow strictly")

    def recursion_residual(self) -> np.ndarray:
        """Relative residual |L_{k+1}(A_{k+1}-A_k)^2 - A_{k+1}(1+mu A_k)|
        normalized by the right-hand side, per step."""
        Ak, An = self.A[:-1], self.A[1:]
        lhs = self.L * (An - Ak) ** 2
        rhs = An * (1.0 + self.mu * Ak)
        return np.abs(lhs - rhs) / rhs


def next_certificate(A_k: float, L_next: float, mu: float = 0.0) -> float:
    """Larger root of L A^2 - (2 L A_k + 1 + mu A_k) A + L A_k^2 = 0."""
    if L_next <= 0.0 or A_k < 0.0 or mu < 0.0:
        raise ValueError("need L_next > 0, A_k >= 0, mu >= 0")
    B = 2.0 * L_next * A_k + 1.0 + mu * A_k
    # discriminant B^2 - 4 L^2 A_k^2 factored for stability
    disc = (1.0 + mu * A_k) * (4.0 * L_next * A_k + 1.0 + mu * A_k)
    return (B + math.sqrt(disc)) / (2.0 * L_next)


def fixed_step_certificates(N: int, L: float, mu: float = 0.0) -> CertificateSequence:
    """Chain the recursion N times with a constant inverse stepsize."""
    if N < 1:
        raise ValueError("N must be >= 1")
    A = np.empty(N + 1)
    A[0] = 0.0
    for k in range(N):
        A[k + 1] = next_certificate(A[k], L, mu)
    return CertificateSequence(A, np.full(N, float(L)), float(mu))


def impact_coefficients_fgm(certs: CertificateSequence) -> tuple[np.ndarray, np.ndarray]:
    """Fast gradient method row: a_k = A_{k+1}, unit cost distortions."""
    a = certs.A[1:].copy()
    return a, np.ones_like(a)

