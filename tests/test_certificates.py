import math

import numpy as np
import pytest
from witnesses import float64_certificates

from tunable_oracle import certificates
from tunable_oracle.certificates import (
    fixed_step_certificates,
    impact_coefficients_fgm,
    next_certificate,
)


def recursion_residual(A, L, mu):
    """Relative residual |L (A_{k+1} - A_k)^2 - A_{k+1} (1 + mu A_k)| over the
    right-hand side, per step; ``L`` is one inverse stepsize or one per step."""
    Ak, An = A[:-1], A[1:]
    rhs = An * (1.0 + mu * Ak)
    return np.abs(L * (An - Ak) ** 2 - rhs) / rhs


class TestNextCertificate:
    def test_first_step(self):
        assert next_certificate(0.0, 1.0, 0.0) == pytest.approx(1.0)
        assert next_certificate(0.0, 4.0, 0.0) == pytest.approx(0.25)
        assert next_certificate(0.0, 2.5, 3.0) == pytest.approx(0.4)

    def test_second_step(self):
        # solve (A - 1)^2 = A: larger root (3 + sqrt(5)) / 2
        assert next_certificate(1.0, 1.0, 0.0) == pytest.approx(
            (3.0 + math.sqrt(5.0)) / 2.0)

    def test_growth(self):
        A = 0.0
        for _ in range(50):
            A_next = next_certificate(A, 3.0, 0.2)
            assert A_next > A
            A = A_next

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            next_certificate(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            next_certificate(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            next_certificate(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("A_k, L_next, mu", [
        (1.0, 1.0, math.nan), (1.0, math.nan, 0.0), (math.nan, 1.0, 0.0),
        (1.0, math.inf, 0.0), (math.inf, 1.0, 0.0), (1.0, 1.0, math.inf)])
    def test_rejects_nan_and_inf(self, A_k, L_next, mu):
        with pytest.raises(ValueError, match="need 0 < L_next < inf"):
            next_certificate(A_k, L_next, mu)


class TestFixedStep:
    @pytest.mark.parametrize("L, mu", [(math.nan, 0.0), (math.inf, 0.0),
                                       (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_nan_and_inf(self, L, mu):
        with pytest.raises(ValueError, match="need 0 < L_next < inf"):
            fixed_step_certificates(3, L, mu)

    # at L = mu = 1, A_370 overflows: the chain ends on it at N = 370 and
    # stops at the next step at N = 400
    @pytest.mark.parametrize("N", [370, 400])
    def test_overflow_is_reported(self, N):
        with pytest.raises(ValueError,
                           match="certificates must be finite: A_k overflows at k = 370$"):
            fixed_step_certificates(N, 1.0, 1.0)

    @pytest.mark.parametrize("N", [True, False, 3.0, "3", None])
    def test_rejects_non_integer_N(self, N):
        with pytest.raises(ValueError, match="N must be an integer"):
            fixed_step_certificates(N, 1.0)

    def test_numpy_integer_N(self):
        assert (fixed_step_certificates(np.int64(3), 1.0).tobytes()
                == fixed_step_certificates(3, 1.0).tobytes())

    def test_one_next_certificate_call_per_chain(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return next_certificate(*args)
        monkeypatch.setattr(certificates, "next_certificate", counted)
        fixed_step_certificates(1000, 2.0, 0.01)
        assert calls == [(0.0, 2.0, 0.01)]

    def test_small_sequence(self):
        np.testing.assert_allclose(fixed_step_certificates(2, 1.0, 0.0),
                                   [0.0, 1.0, (3.0 + math.sqrt(5.0)) / 2.0])

    def test_single(self):
        np.testing.assert_allclose(fixed_step_certificates(1, 4.0), [0.0, 0.25])

    def test_quadratic_lower_bound(self):
        A = fixed_step_certificates(10_000, 1.0, 0.0)
        k = np.arange(10_001, dtype=float)
        assert np.all(A >= k * k / 4.0)

    def test_recursion_residual(self):
        for mu in (0.0, 0.1, 2.0):
            for L in (0.5, 1.0, 100.0):
                A = fixed_step_certificates(200, L, mu)
                assert np.max(recursion_residual(A, L, mu)) <= 1e-9

    def test_quadratic_ratio_stabilizes(self):
        A = fixed_step_certificates(5000, 1.0, 0.0)
        k = np.arange(1, 5001, dtype=float)
        ratio = A[1:] / k**2
        # A_k / k^2 decreases monotonically toward its limit in [1/4, 1)
        assert np.all(np.diff(ratio) <= 1e-14)
        assert 0.25 <= ratio[-1] < 1.0
        assert abs(ratio[-1] - ratio[-100]) <= 1e-4

    def test_strongly_convex_geometric_tail(self):
        A = fixed_step_certificates(1000, 1.0, 0.05)
        ratios = A[-100:] / A[-101:-1]
        assert np.max(ratios) - np.min(ratios) <= 1e-6
        assert ratios[-1] > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_step_certificates(0, 1.0)

    @pytest.mark.parametrize("N, L, mu", [(100_000, 1.0, 0.0),
                                          (20_000, 1.0 / 3e-3 + 0.1, 0.1)] + [
        (N, L, mu) for N in (1, 2, 369)
        for L, mu in ((1.0, 0.0), (1.0, 1.0), (24.7, 0.0), (2000.1, 0.1),
                      (1e-3, 0.0), (1.0 / 3e-3 + 0.1, 0.1))])
    def test_same_bytes_as_float64_chain(self, N, L, mu):
        # the chain runs next_certificate's arithmetic inline on a Python
        # float; the bench's N = 1e5 row, the longest experiment-3 row that
        # does not overflow, and short chains at mu = 0 and mu > 0 (at
        # L = mu = 1, A_369 is the last finite certificate)
        with np.errstate(over="ignore"):
            witness = float64_certificates(N, L, mu)
        assert fixed_step_certificates(N, L, mu).tobytes() == witness.tobytes()

    def test_overflow_raises(self):
        # experiment-3 constants (L = 1/sigma + mu, sigma = 3e-3, mu = 0.1):
        # A_k overflows to inf from k = 20 297 on
        with pytest.raises(ValueError, match="A_k overflows at k = 20297$"):
            fixed_step_certificates(25_000, 1.0 / 3e-3 + 0.1, 0.1)


class TestImpactCoefficients:
    def test_fgm(self):
        a, b = impact_coefficients_fgm(fixed_step_certificates(2, 1.0, 0.0))
        np.testing.assert_allclose(a, [1.0, (3.0 + math.sqrt(5.0)) / 2.0])
        np.testing.assert_array_equal(b, np.ones(2))

    def test_fgm_single(self):
        a, _ = impact_coefficients_fgm(fixed_step_certificates(1, 4.0))
        np.testing.assert_allclose(a, [0.25])
