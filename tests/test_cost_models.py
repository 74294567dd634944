import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from witnesses import h_derivative

from tunable_oracle.cost_models import (
    CostModel,
    CostModelError,
    h_eval,
    lambert_w0,
)
from tunable_oracle.schedule_solver import ScheduleProblem, SolverError


POWER1 = CostModel("power", 1.0)
LOG = CostModel("logarithmic")
LOGSQ = CostModel("log_squared")


class TestEval:
    def test_power_reciprocal(self):
        assert h_eval(POWER1, 0.5) == pytest.approx(2.0)

    def test_log_identity(self):
        assert h_eval(LOG, math.exp(-1.0)) == pytest.approx(1.0)

    def test_logsq_square(self):
        assert h_eval(LOGSQ, math.exp(-2.0)) == pytest.approx(4.0)

    def test_vectorized(self):
        out = h_eval(POWER1, np.array([0.5, 0.25]))
        np.testing.assert_allclose(out, [2.0, 4.0])

    def test_rejects_out_of_domain(self):
        with pytest.raises(CostModelError):
            h_eval(POWER1, -1.0)
        with pytest.raises(CostModelError):
            h_eval(POWER1, 0.0)
        with pytest.raises(CostModelError):
            h_eval(LOG, math.inf)


class TestDerivative:
    def test_power(self):
        assert h_derivative(POWER1, 0.5) == pytest.approx(-4.0)

    def test_log(self):
        assert h_derivative(LOG, 0.5) == pytest.approx(-2.0)

    def test_logsq(self):
        # hand evaluation of 2 log(d)/d at d = 1/e
        assert h_derivative(LOGSQ, math.exp(-1.0)) == pytest.approx(-2.0 * math.e)

    def test_strictly_negative_interior(self):
        for model in (POWER1, LOG, LOGSQ):
            for d in (1e-6, 1e-3, 0.3, 0.85):
                assert h_derivative(model, d) < 0.0


class TestLambertW:
    def test_fixed_point(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)

    def test_at_one(self):
        assert lambert_w0(1.0) == pytest.approx(0.5671432904, rel=1e-9)

    def test_residuals(self):
        for x in (0.0, 1e-6, 1.0, 10.0, 1e6):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
            assert w >= -1.0

    @pytest.mark.parametrize("x", [1e60, 1e200, 1.7e308])
    def test_converges_up_to_the_largest_doubles(self, x):
        # beyond ~5e57 rounding in w*exp(w) exceeds the 1e-14 residual test,
        # and near 1e308 the unscaled Halley terms overflow
        w = lambert_w0(x)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-15 * w
        assert abs(w * math.exp(w) - x) <= 1e-13 * x
        np.testing.assert_allclose(lambert_w0(np.array([1.0, x])),
                                   [lambert_w0(1.0), w], rtol=1e-15)

    def test_rejects_below_branch(self):
        with pytest.raises(CostModelError):
            lambert_w0(-0.1)

    def test_vectorized(self):
        xs = np.array([0.0, math.e, 1e3])
        ws = lambert_w0(xs)
        np.testing.assert_allclose(ws * np.exp(ws), xs, rtol=1e-12, atol=1e-14)


class TestDomainValidation:
    def test_log_kind_requires_hi_below_one(self):
        # the box belongs to the problem, which alone rejects M*delta_ref >= 1
        for model in (LOG, LOGSQ):
            for M in (2.0, 1.0):
                with pytest.raises(SolverError, match="M\\*delta_ref < 1"):
                    ScheduleProblem(np.ones(2), np.ones(2), 0.5, 0.0, 2.0 * M,
                                    model)

    def test_power_requires_positive_r(self):
        with pytest.raises(CostModelError):
            CostModel("power", 0.0)
        with pytest.raises(CostModelError):
            CostModel("power", -1.0)
        with pytest.raises(CostModelError):
            CostModel("power", math.inf)

    def test_unknown_kind(self):
        with pytest.raises(CostModelError):
            CostModel(kind="exp")


@pytest.mark.parametrize("model", [CostModel("power", 2.0), LOG, LOGSQ])
@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.89),
       st.floats(min_value=1.0001, max_value=1.5))
def test_monotonicity(model, d1, factor):
    d2 = d1 * factor
    if d2 >= (10.0 if model.kind == "power" else 0.9):
        return
    assert h_eval(model, d1) > h_eval(model, d2)
    assert h_derivative(model, d1) < h_derivative(model, d2) < 0.0
