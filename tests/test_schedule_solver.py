import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from witnesses import (
    bisection_saturation_counts,
    brute_force_error_bound,
    brute_force_oracle,
    closed_form_interior_accuracy,
    closed_form_interior_work,
    h_derivative,
    read_schedule,
    write_coefficients,
)

from tunable_oracle import cost_models, schedule_solver
from tunable_oracle.certificates import (
    fixed_step_certificates,
    impact_coefficients_fgm,
)
from tunable_oracle.cost_models import (
    LOG_SQUARED,
    LOGARITHMIC,
    POWER,
    h_eval,
)
from tunable_oracle.harness import (
    HarnessError,
    export_schedule,
    import_coefficients,
    toy_instance,
)
from tunable_oracle.schedule_solver import (
    Schedule,
    SolverError,
    WorkProblem,
    _descending_order,
    accuracy_problem,
    online_extend_accuracy,
    reference_budget,
    solve_accuracy,
    solve_work,
)

ALL_KINDS = (POWER, LOGARITHMIC, LOG_SQUARED)


def random_problem(rng, kind, n=None, r=None, allow_inf_M=True):
    n = n or int(rng.integers(2, 30))
    a = np.exp(rng.uniform(-2.0, 2.0, n))
    b = np.exp(rng.uniform(-2.0, 2.0, n))
    delta_ref = 10.0 ** rng.uniform(-5.0, -1.5)
    m = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.8))
    if kind == POWER and allow_inf_M and rng.random() < 0.3:
        M = math.inf
    else:
        M = float(rng.uniform(1.2, 50.0))
        if kind != POWER:
            M = min(M, 0.9 / delta_ref)
    r = r if r is not None else float(rng.uniform(0.2, 3.0))
    return accuracy_problem(a, b, delta_ref, m, M, kind, r)


def degenerate(p, cert) -> bool:
    """Every rank pinned to a bound: no transient set, no multiplier."""
    return cert.n_plus + cert.n_minus == p.size


def assert_kkt(p, s, cert):
    """Stationarity on the transient set and multiplier signs on the pinned sets."""
    lam_tilde = -1.0 / cert.lambda_star
    order = np.argsort(-(p.b / p.a), kind="stable")
    in_T = order[cert.n_plus:p.size - cert.n_minus]
    hp = h_derivative(p.cost_model, s.values[in_T])
    resid = p.a[in_T] + lam_tilde * p.b[in_T] * hp
    assert np.all(np.abs(resid) <= 1e-8 * p.a[in_T])
    plus = order[:cert.n_plus]
    if plus.size:
        hp_plus = h_derivative(p.cost_model, s.values[plus])
        station = p.a[plus] + lam_tilde * p.b[plus] * hp_plus
        assert np.all(station <= 1e-7 * p.a[plus])
    minus = order[p.size - cert.n_minus:]
    if minus.size:
        hp_minus = h_derivative(p.cost_model, s.values[minus])
        station = p.a[minus] + lam_tilde * p.b[minus] * hp_minus
        assert np.all(station >= -1e-7 * p.a[minus])


def assert_budget_and_box(p, s, cert):
    target = reference_budget(p)
    achieved = float(np.sum(p.b * h_eval(p.cost_model, s.values)))
    assert abs(achieved - target) <= 1e-10 * target
    assert cert.budget_residual <= 1e-10
    assert np.all(s.values >= p.m * p.delta_ref)
    assert np.all(s.values <= p.M * p.delta_ref)


def assert_work_kkt(p, s, cert):
    """Budget, box and the split omega_k = lam * w_k, w from log a and log b:
    rank k sits on omega_M where lam * w_k <= omega_M, on omega_m where
    lam * w_k >= omega_m, and at lam * w_k in between."""
    assert abs(np.sum(s.values) - p.omega_bar) <= 1e-10 * p.omega_bar
    assert cert.budget_residual <= 1e-10
    assert np.all((s.values >= p.omega_M) & (s.values <= p.omega_m))
    w = np.exp((np.log(p.b) + p.r * np.log(p.a)) / (p.r + 1.0))
    split = cert.lambda_star * w
    inside = (s.values > p.omega_M) & (s.values < p.omega_m)
    np.testing.assert_allclose(s.values[inside], split[inside], rtol=1e-8)
    assert np.all(split[s.values == p.omega_M] <= p.omega_M * (1 + 1e-7))
    assert np.all(split[s.values == p.omega_m] >= p.omega_m * (1 - 1e-7))


class TestDescendingRank:
    """The solvers' ranking: indices by descending nu, ties by lower index."""

    def test_simple(self):
        np.testing.assert_array_equal(_descending_order([3, 1, 2]), [0, 2, 1])

    def test_tie_by_index(self):
        np.testing.assert_array_equal(_descending_order([5, 5, 1]), [0, 1, 2])

    def test_reverse(self):
        np.testing.assert_array_equal(_descending_order([1, 2, 3, 4]), [3, 2, 1, 0])

    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nu = np.exp(rng.normal(size=rng.integers(1, 50)))
            order = _descending_order(nu)
            assert sorted(order) == list(range(nu.size))
            assert np.all(np.diff(nu[order]) <= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        # few distinct values: ties, in repeated blocks or scattered
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 1e-300, 1e300, 0.0, -0.0, -1.0]),
                 min_size=1, max_size=60),
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40).flatmap(
            lambda block: st.integers(1, 4).map(lambda reps: block * reps)),
        st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=200)),
        st.sampled_from(["as drawn", "ascending", "descending", "constant"]))
    def test_matches_stable_sort(self, values, layout):
        # the quicksort with a tie check must give the stable sort's
        # permutation, index for index
        v = np.array(values)
        if layout == "ascending":
            v = np.sort(v)
        elif layout == "descending":
            v = np.sort(v)[::-1]
        elif layout == "constant":
            v = np.full_like(v, v[0])
        expected = np.argsort(-v, kind="stable")
        assert _descending_order(v).tobytes() == expected.tobytes()


class TestReferenceBudget:
    def test_power(self):
        p = accuracy_problem([1, 1], [1, 1], 0.01, 0.0, 10.0, POWER, 1.0)
        assert reference_budget(p) == pytest.approx(200.0)

    def test_log_squared_normalized(self):
        b = np.full(4, 0.25)
        p = accuracy_problem(np.ones(4), b, 1e-4, 0.0, 2.0, LOG_SQUARED)
        assert reference_budget(p) == pytest.approx(math.log(1e4) ** 2, rel=1e-12)
        assert reference_budget(p) == pytest.approx(84.8304, rel=1e-5)

    def test_logarithmic(self):
        p = accuracy_problem([1, 1], [2, 3], math.exp(-1.0), 0.0, 2.0, LOGARITHMIC)
        assert reference_budget(p) == pytest.approx(5.0)


class TestClosedFormAccuracy:
    def test_symmetric_constant(self):
        for r in (0.5, 1.0, 2.0):
            p = accuracy_problem(np.ones(5), np.ones(5), 0.01, 0.0, 10.0, POWER, r)
            s = closed_form_interior_accuracy(p)
            np.testing.assert_allclose(s.values, 0.01, rtol=1e-12)

    def test_four_term_instance(self):
        p = accuracy_problem([1, 2, 3, 4], np.ones(4), 0.01, 0.0, math.inf,
                             POWER, 1.0)
        s = closed_form_interior_accuracy(p)
        np.testing.assert_allclose(
            s.values, [0.0153657, 0.0108652, 0.0088714, 0.0076828], rtol=1e-5)
        assert np.sum(1.0 / s.values) == pytest.approx(400.0, rel=1e-12)

    def test_bound_violation_returns_none(self):
        p = accuracy_problem([1, 100], [1, 1], 0.01, 0.0, 1.5, POWER, 1.0)
        assert closed_form_interior_accuracy(p) is None

    def test_rejects_wrong_kind(self):
        p = accuracy_problem([1, 2], [1, 1], 0.01, 0.0, 2.0, LOGARITHMIC)
        with pytest.raises(SolverError):
            closed_form_interior_accuracy(p)


class TestSolveAccuracy:
    def test_symmetric_instance(self):
        for kind in ALL_KINDS:
            M = 10.0 if kind == POWER else 2.0
            p = accuracy_problem(np.ones(6), np.ones(6), 0.01, 0.0, M, kind, 1.0)
            s, cert = solve_accuracy(p)
            np.testing.assert_allclose(s.values, 0.01, rtol=1e-10)
            assert cert.n_plus == 0 and cert.n_minus == 0

    def test_budget_equality_all_kinds(self):
        rng = np.random.default_rng(11)
        for kind in ALL_KINDS:
            for _ in range(30):
                p = random_problem(rng, kind)
                s, _ = solve_accuracy(p)
                achieved = float(np.sum(p.b * h_eval(p.cost_model, s.values)))
                target = reference_budget(p)
                assert abs(achieved - target) <= 1e-10 * target

    def test_values_within_box(self):
        rng = np.random.default_rng(12)
        for kind in ALL_KINDS:
            for _ in range(20):
                p = random_problem(rng, kind)
                s, _ = solve_accuracy(p)
                lo, hi = p.m * p.delta_ref, p.M * p.delta_ref
                assert np.all(s.values >= lo - 1e-15)
                assert np.all(s.values <= hi * (1 + 1e-12))

    def test_rank_monotonicity(self):
        rng = np.random.default_rng(13)
        for kind in ALL_KINDS:
            for _ in range(100):
                p = random_problem(rng, kind)
                s, cert = solve_accuracy(p)
                nu = p.b / p.a
                order = np.argsort(-nu, kind="stable")
                ordered = s.values[order]
                assert np.all(np.diff(ordered) <= 1e-9 * np.abs(ordered[:-1]))

    def test_uniqueness_under_permutation(self):
        rng = np.random.default_rng(14)
        for kind in ALL_KINDS:
            for _ in range(100):
                p = random_problem(rng, kind)
                nu = p.b / p.a
                if np.unique(nu).size < nu.size:
                    continue
                s1, _ = solve_accuracy(p)
                perm = rng.permutation(p.size)
                p2 = accuracy_problem(
                    p.a[perm], p.b[perm], p.delta_ref, p.m, p.M,
                    kind, p.cost_model.r if kind == POWER else 1.0)
                s2, _ = solve_accuracy(p2)
                np.testing.assert_allclose(s2.values, s1.values[perm],
                                           rtol=1e-12, atol=1e-18)

    def test_kkt_residual(self):
        rng = np.random.default_rng(15)
        for kind in ALL_KINDS:
            for _ in range(40):
                p = random_problem(rng, kind)
                s, cert = solve_accuracy(p)
                if degenerate(p, cert):
                    continue
                assert_kkt(p, s, cert)

    def test_closed_form_agreement(self):
        rng = np.random.default_rng(16)
        hits = 0
        while hits < 60:
            p = random_problem(rng, POWER)
            interior = closed_form_interior_accuracy(p)
            if interior is None:
                continue
            hits += 1
            s, cert = solve_accuracy(p)
            np.testing.assert_allclose(s.values, interior.values, rtol=1e-10)
            assert cert.n_plus == 0 and cert.n_minus == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for kind in ALL_KINDS:
            p = random_problem(rng, kind, n=12)
            s, cert = solve_accuracy(p)
            Ka, Kb = 7.5, 0.3
            p2 = accuracy_problem(Ka * p.a, Kb * p.b, p.delta_ref, p.m, p.M,
                                  kind, p.cost_model.r if kind == POWER else 1.0)
            s2, cert2 = solve_accuracy(p2)
            np.testing.assert_allclose(s2.values, s.values, rtol=1e-12)
            if not (degenerate(p, cert) or degenerate(p2, cert2)):
                # stationarity multiplier: a_k = lam_tilde * b_k * |h'|, so
                # lam_tilde = -1/lambda_star scales by Ka/Kb
                lam_tilde, lam_tilde2 = -1.0 / cert.lambda_star, -1.0 / cert2.lambda_star
                assert lam_tilde2 == pytest.approx(lam_tilde * Ka / Kb, rel=1e-8)

    def test_m_zero_forces_no_lower_pinning(self):
        rng = np.random.default_rng(18)
        for kind in ALL_KINDS:
            for _ in range(20):
                p = random_problem(rng, kind)
                if p.m > 0.0:
                    continue
                _, cert = solve_accuracy(p)
                assert cert.n_minus == 0


class TestWork:
    def test_uniform(self):
        p = WorkProblem(np.ones(4), np.ones(4), 8.0, 0.5, 3.0, 1.0)
        s = closed_form_interior_work(p)
        np.testing.assert_allclose(s.values, 2.0, rtol=1e-12)
        s2, cert = solve_work(p)
        np.testing.assert_allclose(s2.values, 2.0, rtol=1e-12)
        assert cert.n_plus == 0 and cert.n_minus == 0

    def test_two_term(self):
        p = WorkProblem(np.array([1.0, 4.0]), np.ones(2), 3.0, 0.5, 2.5, 1.0)
        s = closed_form_interior_work(p)
        np.testing.assert_allclose(s.values, [1.0, 2.0], rtol=1e-12)
        s2, _ = solve_work(p)
        np.testing.assert_allclose(s2.values, [1.0, 2.0], rtol=1e-12)

    def test_bound_violation_returns_none(self):
        p = WorkProblem(np.array([1.0, 1e6]), np.ones(2), 2.0, 0.0, 1.5, 1.0)
        assert closed_form_interior_work(p) is None

    def test_clipped_three_term(self):
        # weights (1, 2, 3); the interior split (1, 2, 3) violates the upper
        # bound at the last index; after pinning it, the reduced split
        # (3.8/3, 7.6/3) still violates index 1, so both end up pinned.
        p = WorkProblem(np.array([1.0, 4.0, 9.0]), np.ones(3), 6.0, 0.0, 2.2, 1.0)
        s, cert = solve_work(p)
        np.testing.assert_allclose(s.values, [1.6, 2.2, 2.2], rtol=1e-12)
        assert cert.n_minus == 2
        assert np.sum(s.values) == pytest.approx(6.0, rel=1e-12)

    def test_unbounded_upper_work_bound(self):
        # omega_m = inf turns the tight bound off, as m = 0 does for accuracy;
        # weights (1, 2, 3, 4) with omega_M = 1.5 pin the first two and split
        # the remaining 5 as 5/7 * (3, 4)
        p = WorkProblem(np.array([1.0, 4.0, 9.0, 16.0]), np.ones(4), 8.0, 1.5,
                        math.inf, 1.0)
        s, cert = solve_work(p)
        np.testing.assert_allclose(s.values, [1.5, 1.5, 15 / 7, 20 / 7], rtol=1e-14)
        assert (cert.n_plus, cert.n_minus) == (2, 0)
        assert cert.lambda_star == pytest.approx(5 / 7, rel=1e-14)
        assert cert.budget_residual <= 1e-15

    def test_budget_equality_random(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            a = np.exp(rng.uniform(-2, 2, n))
            b = np.exp(rng.uniform(-2, 2, n))
            omega_bar = float(rng.uniform(1.0, 100.0))
            mean = omega_bar / n
            omega_M = mean * rng.uniform(0.0, 0.9)
            omega_m = mean * rng.uniform(1.1, 10.0)
            r = float(rng.uniform(0.0, 3.0))
            p = WorkProblem(a, b, omega_bar, omega_M, omega_m, r)
            s, cert = solve_work(p)
            assert np.sum(s.values) == pytest.approx(omega_bar, rel=1e-10)
            assert np.all(s.values >= omega_M - 1e-12 * omega_bar)
            assert np.all(s.values <= omega_m + 1e-12 * omega_bar)
            if not degenerate(p, cert):
                assert_work_kkt(p, s, cert)

    def test_closed_form_agreement_random(self):
        rng = np.random.default_rng(20)
        hits = 0
        while hits < 60:
            n = int(rng.integers(2, 15))
            a = np.exp(rng.uniform(-1, 1, n))
            b = np.exp(rng.uniform(-1, 1, n))
            omega_bar = float(rng.uniform(1.0, 50.0))
            p = WorkProblem(a, b, omega_bar, omega_bar / n * 0.01,
                            omega_bar / n * 100.0, float(rng.uniform(0.0, 2.0)))
            interior = closed_form_interior_work(p)
            if interior is None:
                continue
            hits += 1
            s, _ = solve_work(p)
            np.testing.assert_allclose(s.values, interior.values, rtol=1e-10)


FIXTURE = Path(__file__).with_name("solver_fixture.json")
FIXTURE_DELTA_REF = 1e-3


def fixture_problem(case):
    """The seeded instance of one fixture record."""
    rng = np.random.default_rng([case["seed"], case["N"]])
    a = np.exp(rng.uniform(-3.0, 3.0, case["N"]))
    b = np.exp(rng.uniform(-3.0, 3.0, case["N"]))
    if case["kind"] == "work":
        return WorkProblem(a, b, float(case["N"]), case["omega_M"], 3.0, case["r"])
    return accuracy_problem(a, b, FIXTURE_DELTA_REF, case["m"], float(case["M"]),
                            case["kind"], case.get("r", 1.0))


class TestRecordedFixture:
    """Differential test against the previous solver's recorded outputs.

    ``solver_fixture.json`` holds (n_plus, n_minus, objective) of the
    bracketing/bisection/fixed-point solver that preceded the breakpoint
    kernel, on a seeded grid: every accuracy kind with m = 0 and m = 0.3,
    M = 4 (and M = inf for power), the work split with r in {0, 1.5} and
    omega_M in {0, 0.3}, each at N in {1, 2, 3, 80, 1000}.
    """

    CASES = json.loads(FIXTURE.read_text())

    def test_grid_covered(self):
        kinds = {c["kind"] for c in self.CASES}
        assert kinds == {POWER, LOGARITHMIC, LOG_SQUARED, "work"}
        assert {c["N"] for c in self.CASES} == {1, 2, 3, 80, 1000}
        assert any(c["n_plus"] for c in self.CASES)
        assert any(c["n_minus"] for c in self.CASES)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['kind']}-s{c['seed']}-N{c['N']}")
    def test_matches_recorded_solver(self, case):
        p = fixture_problem(case)
        solve = solve_work if case["kind"] == "work" else solve_accuracy
        s, cert = solve(p)
        assert (cert.n_plus, cert.n_minus) == (case["n_plus"], case["n_minus"])
        assert float(p.a @ s.values) == pytest.approx(case["objective"], rel=1e-9)
        assert cert.budget_residual <= 1e-10


class TestBruteForceWitness:
    def test_random_small_instances(self):
        rng = np.random.default_rng(21)
        for kind in ALL_KINDS:
            for n in (1, 2, 3, 4):
                p = random_problem(rng, kind, n=n, allow_inf_M=False)
                grid = {1: 2000, 2: 400, 3: 80, 4: 30}[n]
                s, _ = solve_accuracy(p)
                _, obj = brute_force_oracle(p, grid_points=grid)
                slack = brute_force_error_bound(p, grid)
                assert abs(p.a @ s.values - obj) <= slack * (1 + 1e-9)


class TestTiesAndDegenerate:
    def test_constant_coefficients(self):
        # every breakpoint coincides; the reference schedule is optimal
        for kind in ALL_KINDS:
            for n in (1, 2, 7, 1000):
                for m in (0.0, 0.5):
                    p = accuracy_problem(np.full(n, 3.0), np.full(n, 0.2), 1e-3,
                                         m, 4.0, kind, 2.0)
                    s, cert = solve_accuracy(p)
                    np.testing.assert_allclose(s.values, 1e-3, rtol=1e-12)
                    assert (cert.n_plus, cert.n_minus) == (0, 0)
                    assert_budget_and_box(p, s, cert)

    def test_repeated_blocks_match_the_collapsed_instance(self):
        # k copies of three nu levels: whole blocks saturate together, and
        # the solution equals that of one index per block with a, b scaled
        # by k (the same problem after aggregation)
        base_a = np.array([1.0, 10.0, 100.0])
        for kind in ALL_KINDS:
            for m in (0.0, 0.7):
                collapsed = accuracy_problem(50 * base_a, np.full(3, 50.0), 1e-3,
                                             m, 1.5, kind, 1.0)
                s3, cert3 = solve_accuracy(collapsed)
                p = accuracy_problem(np.repeat(base_a, 50), np.ones(150), 1e-3,
                                     m, 1.5, kind, 1.0)
                s, cert = solve_accuracy(p)
                assert (cert.n_plus, cert.n_minus) == (50 * cert3.n_plus,
                                                       50 * cert3.n_minus)
                np.testing.assert_allclose(s.values, np.repeat(s3.values, 50),
                                           rtol=1e-10)
                assert_budget_and_box(p, s, cert)
                if not degenerate(p, cert):
                    assert_kkt(p, s, cert)
        assert cert.n_plus and cert.n_minus  # the last case pins both bounds

    def test_all_pinned_degenerate(self):
        # budget 3 * h(1) = 3 equals 2 * h(2) + 1 * h(0.5): index 0 sits on
        # the loose bound and index 1 on the tight one, with no transient set
        p = accuracy_problem([1.0, 100.0], [2.0, 1.0], 1.0, 0.5, 2.0, POWER, 1.0)
        s, cert = solve_accuracy(p)
        assert degenerate(p, cert) and math.isnan(cert.lambda_star)
        assert (cert.n_plus, cert.n_minus) == (1, 1)
        np.testing.assert_array_equal(s.values, [2.0, 0.5])
        assert cert.budget_residual == 0.0

    def test_all_pinned_degenerate_work(self):
        p = WorkProblem(np.array([1.0, 4.0]), np.ones(2), 3.0, 1.0, 2.0, 1.0)
        s, cert = solve_work(p)
        assert degenerate(p, cert) and math.isnan(cert.lambda_star)
        np.testing.assert_array_equal(s.values, [1.0, 2.0])


class TestExtremeRange:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_log_uniform_e20(self, kind):
        rng = np.random.default_rng(22)
        n = 100_000
        a = np.exp(rng.uniform(-20.0, 20.0, n))
        b = np.exp(rng.uniform(-20.0, 20.0, n))
        p = accuracy_problem(a, b, 1e-3, 0.1, 100.0, kind, 1.0)
        s, cert = solve_accuracy(p)
        assert 0 < cert.n_plus and 0 < cert.n_minus
        assert cert.n_plus + cert.n_minus < n
        assert_budget_and_box(p, s, cert)
        assert_kkt(p, s, cert)


@st.composite
def kernel_instances(draw):
    """Every accuracy kind and the work split, m in {0, 0.1}, N in [1, 2000],
    log-uniform a and b, sometimes in repeated blocks that tie in nu; the
    upper bound is sometimes off (M = inf for power, omega_m = inf for work)."""
    kind = draw(st.sampled_from(ALL_KINDS + ("work",)))
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.floats(0.0, 6.0))
    levels = draw(st.one_of(st.none(), st.integers(1, 6)))
    size = n if levels is None else levels
    a, b = 10.0 ** rng.uniform(-span, span, (2, size))
    if levels is not None:
        a, b = (np.repeat(v, -(-n // levels))[:n] for v in (a, b))
        perm = rng.permutation(n)
        a, b = a[perm], b[perm]
    m = draw(st.sampled_from((0.0, 0.1)))
    if kind == "work":
        return WorkProblem(a, b, float(n), m,
                           draw(st.sampled_from((1.5, 3.0, math.inf))),
                           draw(st.sampled_from((0.0, 1.0, 2.5))))
    uppers = (1.5, 4.0, 100.0) + ((math.inf,) if kind == POWER else ())
    return accuracy_problem(a, b, 1e-3, m, draw(st.sampled_from(uppers)),
                            kind, draw(st.sampled_from((0.5, 1.0, 2.0))))


class TestPartitionSearch:
    """The kernel's interpolating search against the bisection witness."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_instances())
    def test_matches_bisection_within_probe_bound(self, p):
        seen = {}
        real = schedule_solver._saturation_counts

        def spy(n, key, c_hi, c_lo, excess):
            lams = []

            def recorded(lam, i, j):
                lams.append(lam)
                return excess(lam, i, j)
            out = real(n, key, c_hi, c_lo, recorded)
            # the witness runs here: a solver may free what excess reads
            seen.update(witness=bisection_saturation_counts(n, key, c_hi, c_lo, excess),
                        n=n, keys=[key(j) for j in range(n)], c=(c_hi, c_lo),
                        lams=lams, out=out)
            return out
        solve = solve_work if isinstance(p, WorkProblem) else solve_accuracy
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schedule_solver, "_saturation_counts", spy)
            _, cert = solve(p)
        assert seen["out"][:2] == seen["witness"]
        assert (cert.n_plus, cert.n_minus, cert.probes) == seen["out"]
        assert cert.probes == len(seen["lams"])
        # a probe sits on a loose (plus search) or a tight (minus search)
        # breakpoint; one that could be either counts for both sides
        bound = 2 * (seen["n"] - 1).bit_length() + 4
        for c in seen["c"]:
            breakpoints = {k * c for k in seen["keys"]}
            assert sum(lam in breakpoints for lam in seen["lams"]) <= bound

    @pytest.mark.parametrize("row, partition", [("fgm", (241, 0)),
                                                ("random", (0, 3811))])
    def test_log_squared_lambert_w_passes(self, monkeypatch, row, partition):
        # the two log-squared rows of the solve_sweep benchmark at N = 1e4:
        # bisecting the breakpoints took 18 full-range Lambert W passes on
        # each; with a full pass for every probe and Newton step, the W
        # elements evaluated totalled 95 440 and 58 866
        full_pass_elements = {"fgm": 95_440, "random": 58_866}[row]
        n = 10_000
        a, b, m = log_squared_row(row, n)
        calls = record_w_calls(monkeypatch)
        p = accuracy_problem(a, b, 1e-3, m, 100.0, LOG_SQUARED)
        s, cert = solve_accuracy(p)
        assert (cert.n_plus, cert.n_minus) == partition
        full = [(size, transient) for size, transient, _ in calls if transient is not None]
        assert all(size == transient for size, transient in full)
        assert len(full) <= 12
        # every other call is one probe's block ends
        assert all(size == 2 * schedule_solver._BOUND_BLOCKS
                   for size, transient, _ in calls if transient is None)
        assert sum(size for size, _, _ in calls) <= 0.6 * full_pass_elements
        assert_budget_and_box(p, s, cert)


def log_squared_row(row, n):
    """a, b and m of a solve_sweep log-squared job at N = n (seed 0)."""
    if row == "fgm":
        return (*impact_coefficients_fgm(fixed_step_certificates(n, 1.0, 0.0)), 0.0)
    rng = np.random.default_rng([0, n])
    return np.exp(rng.uniform(-3.0, 3.0, n)), np.exp(rng.uniform(-3.0, 3.0, n)), 0.1


def record_w_calls(monkeypatch):
    """(size, transient range or None, in the partition search) of every
    lambert_w0 call; the range is given for a call made by a full-range
    ``_LogSquaredW`` pass, None for any other."""
    calls, state = [], {"range": None, "search": False}
    real_w = cost_models.lambert_w0
    real_pass = schedule_solver._LogSquaredW.__call__
    real_search = schedule_solver._saturation_counts

    def w(x, guess=None):
        calls.append((np.size(x), state["range"], state["search"]))
        return real_w(x, guess)

    def full_pass(self, lam, i, j):
        state["range"] = j - i
        try:
            return real_pass(self, lam, i, j)
        finally:
            state["range"] = None

    def search(*args):
        state["search"] = True
        try:
            return real_search(*args)
        finally:
            state["search"] = False
    monkeypatch.setattr(cost_models, "lambert_w0", w)
    monkeypatch.setattr(schedule_solver._LogSquaredW, "__call__", full_pass)
    monkeypatch.setattr(schedule_solver, "_saturation_counts", search)
    return calls


def differential_instances():
    """Seeded log-squared instances of N 4097 to 40 000 on FGM rows and on
    log-uniform rows (a, b over up to 10^+-8), m in {0, 0.1, 0.5}; the last
    one repeats 7 coefficient pairs, so its nu tie in blocks."""
    rng = np.random.default_rng(20)
    out = []
    for case in range(12):
        n = int(rng.integers(4097, 40_001))
        m = (0.0, 0.1, 0.5)[case % 3]
        dref = 10.0 ** rng.uniform(-6.0, -3.0)
        if case % 2:
            span = rng.uniform(1.0, 8.0)
            a, b = 10.0 ** rng.uniform(-span, span, (2, n))
        else:
            certs = fixed_step_certificates(n, 10.0 ** rng.uniform(-2.0, 2.0), 0.0)
            a, b = impact_coefficients_fgm(certs)
        if case == 11:
            perm = rng.permutation(n)
            a, b = (np.repeat(v[:7], -(-n // 7))[:n][perm] for v in (a, b))
        out.append(accuracy_problem(a, b, dref, m, float(rng.choice((4.0, 100.0))),
                                    LOG_SQUARED))
    return out


class TestLogSquaredBlockBounds:
    """A log-squared probe settles the sign of its excess from block bounds
    where it can, and runs the full-range W pass only where it cannot."""

    def test_same_partitions_as_full_passes(self, monkeypatch):
        settled = 0
        for p in differential_instances():
            calls = record_w_calls(monkeypatch)
            s, cert = solve_accuracy(p)
            settled += sum(transient is None for _, transient, _ in calls)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(schedule_solver, "_BOUND_MIN_RANKS", math.inf)
                s_full, cert_full = solve_accuracy(p)
            assert (cert.n_plus, cert.n_minus) == (cert_full.n_plus, cert_full.n_minus)
            assert float(p.a @ s.values) == pytest.approx(float(p.a @ s_full.values),
                                                          rel=1e-12)
            bound = 2 * ((p.size - 1).bit_length() + 2 + schedule_solver._SEARCH_SLACK)
            for c in (cert, cert_full):
                assert c.budget_residual <= 1e-8
                assert c.probes <= bound
        assert settled > 0

    @pytest.mark.parametrize("row, partition", [("fgm", (24_414, 0)),
                                                ("random", (0, 383_188))])
    def test_solve_sweep_rows_at_n_1e6(self, monkeypatch, wall_clock_guard,
                                       row, partition):
        a, b, m = log_squared_row(row, 1_000_000)
        calls = record_w_calls(monkeypatch)
        p = accuracy_problem(a, b, 1e-3, m, 100.0, LOG_SQUARED)
        s, cert = solve_accuracy(p)
        assert (cert.n_plus, cert.n_minus) == partition
        assert sum(transient is not None and search for _, transient, search in calls) <= 4
        assert_budget_and_box(p, s, cert)


class TestLogSquaredWPasses:
    """The per-solve W cache of the log-squared kind: warm starts only where
    the previous pass is within |dt| <= 1 in t = log(lam)."""

    @staticmethod
    def cache(monkeypatch, n=400):
        rng = np.random.default_rng(21)
        a = np.exp(rng.uniform(-3.0, 3.0, n))
        b = np.exp(rng.uniform(-3.0, 3.0, n))
        p = accuracy_problem(a, b, 1e-3, 0.1, 100.0, LOG_SQUARED)
        guesses = []
        real = cost_models.lambert_w0

        def spy(x, guess=None):
            guesses.append(np.array(guess, copy=True))
            return real(x, guess)
        monkeypatch.setattr(cost_models, "lambert_w0", spy)
        nu = p.b / p.a
        nu = nu[_descending_order(nu)]
        cold = lambda lam, i, j: real(0.5 * lam / nu[i:j])
        return schedule_solver._LogSquaredW(nu), guesses, cold

    def test_pass_beyond_unit_dt_starts_cold(self, monkeypatch):
        w_of, guesses, cold = self.cache(monkeypatch)
        w_of(1e3, 0, 300)
        w = w_of(1e3 * math.exp(1.5), 50, 350)
        assert np.isnan(guesses[0]).all() and np.isnan(guesses[1]).all()
        assert w.tobytes() == cold(1e3 * math.exp(1.5), 50, 350).tobytes()

    def test_pass_within_unit_dt_starts_on_the_overlap(self, monkeypatch):
        w_of, guesses, cold = self.cache(monkeypatch)
        prev = w_of(1e3, 0, 300).copy()
        lam = 1e3 * math.exp(-0.75)
        w = w_of(lam, 50, 350)
        dt = math.log(lam) - math.log(1e3)
        expected = prev[50:] + dt * (prev[50:] / (prev[50:] + 1.0))
        np.testing.assert_allclose(guesses[1][:250], expected, rtol=1e-15)
        assert np.isnan(guesses[1][250:]).all()
        np.testing.assert_allclose(w, cold(lam, 50, 350), rtol=4e-15)

    def test_same_multiplier_takes_no_halley_step(self, monkeypatch):
        w_of, guesses, _ = self.cache(monkeypatch)
        first = w_of(1e3, 0, 300).copy()
        assert w_of(1e3, 0, 300).tobytes() == first.tobytes()
        assert guesses[1].tobytes() == first.tobytes()


class TestSolveSweepJobs:
    def test_bytes_and_partitions(self):
        # the schedule bytes of the power, log and work jobs of the
        # solve_sweep benchmark (seed 0) and the log-squared partitions, as
        # before warm starts and the tie-checked sort; the log-squared
        # objectives to 1e-12
        n = 100_000
        a_fgm, b_fgm = impact_coefficients_fgm(fixed_step_certificates(n, 1.0, 0.0))
        rng = np.random.default_rng([0, n])
        a_rnd = np.exp(rng.uniform(-3.0, 3.0, n))
        b_rnd = np.exp(rng.uniform(-3.0, 3.0, n))
        expected = {
            (POWER, "fgm"): (496, 0, "a97887c784813e16f89f8cf85859e81acd261e974bdd1e7106134e1ba4c3cdab"),
            (POWER, "rnd"): (0, 8188, "805c00365199c792223feca30ab001036a63f77322ffdfd07494671348535680"),
            (LOGARITHMIC, "fgm"): (3818, 0, "6d03db4d5f34b838f7179eca744a7b70fd7851ac947745214884de1da4a787ed"),
            (LOGARITHMIC, "rnd"): (0, 47506, "1bba47f009747c98c2690bc4b7852eec77d12c079d9be237ebaa63e582d6ee03"),
            (LOG_SQUARED, "fgm"): (2437, 0, 43395111042.1299),
            (LOG_SQUARED, "rnd"): (0, 38170, 69.77983234098747),
        }
        for (kind, row), (n_plus, n_minus, pin) in expected.items():
            a, b, m = (a_fgm, b_fgm, 0.0) if row == "fgm" else (a_rnd, b_rnd, 0.1)
            p = accuracy_problem(a, b, 1e-3, m, 100.0, kind, 1.0)
            s, cert = solve_accuracy(p)
            assert (cert.n_plus, cert.n_minus) == (n_plus, n_minus)
            if kind == LOG_SQUARED:
                assert float(p.a @ s.values) == pytest.approx(pin, rel=1e-12)
            else:
                assert hashlib.sha256(s.values.tobytes()).hexdigest() == pin
        s, cert = solve_work(WorkProblem(a_rnd, b_rnd, float(n), 0.1, 2.2, 1.0))
        assert (cert.n_plus, cert.n_minus) == (5524, 20371)
        assert hashlib.sha256(s.values.tobytes()).hexdigest() == (
            "2585fde46dfa48f69f77322d2e634e57b8f3078f025d036e3287172f23a5ff4c")
        _, cert = solve_accuracy(toy_instance())
        assert (cert.n_plus, cert.n_minus) == (10, 0)


class TestBlasThreads:
    """The solver's sums over ranks run in numpy's own loop: OpenBLAS splits
    a long ``@`` across threads (it does at N = 1e6), which made the bits of
    a solve depend on the thread count."""

    CHILD = (
        "import hashlib\n"
        "from tunable_oracle.certificates import (fixed_step_certificates,\n"
        "                                         impact_coefficients_fgm)\n"
        "from tunable_oracle.schedule_solver import accuracy_problem, solve_accuracy\n"
        "a, b = impact_coefficients_fgm(fixed_step_certificates(1_000_000, 1.0, 0.0))\n"
        "for kind, r in (('log_squared', 0.0), ('power', 1.0)):\n"
        "    s, cert = solve_accuracy(accuracy_problem(a, b, 1e-3, 0.0, 100.0, kind, r))\n"
        "    print(kind, hashlib.sha256(s.values.tobytes()).hexdigest(),\n"
        "          repr(cert.lambda_star), repr(cert.budget_residual))\n")

    def test_fgm_rows_at_n_1e6_solve_alike_on_one_and_two_threads(self):
        # the FGM rows of the solve_sweep benchmark (m = 0) at N = 1e6: the
        # value bytes, lambda_star and residual of one child per thread count
        src = os.path.dirname(os.path.dirname(schedule_solver.__file__))
        lines = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", self.CHILD], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            lines.append(run.stdout.splitlines())
        assert [line.split()[0] for line in lines[0]] == ["log_squared", "power"]
        assert lines[1] == lines[0]


class TestLogSquaredNewtonTerminates:
    """Newton steps on t = log(lam) below half an ulp of t (|t| >= 64) leave
    t unchanged; the loop must stop there rather than spin."""

    def test_fgm_row_at_n_20000(self, wall_clock_guard):
        a, b = impact_coefficients_fgm(
            fixed_step_certificates(20_000, 1.0 / 3e-3 + 0.1, 0.1))
        p = accuracy_problem(a, b, 1e-4, 0.0, 100.0, LOG_SQUARED)
        s, cert = solve_accuracy(p)
        assert (cert.n_plus, cert.n_minus) == (17_804, 0)
        assert_budget_and_box(p, s, cert)

    def test_coefficients_over_100_decades(self, wall_clock_guard):
        rng = np.random.default_rng([5, 30])
        n = int(rng.integers(3, 1000))
        a = 10.0 ** rng.uniform(-50.0, 50.0, n)
        b = 10.0 ** rng.uniform(-50.0, 50.0, n)
        p = accuracy_problem(a, b, 1e-3, 0.1, 100.0, LOG_SQUARED)
        s, cert = solve_accuracy(p)
        assert (n, cert.n_plus, cert.n_minus) == (70, 1, 68)
        assert_budget_and_box(p, s, cert)


class TestOnlineRules:
    def test_accuracy_identity(self):
        out = online_extend_accuracy((2.0, 3.0, 1e-3), (4.0, 6.0), 1.0,
                                     (0.0, 1.0))
        assert out == pytest.approx(1e-3)

    def test_accuracy_quarter_ratio(self):
        # b/a ratio shrinks by 4, r = 1 -> sqrt(1/4) scaling
        out = online_extend_accuracy((1.0, 1.0, 1e-3), (4.0, 1.0), 1.0,
                                     (0.0, 1.0))
        assert out == pytest.approx(5e-4)

    def test_accuracy_clipping(self):
        out = online_extend_accuracy((1.0, 1.0, 1e-3), (4.0, 1.0), 1.0,
                                     (8e-4, 1.0))
        assert out == pytest.approx(8e-4)

    def test_online_offline_consistency(self):
        # constant coefficients: the online rule reproduces the constant
        # offline schedule exactly
        p = accuracy_problem(np.ones(8), np.ones(8), 1e-3, 0.0, 10.0, POWER, 1.0)
        s, _ = solve_accuracy(p)
        bounds = (0.0, 10.0 * 1e-3)
        for k in range(8):
            out = online_extend_accuracy((1.0, 1.0, s.values[0]), (1.0, 1.0),
                                         1.0, bounds)
            assert out == pytest.approx(s.values[k], rel=1e-12)


class TestBruteForce:
    def test_symmetric(self):
        p = accuracy_problem(np.ones(2), np.ones(2), 0.01, 0.5, 2.0, POWER, 1.0)
        s, obj = brute_force_oracle(p, grid_points=201)
        solver_s, _ = solve_accuracy(p)
        assert obj <= p.a @ solver_s.values + 1e-15
        assert obj >= p.a @ solver_s.values - brute_force_error_bound(p, 201)
        np.testing.assert_allclose(s.values, 0.01, atol=5e-4)

    def test_four_term_objective(self):
        # optimum equals the interior closed form; its objective is
        # sum(a_k * delta_k) of the Eq.-29 style values, about 0.094444
        p = accuracy_problem([1, 2, 3, 4], np.ones(4), 0.01, 0.5, 2.0,
                             POWER, 1.0)
        solver_s, _ = solve_accuracy(p)
        target = p.a @ solver_s.values
        assert target == pytest.approx(0.0944414, rel=1e-5)
        _, obj = brute_force_oracle(p, grid_points=40)
        assert abs(obj - target) <= brute_force_error_bound(p, 40) + 1e-12

    def test_dominance_binding_bound(self):
        p = accuracy_problem([1.0, 50.0], [1.0, 1.0], 0.01, 0.2, 1.5,
                             POWER, 1.0)
        solver_s, _ = solve_accuracy(p)
        _, obj = brute_force_oracle(p, grid_points=400)
        bound = brute_force_error_bound(p, 400)
        assert p.a @ solver_s.values <= obj + bound

    def test_rejects_large_n(self):
        p = accuracy_problem(np.ones(5), np.ones(5), 0.01, 0.5, 2.0, POWER, 1.0)
        with pytest.raises(SolverError):
            brute_force_oracle(p)


class TestCsvRoundTrip:
    def test_schedule(self, tmp_path):
        s = Schedule(np.array([1e-3, 2.5e-4, 0.1]), "accuracy")
        path = tmp_path / "sched.csv"
        export_schedule(s, str(path))
        s2 = read_schedule(str(path))
        assert s2.kind == "accuracy"
        np.testing.assert_array_equal(s2.values, s.values)

    def test_work_schedule_header(self, tmp_path):
        s = Schedule(np.array([1.0, 2.0]), "work")
        path = tmp_path / "sched.csv"
        export_schedule(s, str(path))
        assert read_schedule(str(path)).kind == "work"

    def test_coefficients(self, tmp_path):
        a = np.array([1.0, math.pi, 1e-17])
        b = np.array([2.0, 0.5, 3.0])
        path = tmp_path / "coeffs.csv"
        write_coefficients(a, b, str(path))
        a2, b2 = import_coefficients(str(path))
        np.testing.assert_array_equal(a2, a)
        np.testing.assert_array_equal(b2, b)

    def test_schedule_bytes(self, tmp_path):
        # CRLF line ends, full-precision floats, ints via str
        path = tmp_path / "sched.csv"
        export_schedule(Schedule(np.array([1.0, 0.1]), "accuracy"), str(path))
        assert path.read_bytes() == b"k,delta\r\n0,1\r\n1,0.10000000000000001\r\n"

    def test_header_only_coefficients_fail_in_the_solver(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("k,a,b\n")
        a, b = import_coefficients(str(path))
        assert a.shape == b.shape == (0,)
        with pytest.raises(SolverError, match="nonempty"):
            accuracy_problem(a, b, 1e-3, 0.0, 10.0, POWER, 1.0)

    def test_header_only_schedule_is_empty(self, tmp_path):
        path = tmp_path / "sched.csv"
        export_schedule(Schedule(np.array([]), "work"), str(path))
        s = read_schedule(str(path))
        assert s.kind == "work" and s.values.shape == (0,)

    @pytest.mark.parametrize("text", ["k,a,b\n0,1\n", "k,a,b\n0,1,2,3\n"],
                             ids=["short", "long"])
    def test_row_width_must_match_header(self, tmp_path, text):
        path = tmp_path / "coeffs.csv"
        path.write_text(text)
        with pytest.raises(HarnessError, match="coeffs.csv: line 2 has"):
            import_coefficients(str(path))

    @pytest.mark.parametrize("text", ["k,a,b\n0,1,2\n1,x,1\n",
                                      "k,a,b\n0,1,2\n1,1,\n"],
                             ids=["word", "blank"])
    def test_non_numeric_cell_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "coeffs.csv"
        path.write_text(text)
        with pytest.raises(HarnessError, match="coeffs.csv: line 3: could not convert"):
            import_coefficients(str(path))

    @pytest.mark.parametrize("text, line, found", [
        ("k,a,b\nfoo,1,2\n", 2, "'foo'"),
        ("k,a,b\n0,1,2\n1.0,1,2\n", 3, "'1.0'"),
        ("k,a,b\n0,1,2\n0,1,2\n", 3, "'0'"),
        ("k,a,b\n0,1,2\n2,1,2\n1,1,2\n", 3, "'2'"),
        ("k,a,b\n1,1,2\n", 2, "'1'")],
        ids=["word", "non_integer", "repeated", "out_of_order", "not_from_zero"])
    def test_k_must_count_rows_from_zero(self, tmp_path, text, line, found):
        path = tmp_path / "coeffs.csv"
        path.write_text(text)
        k = line - 2
        with pytest.raises(HarnessError,
                           match=f"coeffs.csv: line {line}: k must be {k}, got {found}"):
            import_coefficients(str(path))

    @pytest.mark.parametrize("text", [
        "k,a,b,extra\n0,1,2,3\n", "", "k,b,a\n0,1,2\n", "k,delta\n0,1\n"],
        ids=["extra_column", "empty", "swapped_columns", "schedule_as_coefficients"])
    def test_header_must_match(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(HarnessError, match="data.csv: unexpected header"):
            import_coefficients(str(path))


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(SolverError):
            accuracy_problem([1.0], [1.0], 0.01, 1.0, 2.0, POWER, 1.0)
        with pytest.raises(SolverError):
            accuracy_problem([1.0], [1.0], 0.01, 0.0, 1.0, POWER, 1.0)

    def test_log_kind_rejects_infinite_M(self):
        with pytest.raises(SolverError):
            accuracy_problem([1.0], [1.0], 0.01, 0.0, math.inf, LOGARITHMIC)

    def test_log_kind_rejects_budget_crossing_one(self):
        # M * delta_ref >= 1 leaves no positive cost at the upper bound
        with pytest.raises(SolverError):
            accuracy_problem([1.0, 2.0], [1.0, 1.0], 0.1, 0.0, 20.0, LOGARITHMIC)

    def test_work_bounds(self):
        with pytest.raises(SolverError):
            WorkProblem(np.ones(2), np.ones(2), 4.0, 3.0, 5.0, 1.0)

    def test_schedule_problem_rejects_bad_shapes_and_levels(self):
        with pytest.raises(SolverError, match="same length"):
            accuracy_problem([1.0, 2.0], [1.0], 0.01, 0.0, 2.0, POWER, 1.0)
        with pytest.raises(SolverError, match="1-d"):
            accuracy_problem([[1.0, 2.0]], [1.0, 2.0], 0.01, 0.0, 2.0, POWER, 1.0)
        for delta_ref in (math.inf, math.nan):
            with pytest.raises(SolverError, match="delta_ref must be finite"):
                accuracy_problem([1.0], [1.0], delta_ref, 0.0, 2.0, POWER, 1.0)

    def test_work_problem_rejects_bad_shapes_and_levels(self):
        with pytest.raises(SolverError, match="same length"):
            WorkProblem(np.ones(3), np.ones(2), 4.0, 0.0, 5.0, 1.0)
        for omega_bar in (math.inf, math.nan):
            with pytest.raises(SolverError, match="omega_bar must be finite"):
                WorkProblem(np.ones(2), np.ones(2), omega_bar, 0.0, 5.0, 1.0)
        with pytest.raises(SolverError, match="r must be >= 0"):
            WorkProblem(np.ones(2), np.ones(2), 4.0, 0.0, 5.0, -0.5)
        for r in (math.nan, math.inf):
            with pytest.raises(SolverError, match="exponent r must be finite"):
                WorkProblem(np.ones(2), np.ones(2), 4.0, 0.0, 5.0, r)

    def test_budget_residual_rejects_nan(self):
        # a NaN residual fails every comparison, so the check must not
        # pass it as within tolerance
        with pytest.raises(SolverError, match="budget equation violated"):
            schedule_solver._budget_residual(math.nan, 1.0)
        assert schedule_solver._budget_residual(1.0, 1.0) == 0.0

    def test_nonpositive_coefficients(self):
        with pytest.raises(SolverError):
            accuracy_problem([1.0, -1.0], [1.0, 1.0], 0.01, 0.0, 2.0, POWER, 1.0)

    @pytest.mark.parametrize("solve, problem, message", [
        # (b a^r)^(1/(r+1)) underflows to 0 (a^2 = 1e-400), then overflows
        (solve_work, WorkProblem([1e-200, 1.0, 2.0], np.ones(3), 3.0, 0.1, 2.0, 2.0),
         r"the work weight \(b\*a\^r\)\^\(1/\(r\+1\)\) leaves the doubles at index 0"),
        (solve_work, WorkProblem([1.0, 1e200, 2.0], np.ones(3), 3.0, 0.1, 2.0, 2.0),
         r"the work weight .* leaves the doubles at index 1"),
        # the accuracy solve's power weights overflow the same way, and name
        # the input index, not the rank (index 1 ranks last by nu)
        (solve_accuracy, accuracy_problem([1.0, 1e200, 2.0], np.ones(3), 1e-3, 0.1, 10.0,
                                          POWER, 2.0),
         r"the power weight \(b\*a\^r\)\^\(1/\(r\+1\)\) leaves the doubles at index 1"),
        # every transient weight underflows to 0 (b a^2 <= 3e-400): the
        # transient budget over their sum is no double
        (solve_accuracy, accuracy_problem([1e-200] * 3, [1, 2, 3], 1e-3, 0.0, 10.0, POWER, 2.0),
         r"the power weights \(b\*a\^r\)\^\(1/\(r\+1\)\) of the transient ranks "
         r"underflow: budget over their sum leaves the doubles at ranks 0\.\.2"),
        # at r = 0.5 the weights (b a^0.5)^(2/3) ~ 1e-100 stay doubles, but
        # the multiplier -r lam_hat^-(r+1) overflows
        (solve_accuracy, accuracy_problem([1e-300] * 3, [1, 2, 3], 1e-6, 0.0, 10.0,
                                          POWER, 0.5),
         r"the power multiplier -r\*lam_hat\^-\(r\+1\) leaves the doubles at ranks 0\.\.2"),
        (solve_accuracy, accuracy_problem([1.0, 1e-200, 1.0], [1.0, 1e200, 1.0],
                                          1e-3, 0.1, 10.0, POWER),
         r"the accuracy key nu = b/a leaves the doubles at index 1"),
        (solve_accuracy, accuracy_problem([1.0, 1.0, 1e200], [1.0, 1.0, 1e-200],
                                          1e-3, 0.1, 10.0, LOG_SQUARED),
         r"the accuracy key nu = b/a leaves the doubles at index 2"),
        # a and b from 10^U(-150, 150): a log transient value underflows to 0,
        # and a log-squared pass's W argument overflows
        (solve_accuracy, accuracy_problem(
            *10 ** np.random.default_rng(1).uniform(-150, 150, (2, 50)),
            1e-3, 0.0, 100.0, LOGARITHMIC),
         r"the transient values leave the doubles at rank 39"),
        (solve_accuracy, accuracy_problem(
            *10 ** np.random.default_rng(0).uniform(-150, 150, (2, 50)),
            1e-3, 0.0, 100.0, LOG_SQUARED),
         r"the log-squared W argument lam/\(2 nu\) leaves the doubles at rank 36"),
    ])
    def test_ranking_keys_outside_the_doubles_are_named(self, solve, problem, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=message):
                solve(problem)

    @pytest.mark.parametrize("solve", [solve_accuracy, solve_work])
    def test_power_survey_solves_or_names_the_overflow(self, solve):
        # a, b from 10^U(-150, 150) with r = 3: each draw either solves
        # exactly or raises SolverError naming what left the doubles, and no
        # numpy warning escapes
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(2, 1001))
            a, b = 10 ** rng.uniform(-150, 150, (2, n))
            if solve is solve_accuracy:
                p = accuracy_problem(a, b, 1e-3, 0.0, 100.0, POWER, 3.0)
            else:
                p = WorkProblem(a, b, float(n), 0.0, 100.0, 3.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    s, cert = solve(p)
                except SolverError as exc:
                    assert "leaves the doubles" in str(exc)
                    continue
            if solve is solve_accuracy:
                assert_kkt(p, s, cert)
                assert_budget_and_box(p, s, cert)
            else:
                assert_work_kkt(p, s, cert)
