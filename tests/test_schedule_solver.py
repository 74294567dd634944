import json
import math
from pathlib import Path

import numpy as np
import pytest

from tunable_oracle.cost_models import (
    LOG_SQUARED,
    LOGARITHMIC,
    POWER,
    h_derivative,
    h_eval,
)
from tunable_oracle.harness import (
    HarnessError,
    export_coefficients,
    export_schedule,
    import_coefficients,
    import_schedule,
)
from tunable_oracle.schedule_solver import (
    Schedule,
    SolverError,
    WorkProblem,
    _descending_order,
    accuracy_problem,
    brute_force_error_bound,
    brute_force_oracle,
    closed_form_interior_accuracy,
    closed_form_interior_work,
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
            s, _ = solve_work(p)
            assert np.sum(s.values) == pytest.approx(omega_bar, rel=1e-10)
            assert np.all(s.values >= omega_M - 1e-12 * omega_bar)
            assert np.all(s.values <= omega_m + 1e-12 * omega_bar)

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
        s2 = import_schedule(str(path))
        assert s2.kind == "accuracy"
        np.testing.assert_array_equal(s2.values, s.values)

    def test_work_schedule_header(self, tmp_path):
        s = Schedule(np.array([1.0, 2.0]), "work")
        path = tmp_path / "sched.csv"
        export_schedule(s, str(path))
        assert import_schedule(str(path)).kind == "work"

    def test_coefficients(self, tmp_path):
        a = np.array([1.0, math.pi, 1e-17])
        b = np.array([2.0, 0.5, 3.0])
        path = tmp_path / "coeffs.csv"
        export_coefficients(a, b, str(path))
        a2, b2 = import_coefficients(str(path))
        np.testing.assert_array_equal(a2, a)
        np.testing.assert_array_equal(b2, b)

    def test_coefficient_bytes(self, tmp_path):
        # CRLF line ends, full-precision floats, ints via str
        path = tmp_path / "coeffs.csv"
        export_coefficients([1, 0.1], [2.0, 0.25], str(path))
        assert path.read_bytes() == b"k,a,b\r\n0,1,2\r\n1,0.10000000000000001,0.25\r\n"

    def test_coefficient_lengths_must_match(self, tmp_path):
        with pytest.raises(ValueError):
            export_coefficients([1.0, 2.0], [1.0], str(tmp_path / "coeffs.csv"))

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
        s = import_schedule(str(path))
        assert s.kind == "work" and s.values.shape == (0,)

    @pytest.mark.parametrize("text", ["k,a,b\n0,1\n", "k,a,b\n0,1,2,3\n"],
                             ids=["short", "long"])
    def test_row_width_must_match_header(self, tmp_path, text):
        path = tmp_path / "coeffs.csv"
        path.write_text(text)
        with pytest.raises(HarnessError, match="coeffs.csv: line 2 has"):
            import_coefficients(str(path))

    @pytest.mark.parametrize("reader, text", [
        (import_schedule, "k,delta,extra\n0,1,2\n"),
        (import_schedule, "k,a,b\n0,1,2\n"),
        (import_schedule, ""),
        (import_coefficients, "k,b,a\n0,1,2\n")],
        ids=["extra_column", "coefficients_as_schedule", "empty", "swapped_columns"])
    def test_header_must_match(self, tmp_path, reader, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(HarnessError, match="data.csv: unexpected header"):
            reader(str(path))


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

    def test_nonpositive_coefficients(self):
        with pytest.raises(SolverError):
            accuracy_problem([1.0, -1.0], [1.0, 1.0], 0.01, 0.0, 2.0, POWER, 1.0)
