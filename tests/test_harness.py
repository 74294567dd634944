import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from witnesses import read_schedule, write_coefficients

from tunable_oracle import cli, harness
from tunable_oracle.certificates import (
    fixed_step_certificates,
    impact_coefficients_fgm,
)
from tunable_oracle.cli import main as cli_main
from tunable_oracle.cost_models import CostModel
from tunable_oracle.harness import (
    ALL_SCHEDULES,
    DATA_SEED,
    FSTAR_PRECISION,
    N_R,
    ORACLE_FLOOR,
    ExperimentConfig,
    HarnessError,
    baseline_schedule,
    default_config,
    emit_outputs,
    estimate_fstar,
    load_config,
    parse_config_text,
    run_experiment,
    toy_instance,
)
from tunable_oracle.problems import (
    InnerSolverExhausted,
    InnerState,
    OracleError,
    generate_scenarios,
    hull_oracle,
)
from tunable_oracle.schedule_solver import (
    SolverError,
    accuracy_problem,
    online_extend_accuracy,
    solve_accuracy,
)


TINY_EXP1 = replace(
    default_config(1), d=5, n=6, p=1.0, r=1.0, mu=0.1,
    delta_ref=(1e-3,), N=(20,), seeds=(0, 1),
    schedules=("tunable", "constant"))

TINY_EXP2 = ExperimentConfig(
    experiment=2, d=8, n=5, p=1.0, sigma=1e-2, mu=0.1, r=-1.0,
    delta_ref=(1e-3,), N=(15,), seeds=(0,),
    schedules=("tunable", "constant"))

# N > N_R, so the online rule runs past the bootstrap
TINY_EXP3 = replace(
    default_config(3), d=8, n=5, p=1.0, sigma=1e-2, mu=0.1, r=0.0,
    delta_ref=(1e-4,), N=(60,), seeds=(0,),
    schedules=("online_tunable", "constant", "poly3", "linear"))


class TestConfigParsing:
    def test_basic_lines(self):
        out = parse_config_text("d = 10\nmu = 0.5\n# comment\n\nN = 100, 200\n")
        assert out == {"d": 10, "mu": 0.5, "N": (100, 200)}

    def test_lists_and_auto(self):
        out = parse_config_text(
            "seeds = 0, 1, 2\ndelta_ref = 1e-3, 1e-4\n"
            "schedules = tunable, constant\nr = auto\n")
        assert out["seeds"] == (0, 1, 2)
        assert out["delta_ref"] == (1e-3, 1e-4)
        assert out["schedules"] == ("tunable", "constant")
        assert out["r"] == -1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(HarnessError, match="unknown config key"):
            parse_config_text("bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(HarnessError, match="duplicate"):
            parse_config_text("d = 1\nd = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(HarnessError, match="key = value"):
            parse_config_text("just words\n")

    def test_bad_value_rejected(self):
        with pytest.raises(HarnessError, match="bad value"):
            parse_config_text("mu = soft\n")

    def test_load_config_merges_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("d = 12\nseeds = 7\n")
        cfg = load_config(str(path), experiment=1)
        assert cfg.d == 12 and cfg.seeds == (7,)
        assert cfg.n == default_config(1).n

    def test_int_fields_read_as_int(self, tmp_path):
        # every int-annotated field parses as an int, a new one included
        names = [f.name for f in ExperimentConfig.__dataclass_fields__.values()
                 if f.type in ("int", int) and f.name != "experiment"]
        assert {"d", "n", "sample_every"} <= set(names)
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{name} = 3\n" for name in names))
        cfg = load_config(str(path), experiment=2)
        for name in names:
            assert type(getattr(cfg, name)) is int, name

    def test_load_config_rejects_experiment_key(self, tmp_path):
        # the experiment id comes from the caller only
        path = tmp_path / "cfg.txt"
        path.write_text("experiment = 1\n")
        with pytest.raises(HarnessError, match="unknown config key 'experiment'"):
            load_config(str(path), experiment=1)

    def test_every_key_parses_to_its_annotated_type(self):
        # the annotations declare each field's type once: a scalar parses to
        # it, a tuple[elem, ...] field to a tuple of elem
        hints = get_type_hints(ExperimentConfig)
        assert {name for name, kind in hints.items() if get_origin(kind) is tuple} \
            == {"delta_ref", "N", "seeds", "schedules"}
        raw = {int: "3", float: "0.5", tuple[float, ...]: "1e-3, 2e-3",
               tuple[int, ...]: "3, 1", tuple[str, ...]: "constant, poly3"}
        keys = [name for name in hints if name != "experiment"]
        out = parse_config_text("".join(f"{key} = {raw[hints[key]]}\n" for key in keys))
        for key in keys:
            kind = hints[key]
            if get_origin(kind) is tuple:
                assert type(out[key]) is tuple and len(out[key]) == 2, key
                assert all(type(v) is get_args(kind)[0] for v in out[key]), key
            else:
                assert type(out[key]) is kind, key
        auto = parse_config_text("r = auto\n")["r"]
        assert type(auto) is float and auto == -1.0
        top = parse_config_text("M = inf\n")["M"]
        assert type(top) is float and top == math.inf

    def test_load_config_seed_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seeds = 0, 1\n")
        cfg = load_config(str(path), experiment=1, seeds="9")
        assert cfg.seeds == (9,)


class TestConfigValidation:
    def test_schedule_families_gated(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(experiment=1, d=4, n=4, p=1.0,
                             schedules=("online_tunable",))
        with pytest.raises(HarnessError):
            ExperimentConfig(experiment=3, d=4, n=4, p=1.0,
                             schedules=("tunable",))
        with pytest.raises(HarnessError):
            ExperimentConfig(experiment=1, d=4, n=4, p=1.0,
                             schedules=("mystery",))

    @pytest.mark.parametrize("name, values", [
        ("seeds", (0, 0)), ("N", (15, 15)), ("delta_ref", (1e-3, 1e-3)),
        ("schedules", ("tunable", "constant", "tunable"))])
    def test_duplicate_entries_rejected(self, name, values):
        # a repeated entry repeats its runs and double-counts their work
        with pytest.raises(HarnessError, match=f"{name} lists an entry twice"):
            replace(TINY_EXP2, **{name: values})

    @pytest.mark.parametrize("name, value", [
        ("d", 5.0), ("n", True), ("sample_every", 2.5), ("experiment", 1.0),
        ("N", (20.0,)), ("N", (True,)), ("seeds", (0.0,)), ("seeds", (0, 1.5))],
        ids=str)
    def test_integer_fields_hold_integers(self, name, value):
        # the annotations type the fields, but only the file parser applies
        # them; a float or bool here would be sampled at the wrong steps or
        # fail inside run_experiment, after the scenarios exist
        with pytest.raises(HarnessError, match=f"^{name} must hold integers"):
            replace(TINY_EXP1, **{name: value})

    def test_numpy_integers_accepted(self):
        cfg = replace(TINY_EXP1, N=(np.int64(20),), d=np.int32(5))
        assert cfg.N == (20,) and cfg.d == 5

    @pytest.mark.parametrize("seeds", [(0, -1), (-3,)])
    def test_negative_seeds_rejected(self, seeds):
        # SeedSequence takes non-negative entropy only; reject the config
        # before a sweep fails on it
        with pytest.raises(HarnessError, match="seeds >= 0"):
            replace(TINY_EXP2, seeds=seeds)

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in ("p", "sigma", "mu", "r", "M")
        for value in (math.nan, math.inf, -math.inf)
        if (name, value) != ("M", math.inf)])  # the power cost admits M = inf
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(HarnessError):
            replace(TINY_EXP1, **{name: value})

    @pytest.mark.parametrize("experiment, changes, message", [
        (1, {"sigma": -1.0}, "need sigma > 0 and mu >= 0"),
        (2, {"sigma": 0.0}, "need sigma > 0 and mu >= 0"),
        (2, {"mu": -0.5}, "need sigma > 0 and mu >= 0"),
        (3, {"mu": -1e-300}, "need sigma > 0 and mu >= 0"),
        (1, {"r": -0.5}, "r must be >= 0"),
        (1, {"r": -2.0}, "r must be >= 0"),
        (1, {"r": -5e-324}, "r must be >= 0"),
        (2, {"sigma": 5e-324}, "2/sigma overflows"),
        (1, {"p": 5e-324}, "2/p overflows"),
        (1, {"mu": 5e-324}, "2/mu overflows"),
        (2, {"r": 0.0, "M": math.inf}, "M\\*delta_ref < 1"),
        (1, {"r": 0.0, "M": 1e3}, "M\\*delta_ref < 1"),
        (1, {"experiment": 4}, "unknown experiment 4"),
        (2, {"N": (0,)}, "N values must be >= 1"),
        (3, {"sample_every": 0}, "sample_every must be >= 1")])
    def test_values_a_run_cannot_take_rejected_at_construction(
            self, experiment, changes, message):
        # each would otherwise fail inside run_experiment, once the scenarios
        # exist, or (a negative r) run as r = auto
        with pytest.raises(HarnessError, match=message):
            replace(default_config(experiment), **changes)

    def test_unknown_experiment_has_no_defaults(self):
        with pytest.raises(HarnessError, match="unknown experiment 4"):
            default_config(4)

    def test_negative_r_in_a_config_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("r = -0.5\n")
        with pytest.raises(HarnessError, match="r must be >= 0"):
            load_config(str(path), experiment=1)

    def test_unbounded_M_accepted(self):
        assert replace(TINY_EXP1, M=math.inf).M == math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_delta_ref_rejected(self, value):
        for cfg in (TINY_EXP1, TINY_EXP2):
            with pytest.raises(HarnessError, match="delta_ref values must be finite"):
                replace(cfg, delta_ref=(1e-3, value))

    def test_bounds_ordering(self):
        with pytest.raises(HarnessError, match="M must be > 1"):
            ExperimentConfig(experiment=1, d=4, n=4, p=1.0, M=0.5)

    def test_linear_without_strong_convexity_rejected_before_any_run(self):
        # the linear baseline needs mu > 0; reject the config up front rather
        # than throwing away the runs of the other families
        with pytest.raises(HarnessError, match="linear"):
            replace(TINY_EXP2, mu=0.0,
                    schedules=("tunable", "constant", "linear"))

    def test_log_cost_out_of_domain_rejected_before_any_run(self, monkeypatch):
        # d = 20 > n = 10 resolves r to 0 (the log cost), which needs
        # M * delta_ref < 1; the default M = 100 gives 1
        cfg = replace(default_config(2), delta_ref=(1e-2,), d=20, n=10,
                      N=(20,))

        def no_run(*_args):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "_run_block", no_run)
        with pytest.raises(HarnessError, match=r"M\*delta_ref < 1"):
            run_experiment(cfg)

    def test_linear_base_rounding_to_one_rejected_before_any_run(self, monkeypatch):
        # mu / L ~ 5e-43 passes the config's 2/mu check, but
        # 1 - sqrt(mu/L) rounds to 1; the constant family must not run first
        cfg = ExperimentConfig(experiment=2, d=2, n=2, p=1.0, sigma=1e-2,
                               mu=1e-40, N=(2,), seeds=(0,),
                               schedules=("constant", "linear"))

        def no_run(*_args, **_kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(harness, "fgm_run", no_run)
        with pytest.raises(HarnessError, match=r"0 < 1 - sqrt\(mu/L\) < 1"):
            run_experiment(cfg)

    def test_delta_ref_must_exceed_the_oracle_floor(self):
        # experiments 2 and 3 solve their box from floor/dref up
        for cfg in (TINY_EXP2, TINY_EXP3):
            with pytest.raises(HarnessError, match="oracle floor"):
                replace(cfg, delta_ref=(1e-3, ORACLE_FLOOR))
        # experiment 1 has no inner solver and no floor
        assert replace(TINY_EXP1, delta_ref=(ORACLE_FLOOR,)).delta_ref == (ORACLE_FLOOR,)

    def test_empty_schedules_rejected(self, tmp_path):
        # no family would run and the sweep would report nothing
        with pytest.raises(HarnessError, match="schedules must list at least one entry"):
            replace(TINY_EXP1, schedules=())
        path = tmp_path / "cfg.txt"
        path.write_text("schedules =\n")
        with pytest.raises(HarnessError, match="schedules must list at least one entry"):
            load_config(str(path), experiment=1)

    def test_bootstrap_solved_only_for_the_online_family(self):
        # M * delta_ref = 1 is outside the log cost's domain, but no family
        # here solves a schedule, so the sweep runs
        cfg = replace(TINY_EXP3, delta_ref=(1e-2,), M=100.0,
                      schedules=("constant", "poly3"))
        result = run_experiment(cfg)
        assert not result.failures
        assert {s.schedule for s in result.summaries} == {"constant", "poly3"}


def _around(bound: float) -> list[float]:
    """A bound and the doubles on either side of it."""
    return [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]


@st.composite
def boundary_configs(draw):
    """ExperimentConfig fields: up to four of them at or next to a bound,
    the rest typical; tiny d and n, N = 2 and one seed keep each run short."""
    experiment = draw(st.sampled_from((1, 2, 3)))
    fields = dict(d=2, n=2, p=1.0, sigma=1e-2, mu=0.1, r=-1.0, delta_ref=1e-3,
                  M=100.0)
    edges = dict(d=[0, 1], n=[0, 1], p=_around(0.0), sigma=_around(0.0),
                 mu=_around(0.0), r=_around(-1.0) + _around(0.0),
                 delta_ref=_around(ORACLE_FLOOR))
    for name in draw(st.lists(st.sampled_from([*edges, "M"]), max_size=4, unique=True)):
        if name == "M":  # M > 1, and M*delta_ref < 1 for the log cost
            fields[name] = draw(st.sampled_from(
                _around(1.0) + _around(1.0 / fields["delta_ref"]) + [math.inf]))
        else:
            fields[name] = draw(st.sampled_from(edges[name]))
    solved = "online_tunable" if experiment == 3 else "tunable"
    families = [f for f in ALL_SCHEDULES if f not in ("tunable", "online_tunable")]
    schedules = draw(st.lists(st.sampled_from([solved, *families]), min_size=1,
                              unique=True))
    return {**fields, "experiment": experiment, "N": (2,), "seeds": (0,),
            "delta_ref": (fields["delta_ref"],), "schedules": tuple(schedules)}


class TestConfigBoundaries:
    @settings(max_examples=500, deadline=None)
    @given(boundary_configs())
    def test_rejected_at_construction_or_run(self, fields):
        try:
            config = ExperimentConfig(**fields)
        except HarnessError:
            return
        try:
            run_experiment(config)
        except HarnessError as exc:
            # under r = auto the cost kind comes from the scenario data, so
            # its domain check waits for them; it still fails before any run
            assert config.r == -1.0 and "M*delta_ref < 1" in str(exc)


class TestMatchBudget:
    """The tunable schedule spends the modeled budget of constant δ̄."""

    def test_power_budget_identity(self):
        # under h(d) = 1/d and unit weights the budget equals N / delta_ref
        a = np.linspace(1.0, 5.0, 40)
        p = accuracy_problem(a, np.ones(40), 1e-3, 0.0, 50.0, "power", 1.0)
        sched, _ = solve_accuracy(p)
        assert float(np.sum(1.0 / sched.values)) == pytest.approx(
            40 / 1e-3, rel=1e-8)

    def test_log_budget_identity(self):
        a = np.linspace(1.0, 5.0, 40)
        p = accuracy_problem(a, np.ones(40), 1e-3, 0.0, 50.0, "logarithmic")
        sched, _ = solve_accuracy(p)
        assert float(np.sum(-np.log(sched.values))) == pytest.approx(
            -40 * math.log(1e-3), rel=1e-8)

    def test_constant_family(self):
        sched = baseline_schedule("constant", 1e-2, 0.0, 1.0, 7)
        np.testing.assert_array_equal(sched.values, np.full(7, 1e-2))

    def test_log_domain_rejects_large_upper_bound(self):
        a = np.ones(5)
        with pytest.raises(SolverError):
            accuracy_problem(a, a, 1e-1, 0.0, 20.0, "logarithmic")  # M*dref >= 1

    @pytest.mark.parametrize("kind", ["logarithmic", "log_squared"])
    def test_log_domain_rejects_upper_bound_one(self, kind):
        # M*dref == 1 exactly: h' of log-squared vanishes and both log costs
        # reach 0 at the upper bound, so the problem must reject it
        a = np.ones(5)
        assert 100.0 * 1e-2 == 1.0
        with pytest.raises(SolverError, match="M\\*delta_ref < 1"):
            accuracy_problem(a, a, 1e-2, 0.0, 100.0, kind)


class TestLowerModel:
    def test_linear_model_without_strong_convexity(self):
        # mu = 0: the linear model f + g.(y - x_hat) is smallest at the
        # vertex of the smallest gradient entry
        f, g = 1.5, np.array([2.0, -1.0, 0.5])
        x_hat = np.array([0.2, 0.3, 0.5])
        vertices = [f + float(g @ (e - x_hat)) for e in np.eye(3)]
        assert estimate_fstar(f, g, x_hat, 0.0) == pytest.approx(min(vertices))

    @pytest.mark.parametrize("mu", [0.1, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17,
                                    1e-18, 1e-30])
    def test_between_linear_model_and_mu_above_it(self, mu):
        # The quadratic minimum lies in [lin, lin + mu], as ||e_j - x||^2 <= 2.
        # Projecting x - g/mu loses x near |g|/mu ~ 1e16: without the linear
        # fallback, mu = 1e-17 overshoots lin by 0.153 and mu <= 1e-18
        # raises FgmError.
        data = generate_scenarios(2, 2, 1.0, DATA_SEED, sigma=1e-2, mu=mu)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x_hat = rng.dirichlet(np.ones(2))
            reply = hull_oracle(data, x_hat, FSTAR_PRECISION, InnerState())
            f, g = reply.value, reply.gradient
            lin = f + float(np.min(g)) - float(g @ x_hat)
            tol = 1e-12 * (abs(f) + float(np.abs(g).max()))
            assert lin - tol <= estimate_fstar(f, g, x_hat, mu) <= lin + mu + tol

    def test_random_points_and_gradients(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(2, 40))
            x_hat = rng.dirichlet(np.ones(d))
            g = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            f = float(rng.standard_normal())
            mu = float(np.abs(g).max()) * 10.0 ** rng.uniform(-30, 1)
            lin = f + float(np.min(g)) - float(g @ x_hat)
            tol = 1e-12 * (abs(f) + float(np.abs(g).max()))
            assert lin - tol <= estimate_fstar(f, g, x_hat, mu) <= lin + mu + tol

    def test_tiny_mu_keeps_the_gaps(self):
        # the terminal gaps move by at most mu with it, and no run fails
        def gaps(mu):
            result = run_experiment(ExperimentConfig(
                experiment=2, d=2, n=2, p=1.0, sigma=1e-2, mu=mu, N=(2,),
                seeds=(0,), schedules=("tunable", "constant")))
            assert not result.failures
            return [row.median_gap for row in result.summaries]
        reference = gaps(1e-9)
        assert reference == pytest.approx([0.36741] * 2, abs=1e-5)
        for mu in (1e-12, 1e-15, 1e-17, 1e-30):
            assert gaps(mu) == pytest.approx(reference, abs=1e-6)


class TestBaselines:
    def test_poly3(self):
        sched = baseline_schedule("poly3", 1e-2, 0.0, 1.0, 10)
        assert sched.values[0] == pytest.approx(1e-2)
        assert sched.values[9] == pytest.approx(1e-2 / 1000.0)

    def test_linear_growing_default(self):
        sched = baseline_schedule("linear", 1e-3, 0.25, 1.0, 3)
        # base = 1 - sqrt(0.25) = 0.5 with the growing sign: delta_1 = 2e-3
        assert sched.values[1] == pytest.approx(2e-3)

    def test_linear_needs_strong_convexity(self):
        with pytest.raises(HarnessError):
            baseline_schedule("linear", 1e-3, 0.0, 1.0, 3)

    def test_unknown_baseline(self):
        with pytest.raises(HarnessError):
            baseline_schedule("exotic", 1e-3, 0.1, 1.0, 3)


class TestRunExperiment:
    def test_exp1_deterministic(self, tmp_path):
        out = [emit_outputs(run_experiment(TINY_EXP1), str(tmp_path / f"run{i}"))
               for i in range(2)]
        for p1, p2 in zip(*out):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_exp1_record_shape(self):
        result = run_experiment(TINY_EXP1)
        assert not result.failures
        # 2 schedules x 2 seeds x 20 iterations
        assert len(result.records) == 80
        assert {s.schedule for s in result.summaries} == {"tunable", "constant"}
        for s in result.summaries:
            assert math.isfinite(s.median_gap) and s.total_inner_work > 0.0
        sampled = [rec for rec in result.records if rec.objective is not None]
        assert all(rec.k % TINY_EXP1.sample_every == 0 for rec in sampled)
        assert len(sampled) == 2 * 2 * 2  # k = 0 and k = 10 per run
        # cum_work is each run's running sum of the per-iteration work
        totals = {}
        for rec in result.records:
            run = (rec.schedule, rec.seed)
            totals[run] = totals.get(run, 0.0) + rec.omega
            assert rec.cum_work == totals[run]

    def test_exp1_shared_streams_pair_runs(self):
        result = run_experiment(TINY_EXP1)
        # identical requested delta implies identical work per k across seeds
        recs = {(r.schedule, r.seed, r.k): r for r in result.records}
        for k in range(20):
            assert recs[("constant", 0, k)].delta == recs[("constant", 1, k)].delta

    def test_exp2_runs_and_tracks_inner_work(self):
        result = run_experiment(TINY_EXP2)
        assert not result.failures
        tun = next(s for s in result.summaries if s.schedule == "tunable")
        con = next(s for s in result.summaries if s.schedule == "constant")
        assert tun.total_inner_work > 0.0 and con.total_inner_work > 0.0
        assert tun.r == 0.0  # kappa_hat > 0 for n < d selects the log cost

    @pytest.mark.parametrize("horizons", [(60,), (60, 120)],
                             ids=["one_N", "two_N"])
    def test_exp3_online_schedule_follows_bootstrap(self, horizons):
        # the bootstrap is solved in each (delta_ref, N) cell; every horizon
        # of the sweep follows it
        cfg = replace(TINY_EXP3, N=horizons)
        result = run_experiment(cfg)
        assert not result.failures
        online = [r for r in result.records if r.schedule == "online_tunable"]
        starts = [i for i, rec in enumerate(online) if rec.k == 0] + [len(online)]
        runs = [online[i:j] for i, j in zip(starts, starts[1:])]
        (delta_ref,) = cfg.delta_ref
        # bootstrap: the log-cost solve over the first N_R fixed-step
        # certificates at the validity ceiling 1/sigma + mu, its box from
        # the oracle floor up
        certs = fixed_step_certificates(N_R, 1.0 / cfg.sigma + cfg.mu, cfg.mu)
        a_boot, _ = impact_coefficients_fgm(certs)
        boot = solve_accuracy(accuracy_problem(
            a_boot, np.ones_like(a_boot), delta_ref, ORACLE_FLOOR / delta_ref,
            cfg.M, "logarithmic"))[0].values
        box = (ORACLE_FLOOR, cfg.M * delta_ref)
        assert [[rec.k for rec in run] for run in runs] == [
            list(range(N)) for N in horizons]
        for run in runs:
            for rec in run[:N_R]:
                assert rec.delta == boot[rec.k]
            for rec in run[N_R:]:
                assert rec.delta == online_extend_accuracy(
                    (float(a_boot[-1]), 1.0, float(boot[-1])), (rec.A, 1.0),
                    0.0, box)
        assert {(s.schedule, s.N) for s in result.summaries} == {
            (name, N) for name in cfg.schedules for N in horizons}

    @pytest.mark.parametrize("delta_ref, lowest", [
        (1e-4, ORACLE_FLOOR),
        (2.5920298583946415e-07, math.nextafter(ORACLE_FLOOR, math.inf))])
    def test_solved_schedule_respects_the_oracle_floor(self, delta_ref, lowest):
        # The experiment-3 bootstrap solve over 1e4 steps (log cost): a box
        # starting at 0 puts 977 values below the floor, down to 4.6e-20.
        # The box starts at the floor, so the oracle can certify every
        # solved value as requested. At the second delta_ref the factor
        # floor/delta_ref times delta_ref rounds one ulp below the floor, so
        # the factor steps up and the box starts one ulp above it.
        cfg = replace(default_config(3), delta_ref=(delta_ref,))
        data = generate_scenarios(cfg.n, cfg.d, cfg.p, DATA_SEED,
                                  sigma=cfg.sigma, mu=cfg.mu)
        exp = harness._experiment(cfg, data)
        assert (exp.cost, exp.L, exp.lo) == (CostModel("logarithmic"),
                                             1.0 / cfg.sigma + cfg.mu, ORACLE_FLOOR)
        a, sched = harness._tunable_values(cfg, 10_000, delta_ref, exp)
        values = sched.values
        assert values.min() == lowest >= ORACLE_FLOOR
        budget = -a.size * math.log(delta_ref)
        assert abs(-np.sum(np.log(values)) - budget) <= 1e-10 * budget

    def test_seed_order_does_not_matter(self):
        base = run_experiment(TINY_EXP1)
        flipped = run_experiment(
            ExperimentConfig(**{**{f.name: getattr(TINY_EXP1, f.name)
                                   for f in TINY_EXP1.__dataclass_fields__.values()},
                               "seeds": (1, 0)}))
        assert base.summaries == flipped.summaries

    def test_exp1_log_cost_request_above_one_is_named(self):
        # a baseline clipped to M*delta_ref > 1 asks the log cost for delta > 1;
        # the recorded failure names the cost and the request
        linear = ExperimentConfig(
            experiment=1, d=4, n=3, p=1.0, mu=0.5, r=0.0, delta_ref=(1e-3,),
            M=2000.0, N=(200,), seeds=(0,), schedules=("constant", "linear"))
        above = replace(linear, delta_ref=(2.0,), M=2.0, N=(20,),
                        schedules=("constant", "poly3"))
        for cfg, failed in ((linear, ["linear"]), (above, ["constant", "poly3"])):
            failures = run_experiment(cfg).failures
            assert [f[0] for f in failures] == failed
            for *_, message in failures:
                assert "logarithmic cost" in message
                assert float(message.split("delta = ")[1]) > 1.0

    def test_exp1_log_cost_baseline_above_one_fails_at_build(self, monkeypatch):
        # the linear family's clipped requests pass 1 at k = 33 of 200: the
        # family fails when its schedule is built, before any oracle call
        requests = []
        noisy = harness.noisy_oracle

        def counted(data, x, delta, *args, **kwargs):
            requests.append(delta)
            return noisy(data, x, delta, *args, **kwargs)
        monkeypatch.setattr(harness, "noisy_oracle", counted)
        cfg = ExperimentConfig(
            experiment=1, d=4, n=3, p=1.0, mu=0.5, r=0.0, delta_ref=(1e-3,),
            M=2000.0, N=(200,), seeds=(0,), schedules=("linear",))
        failures = run_experiment(cfg).failures
        assert [f[:4] for f in failures] == [("linear", 0, 200, 1e-3)]
        message = failures[0][4]
        assert message.startswith("the linear schedule asks the logarithmic cost")
        assert "at k = 33: delta = " in message
        assert float(message.split("delta = ")[1]) == pytest.approx(1.18, abs=5e-3)
        # only the noise-free f* reference ran
        assert requests and set(requests) == {0.0}

    def test_terminal_value_exhaustion_is_recorded(self, monkeypatch):
        step_oracle = harness.hull_oracle

        def terminal_exhausts(data, x, delta, state):
            if delta == FSTAR_PRECISION:
                raise InnerSolverExhausted(1.0, delta, 1)
            return step_oracle(data, x, delta, state)
        monkeypatch.setattr(harness, "hull_oracle", terminal_exhausts)
        result = run_experiment(TINY_EXP2)
        assert [f[0] for f in result.failures] == ["tunable", "constant"]
        assert result.records == []
        assert all(math.isnan(s.median_gap) for s in result.summaries)

    def test_domain_error_in_oracle_is_recorded(self, monkeypatch):
        def failing(*_args):
            raise OracleError("inner solver gave up")
        monkeypatch.setattr(harness, "hull_oracle", failing)
        result = run_experiment(TINY_EXP2)
        assert [f[0] for f in result.failures] == ["tunable", "constant"]
        assert all(f[-1] == "inner solver gave up" for f in result.failures)

    @pytest.mark.parametrize("cfg, family", [(TINY_EXP2, "tunable"),
                                             (TINY_EXP3, "online_tunable")])
    def test_schedule_solve_failure_is_recorded(self, monkeypatch, cfg, family):
        # both experiments solve per (delta_ref, N) cell, experiment 3 its
        # online bootstrap; either failure fails that family's runs only
        def failing(_problem):
            raise SolverError("budget bracket not found")
        monkeypatch.setattr(harness, "solve_accuracy", failing)
        cfg = replace(cfg, N=(cfg.N[0], 2 * cfg.N[0]), seeds=(0, 1))
        result = run_experiment(cfg)
        assert sorted(f[:3] for f in result.failures) == sorted(
            (family, seed, N) for N in cfg.N for seed in cfg.seeds)
        assert all(f[-1] == "budget bracket not found" for f in result.failures)
        others = set(cfg.schedules) - {family}
        assert {rec.schedule for rec in result.records} == others
        assert {(rec.schedule, rec.seed) for rec in result.records if rec.k == 0} == {
            (name, seed) for name in others for seed in cfg.seeds}
        by = {(row.schedule, row.N): row.median_gap for row in result.summaries}
        for N in cfg.N:
            assert math.isnan(by[(family, N)])
            assert all(math.isfinite(by[(name, N)]) for name in others
                       if name != "linear")

    def test_long_linear_baseline_is_capped_not_raised(self):
        # (1 - sqrt(mu/L))^-k overflows past k ~ 2880 here; the inf is capped
        # at M delta_ref like every request above it, and the certificate
        # overflow of the run fails the horizon it does not reach, not the sweep
        cfg = ExperimentConfig(experiment=2, d=20, n=10, p=0.2, sigma=1e-3, mu=100.0,
                               r=1.0, delta_ref=(1e-3,), N=(1000, 3000), seeds=(0,),
                               schedules=("constant", "linear"), sample_every=10**9)
        result = run_experiment(cfg)
        assert [f[:3] for f in result.failures] == [("constant", 0, 3000), ("linear", 0, 3000)]
        assert {f[-1] for f in result.failures} == {"certificate overflow at iteration 1624"}
        gaps = {(row.schedule, row.N): row.median_gap for row in result.summaries}
        assert all(math.isfinite(gaps[name, 1000]) for name in cfg.schedules)
        linear = result.schedules["linear_N3000_dref0.001"].values
        assert linear.max() == cfg.M * 1e-3

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_exp1_baselines_stay_in_the_box(self, r):
        # unclipped, the linear baseline grows past 1, where the log cost
        # (r = 0) turns negative, and at r = 1 up to 8e56, where the outer
        # projection fails; clipped at M * delta_ref both run
        cfg = ExperimentConfig(experiment=1, d=4, n=3, p=1.0, mu=0.5, r=r,
                               delta_ref=(1e-3,), M=10.0, N=(200,), seeds=(0,),
                               schedules=("constant", "linear"))
        result = run_experiment(cfg)
        assert not result.failures
        assert {rec.schedule for rec in result.records} == {"constant", "linear"}
        linear = result.schedules["linear_N200_dref0.001"].values
        assert linear.max() == cfg.M * 1e-3 and linear.min() == 1e-3
        assert max(rec.delta for rec in result.records) <= cfg.M * 1e-3

    def test_certificate_overflow_fails_the_build_not_the_sweep(self):
        # sigma = 1 overflows the fixed-step certificates within 2000 steps:
        # the constant runs fail in the FGM and the tunable build on its
        # impact row; both are recorded and the N = 300 results are kept
        cfg = ExperimentConfig(experiment=2, d=4, n=3, p=1.0, sigma=1.0, mu=0.1,
                               N=(300, 2000), seeds=(0,),
                               schedules=("constant", "tunable"))
        with np.errstate(over="ignore"):
            result = run_experiment(cfg)
        assert sorted(f[:3] for f in result.failures) == [
            ("constant", 0, 2000), ("tunable", 0, 2000)]
        tunable = next(f for f in result.failures if f[0] == "tunable")
        assert "certificates must be finite" in tunable[-1]
        assert {(rec.schedule, rec.k) for rec in result.records} == {
            (name, k) for name in cfg.schedules for k in range(300)}
        gaps = {(row.schedule, row.N): row.median_gap for row in result.summaries}
        assert all(math.isfinite(gaps[name, 300]) for name in cfg.schedules)

    @pytest.mark.parametrize("as_number", [float, np.float64])
    def test_close_delta_refs_keep_their_own_schedule_files(self, tmp_path,
                                                            as_number):
        # 1e-3 and 1.0000001e-3 print alike under :g; the labels use the
        # repr of the float, also for numpy scalars
        cfg = replace(TINY_EXP1, seeds=(0,),
                      delta_ref=(as_number(1e-3), as_number(1.0000001e-3)))
        written = emit_outputs(run_experiment(cfg), str(tmp_path))
        names = sorted(Path(path).name for path in written if "schedule_" in path)
        assert names == [f"schedule_{name}_N20_dref{dref}.csv"
                         for name in ("constant", "tunable")
                         for dref in ("0.001", "0.0010000001")]

    def test_programming_error_in_oracle_propagates(self, monkeypatch):
        def broken(*_args):
            raise TypeError("oracle called with a bad argument")
        monkeypatch.setattr(harness, "hull_oracle", broken)
        with pytest.raises(TypeError, match="bad argument"):
            run_experiment(TINY_EXP2)


def _lone_sweeps(cfg):
    """Single-(delta_ref, N) sweeps of ``cfg``, merged in its loop order; the
    summaries in the (N, delta_ref, schedule) order a sweep returns them in."""
    merged = harness.ExperimentResult([], [], {}, [])
    for delta_ref in cfg.delta_ref:
        for N in sorted(cfg.N):
            part = run_experiment(replace(cfg, delta_ref=(delta_ref,), N=(N,)))
            merged.records.extend(part.records)
            merged.summaries.extend(part.summaries)
            merged.schedules.update(part.schedules)
            merged.failures.extend(part.failures)
    merged.summaries.sort(key=lambda s: (s.N, s.delta_ref, s.schedule))
    return merged


def _assert_same_results(got, want, tmp_path):
    assert got.records == want.records
    # repr compares the NaN gaps of failed cells too
    assert repr(got.summaries) == repr(want.summaries)
    assert got.failures == want.failures
    # a sweep stores each schedule as it builds it; the files come out by label
    assert {label: (s.kind, s.values.tobytes()) for label, s in got.schedules.items()} \
        == {label: (s.kind, s.values.tobytes()) for label, s in want.schedules.items()}
    written = [emit_outputs(result, str(tmp_path / name))
               for name, result in (("multi", got), ("lone", want))]
    assert [Path(p).name for p in written[0]] == [Path(p).name for p in written[1]]
    for multi, lone in zip(*written):
        assert Path(multi).read_bytes() == Path(lone).read_bytes()


# unsorted horizons (a, c, b); experiment 3's shortest ends inside the
# bootstrap
MULTI_HORIZON = {
    "exp1": replace(TINY_EXP1, N=(20, 45, 30), delta_ref=(1e-3, 2e-3),
                    schedules=("tunable", "constant", "poly3", "linear")),
    "exp2": replace(TINY_EXP2, N=(15, 40, 25), seeds=(0, 1),
                    schedules=("tunable", "constant", "poly3")),
    "exp3": replace(TINY_EXP3, N=(30, 80, 60)),
}


class TestHorizonSharing:
    """A horizon-free family runs once per (delta_ref, family, seed), at the
    longest horizon; every shorter one must read what a run of its own
    length gives."""

    @pytest.fixture
    def shared_fstar(self, monkeypatch):
        # experiment 1's f* reference runs 4 max(N) steps; the lone sweeps
        # take the full sweep's
        real = harness._reference_fstar_exp1

        def patch(cfg):
            monkeypatch.setattr(harness, "_reference_fstar_exp1",
                                lambda config, exp: real(replace(config, N=cfg.N), exp))
        return patch

    @pytest.mark.parametrize("label", sorted(MULTI_HORIZON))
    def test_matches_single_horizon_sweeps(self, label, tmp_path, shared_fstar):
        cfg = MULTI_HORIZON[label]
        shared_fstar(cfg)
        got = run_experiment(cfg)
        assert not got.failures
        _assert_same_results(got, _lone_sweeps(cfg), tmp_path)

    def test_horizon_free_families_run_once(self, monkeypatch):
        blocks = []
        real = harness._run_block

        def counted(config, exp, runs):
            blocks.append([(name, seed, horizons) for name, seed, horizons, _ in runs])
            return real(config, exp, runs)
        monkeypatch.setattr(harness, "_run_block", counted)
        cfg = MULTI_HORIZON["exp2"]
        run_experiment(cfg)
        # every fixed-step run of the cell steps in one block
        assert len(blocks) == 1
        assert blocks[0] == [("tunable", seed, (N,)) for N in (15, 25, 40) for seed in (0, 1)] + [
            (name, seed, (15, 25, 40)) for name in ("constant", "poly3") for seed in (0, 1)]

    def test_oracle_error_between_horizons(self, monkeypatch, tmp_path, shared_fstar):
        # the constant runs' oracle raises at step 25 (one oracle call per
        # fixed step): N = 20 keeps its rows and summary, N = 30 and 45 fail
        # with the message of a lone run
        cfg = MULTI_HORIZON["exp1"]
        shared_fstar(cfg)
        calls = {}
        noisy = harness.noisy_oracle

        def breaks(data, x, delta, rng, cost):
            # the runs ask for a block of rows, the f* reference for one point
            for stream, request in zip(rng, delta) if x.ndim == 2 else [(rng, delta)]:
                if stream is not None and request in cfg.delta_ref:
                    # the entry keeps the stream alive, so that its id is not reused
                    count = calls.setdefault(id(stream), [stream, 0])
                    count[1] += 1
                    if count[1] > 25:
                        raise OracleError(f"stream broke at call {count[1]}")
            return noisy(data, x, delta, rng, cost)
        monkeypatch.setattr(harness, "noisy_oracle", breaks)
        got = run_experiment(cfg)
        assert [f[:4] for f in got.failures] == [
            ("constant", seed, N, dref) for dref in cfg.delta_ref
            for N in (30, 45) for seed in (0, 1)]
        assert {f[4] for f in got.failures} == {"stream broke at call 26"}
        gaps = {(s.delta_ref, s.N, s.schedule): s.median_gap for s in got.summaries}
        assert all(math.isfinite(gaps[dref, 20, "constant"]) for dref in cfg.delta_ref)
        assert all(math.isnan(gaps[dref, N, "constant"])
                   for dref in cfg.delta_ref for N in (30, 45))
        calls.clear()
        _assert_same_results(got, _lone_sweeps(cfg), tmp_path)

    def test_sampler_error_between_horizons(self, monkeypatch, tmp_path):
        # the third sample of every run (k = 20) raises: N = 15 is kept
        cfg = MULTI_HORIZON["exp2"]
        calls = {}
        sample = harness.hull_value

        def breaks(data, x, precision, state):
            count = calls.setdefault(id(state), [state, 0])
            count[1] += 1
            if count[1] == 3:
                raise InnerSolverExhausted(1.0, precision, 7)
            return sample(data, x, precision, state=state)
        monkeypatch.setattr(harness, "hull_value", breaks)
        got = run_experiment(cfg)
        assert sorted(f[:3] for f in got.failures) == sorted(
            (name, seed, N) for name in cfg.schedules for seed in cfg.seeds
            for N in (25, 40))
        assert {rec.k for rec in got.records} == set(range(15))
        calls.clear()
        _assert_same_results(got, _lone_sweeps(cfg), tmp_path)

    def test_terminal_error_fails_its_own_horizon(self, monkeypatch, tmp_path):
        # the terminal solve of constant, seed 0, N = 25 raises; the run's
        # other horizons keep their results
        cfg = MULTI_HORIZON["exp2"]
        oracle = harness.hull_oracle
        ends = []

        def record(data, x, delta, state):
            if delta == FSTAR_PRECISION:
                ends.append(x.tobytes())
            return oracle(data, x, delta, state)
        monkeypatch.setattr(harness, "hull_oracle", record)
        run_experiment(replace(cfg, N=(25,), seeds=(0,), schedules=("constant",)))
        (end,) = ends

        def breaks(data, x, delta, state):
            if delta == FSTAR_PRECISION and x.tobytes() == end:
                raise InnerSolverExhausted(1.0, delta, 3)
            return oracle(data, x, delta, state)
        monkeypatch.setattr(harness, "hull_oracle", breaks)
        got = run_experiment(cfg)
        assert [f[:3] for f in got.failures] == [("constant", 0, 25)]
        _assert_same_results(got, _lone_sweeps(cfg), tmp_path)

    @pytest.mark.parametrize("label", sorted(MULTI_HORIZON))
    def test_horizon_free_callbacks_agree(self, label):
        # the invariant sharing relies on: a horizon-free family's callback
        # built at max N gives each shorter one's delta, for every k < N and
        # any A_next
        cfg = MULTI_HORIZON[label]
        families = set(ALL_SCHEDULES) - {"tunable", "online_tunable"}
        families.add("online_tunable" if cfg.experiment == 3 else "tunable")
        cfg = replace(cfg, schedules=tuple(sorted(families)))
        data = generate_scenarios(cfg.n, cfg.d, cfg.p, DATA_SEED,
                                  sigma=cfg.sigma, mu=cfg.mu)
        exp = harness._experiment(cfg, data)
        rng = np.random.default_rng(cfg.experiment)
        top = max(cfg.N)
        certs = fixed_step_certificates(top, exp.L, cfg.mu)
        free = [name for name in cfg.schedules if name not in harness._HORIZON_BOUND]
        for name in free:
            for delta_ref in cfg.delta_ref:
                longest, _ = harness._family_schedule(cfg, name, delta_ref, top, exp)
                for N in sorted(cfg.N)[:-1]:
                    cb, _ = harness._family_schedule(cfg, name, delta_ref, N, exp)
                    for k in range(N):
                        for A_next in (certs[k], *10.0 ** rng.uniform(-3, 9, 3)):
                            assert cb(k, A_next) == longest(k, A_next), (name, N, k)
        assert set(free) == families - {"tunable"}

EXPERIMENT_FIXTURE = Path(__file__).with_name("experiment_fixture.json")


class TestRecordedExperiments:
    """Differential test against recorded runs of the tiny configs.

    ``experiment_fixture.json`` holds, per config, the trajectory row count
    and every summary row (exact total inner work, median and mean gap) of
    the harness as it was before the terminal values and the experiment-1
    reference were computed once per run and once per experiment. Its
    ``output_sha256`` block pins the bytes of every CSV that ``emit_outputs``
    writes for each config.
    """

    CASES = json.loads(EXPERIMENT_FIXTURE.read_text())
    CONFIGS = {"TINY_EXP1": TINY_EXP1, "TINY_EXP2": TINY_EXP2,
               "TINY_EXP3": TINY_EXP3}

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_matches_recorded_run(self, label):
        case = self.CASES[label]
        result = run_experiment(self.CONFIGS[label])
        assert not result.failures
        assert len(result.records) == case["trajectory_rows"]
        # the fixture lists each cell's rows in config order; a sweep
        # returns them in summary.csv's (N, delta_ref, schedule) order
        key = lambda row: (row["N"], row["delta_ref"], row["schedule"])
        refs = sorted(case["summaries"], key=key)
        assert len(result.summaries) == len(refs)
        for row, ref in zip(result.summaries, refs):
            assert (row.schedule, row.N, row.delta_ref) == \
                (ref["schedule"], ref["N"], ref["delta_ref"])
            assert row.total_inner_work == ref["total_inner_work"]
            assert row.median_gap == pytest.approx(ref["median_gap"], rel=1e-12)
            assert row.mean_gap == pytest.approx(ref["mean_gap"], rel=1e-12)

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_emitted_bytes_match_recorded_run(self, label, tmp_path):
        written = emit_outputs(run_experiment(self.CONFIGS[label]), str(tmp_path))
        digests = {Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                   for path in written}
        assert digests == self.CASES["output_sha256"][label]


class TestEmitOutputs:
    def test_column_counts_and_headers(self, tmp_path):
        result = run_experiment(TINY_EXP1)
        written = emit_outputs(result, str(tmp_path))
        lines = open(written[0]).read().splitlines()
        assert lines[0] == ("experiment,schedule,seed,k,delta,omega,L,A,"
                            "objective,cum_work")
        assert all(len(line.split(",")) == 10 for line in lines)
        lines = open(written[1]).read().splitlines()
        assert lines[0] == ("experiment,schedule,mu,r,N,delta_ref,"
                            "median_gap,mean_gap,total_inner_work")
        assert all(len(line.split(",")) == 9 for line in lines)
        sched_paths = [p for p in written if "schedule_" in p]
        assert len(sched_paths) == 2
        for path in sched_paths:
            lines = open(path).read().splitlines()
            assert lines[0] == "k,delta"
            assert len(lines) == 21

    def test_unsampled_objective_blank(self, tmp_path):
        result = run_experiment(TINY_EXP1)
        written = emit_outputs(result, str(tmp_path))
        rows = open(written[0]).read().splitlines()[1:]
        k1 = next(r for r in rows if r.split(",")[3] == "1")
        assert k1.split(",")[8] == ""

    def test_schedule_round_trip_full_precision(self, tmp_path):
        sched, _ = solve_accuracy(toy_instance())
        result = run_experiment(TINY_EXP1)
        result.schedules.clear()
        result.schedules["toy"] = sched
        written = emit_outputs(result, str(tmp_path))
        path = next(p for p in written if p.endswith("schedule_toy.csv"))
        back = read_schedule(path)
        np.testing.assert_array_equal(back.values, sched.values)
        assert back.kind == "accuracy"

    def test_empty_result_headers_only(self, tmp_path):
        from tunable_oracle.harness import ExperimentResult
        written = emit_outputs(ExperimentResult([], [], {}, []), str(tmp_path))
        assert open(written[0]).read().splitlines() == [
            "experiment,schedule,seed,k,delta,omega,L,A,objective,cum_work"]
        assert len(open(written[1]).read().splitlines()) == 1


class TestToyInstance:
    def test_shape_and_tiers(self):
        p = toy_instance()
        assert p.size == 80
        np.testing.assert_allclose(p.a, np.arange(1, 81))
        assert float(np.sum(p.b)) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(np.unique(p.b) * 420.0, [2.0, 3.0, 8.0])


class TestCli:
    def test_toy_stdout(self, capsys):
        assert cli_main(["toy"]) == 0
        out = capsys.readouterr().out
        assert "budget=84.83" in out
        assert out.splitlines()[1] == "k,delta"

    def test_certificate_line_reports_budget_residual(self, capsys):
        assert cli_main(["toy"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        residual = float(line.rsplit("budget_residual=", 1)[1])
        assert 0.0 <= residual <= 1e-10

    def test_certificate_lines_report_probes(self, tmp_path, capsys):
        # the partition search's probe count, ahead of budget_residual
        assert cli_main(["toy"]) == 0
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0, 4.0, 9.0], np.ones(3), str(coeffs))
        assert cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                         "--work", "--budget", "6", "--wmin", "0.1", "--wmax", "2.2",
                         "--out", str(tmp_path / "sched.csv")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "N_plus=" in line]
        assert len(lines) == 2
        for line in lines:
            tail = line.split("probes=", 1)[1].split()
            assert int(tail[0]) > 0 and tail[1].startswith("budget_residual=")

    def test_certificate_lines_carry_one_set_of_keys(self, tmp_path, capsys):
        # the accuracy, work and toy solves report through one line, whose
        # budget is the reference budget or omega_bar
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0, 4.0, 9.0], np.ones(3), str(coeffs))
        common = ["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                  "--out", str(tmp_path / "sched.csv")]
        assert cli_main(["toy"]) == 0
        assert cli_main(common + ["--delta-ref", "1e-3", "--m", "0", "--M", "10"]) == 0
        assert cli_main(common + ["--work", "--budget", "6", "--wmin", "0.1",
                                  "--wmax", "2.2"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "N_plus=" in line]
        labels = [line.split(": ", 1)[0] for line in lines]
        assert labels == ["toy instance", "accuracy schedule", "work schedule"]
        for line in lines:
            keys = [cell.split("=", 1)[0] for cell in line.split(": ", 1)[1].split()]
            assert keys == ["N", "N_plus", "N_minus", "lambda_star", "budget", "probes",
                            "budget_residual"]
        assert "budget=6 " in lines[2] and "budget=3000 " in lines[1]

    def test_toy_stdout_table_has_the_files_bytes(self, tmp_path):
        # the bytes after the certificate line, as the process writes them
        # to stdout, are those of the file ``toy --out`` writes
        path = tmp_path / "toy.csv"
        assert cli_main(["toy", "--out", str(path)]) == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        out = subprocess.run([sys.executable, "-m", "tunable_oracle.cli", "toy"], env=env,
                             check=True, capture_output=True, timeout=60).stdout
        head, table = out.split(b"\n", 1)
        assert head.startswith(b"toy instance: N=80 ")
        assert table == path.read_bytes()
        assert table.startswith(b"k,delta\r\n") and table.count(b"\r\n") == 81

    def test_toy_file(self, tmp_path, capsys):
        path = tmp_path / "toy.csv"
        assert cli_main(["toy", "--out", str(path)]) == 0
        sched = read_schedule(str(path))
        assert sched.values.size == 80

    def test_schedule_accuracy_mode(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients(np.arange(1.0, 9.0), np.ones(8), str(coeffs))
        out = tmp_path / "sched.csv"
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                       "--delta-ref", "1e-3", "--m", "0", "--M", "10",
                       "--out", str(out)])
        assert rc == 0
        sched = read_schedule(str(out))
        assert sched.values.size == 8 and sched.kind == "accuracy"
        assert float(np.sum(1.0 / sched.values)) == pytest.approx(8e3, rel=1e-8)

    def test_schedule_work_mode(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0, 4.0, 9.0], np.ones(3), str(coeffs))
        out = tmp_path / "sched.csv"
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                       "--work", "--budget", "6", "--wmin", "0.1",
                       "--wmax", "2.2", "--out", str(out)])
        assert rc == 0
        sched = read_schedule(str(out))
        np.testing.assert_allclose(sched.values, [1.6, 2.2, 2.2], rtol=1e-9)
        assert sched.kind == "work"

    def test_schedule_work_mode_without_upper_bound(self, tmp_path, capsys):
        # --wmax inf turns the upper work bound off; no bound binds, so the
        # budget splits in proportion to the weights (1, 2, 3, 4)
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0, 4.0, 9.0, 16.0], np.ones(4), str(coeffs))
        out = tmp_path / "sched.csv"
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                       "--work", "--budget", "4", "--wmin", "0", "--wmax", "inf",
                       "--out", str(out)])
        assert rc == 0
        assert "N_plus=0 N_minus=0" in capsys.readouterr().out
        sched = read_schedule(str(out))
        np.testing.assert_allclose(sched.values, [0.4, 0.8, 1.2, 1.6], rtol=1e-14)

    def test_schedule_missing_args_fails(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0], [1.0], str(coeffs))
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_schedule_bad_cost_fails(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0], [1.0], str(coeffs))
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "cubic",
                       "--delta-ref", "1e-3", "--m", "0", "--M", "10",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1

    def test_experiment_smoke(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("d = 5\nn = 6\np = 1\nr = 1\nmu = 0.1\n"
                       "N = 10\nseeds = 0\n"
                       "schedules = tunable, constant\n")
        out_dir = tmp_path / "out"
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--out", str(out_dir)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "trajectory.csv" in captured and "summary.csv" in captured
        assert (out_dir / "summary.csv").exists()

    def test_experiment_lines_tell_close_delta_refs_apart(self, tmp_path, capsys,
                                                          monkeypatch):
        # 1e-3 and 1.0000001e-3 print alike under :g; the summary and FAILED
        # lines use the repr of the float, like the schedule file labels
        def tunable_fails(problem):
            raise SolverError("tunable build failed")
        monkeypatch.setattr(harness, "solve_accuracy", tunable_fails)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("d = 5\nn = 6\np = 1\nr = 1\nmu = 0.1\nN = 10\nseeds = 0\n"
                       "delta_ref = 1e-3, 1.0000001e-3\n"
                       "schedules = tunable, constant\n")
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        labels = ["delta_ref=0.001", "delta_ref=0.0010000001"]
        summary = [line for line in captured.out.splitlines()
                   if line.startswith("experiment ")]
        assert [line.split()[4] for line in summary] == [
            lab for lab in labels for _ in ("constant", "tunable")]
        failed = captured.err.splitlines()
        assert [line.split()[5] for line in failed] == [f"{lab}:" for lab in labels]

    def test_experiment_negative_seed_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("")
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--seeds", "0,-1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "seeds >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["", ","])
    def test_experiment_empty_seeds_rejected(self, tmp_path, capsys, seeds):
        # an empty override is an empty list, not "no override": the file's
        # seed must not run
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seeds = 4\n")
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--seeds", seeds, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "seeds must list at least one entry" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["1, x", "0.5"])
    def test_experiment_bad_seeds_name_the_override(self, tmp_path, capsys, seeds):
        # a bad config-file line names its key; a bad override names itself
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("")
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--seeds", seeds, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seeds override: bad value for 'seeds': ")
        assert not (tmp_path / "out").exists()

    def test_experiment_seeds_use_the_config_grammar(self, tmp_path, monkeypatch):
        # --seeds 3,1 and a config file's "seeds = 3, 1" give the same sweep
        seen = []

        def record(config):
            seen.append(config.seeds)
            raise HarnessError("recorded")
        monkeypatch.setattr(cli, "run_experiment", record)
        cfg = tmp_path / "cfg.txt"
        args = ["experiment", "--id", "1", "--config", str(cfg),
                "--out", str(tmp_path / "out")]
        cfg.write_text("seeds = 0\n")
        assert cli_main(args + ["--seeds", "3,1"]) == 1
        cfg.write_text("seeds = 3, 1\n")
        assert cli_main(args) == 1
        assert seen == [(3, 1), (3, 1)]

    def test_experiment_nan_delta_ref_fails(self, tmp_path, capsys):
        # NaN fails no `<= 0` check; it must not run as an exact request
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("delta_ref = nan\n")
        out_dir = tmp_path / "out"
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--out", str(out_dir)])
        assert rc == 1
        assert "delta_ref values must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("cost, h", [
        ("log", lambda d: -np.log(d)), ("logsq", lambda d: np.log(d) ** 2)])
    def test_schedule_log_costs(self, tmp_path, capsys, cost, h):
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients(np.arange(1.0, 9.0), np.ones(8), str(coeffs))
        out = tmp_path / "sched.csv"
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", cost,
                       "--delta-ref", "1e-3", "--m", "0", "--M", "10",
                       "--out", str(out)])
        assert rc == 0
        sched = read_schedule(str(out))
        assert sched.values.size == 8 and sched.kind == "accuracy"
        assert float(np.sum(h(sched.values))) == pytest.approx(8 * h(1e-3), rel=1e-9)

    @pytest.mark.parametrize("extra, message", [
        (["--cost", "power:x", "--delta-ref", "1e-3", "--m", "0", "--M", "10"],
         "bad power exponent"),
        (["--cost", "power:0", "--delta-ref", "1e-3", "--m", "0", "--M", "10"],
         "finite exponent r > 0"),
        (["--cost", "power:nan", "--delta-ref", "1e-3", "--m", "0", "--M", "10"],
         "finite exponent r > 0"),
        (["--cost", "power:inf", "--work", "--budget", "2", "--wmin", "0.1",
          "--wmax", "2"], "finite exponent r > 0"),
        (["--cost", "power:1", "--work", "--budget", "2"],
         "--work requires --budget, --wmin and --wmax"),
        (["--cost", "logsq", "--work", "--budget", "2", "--wmin", "0.1",
          "--wmax", "2"], "power and log costs only"),
        # a flag of the other mode is named, not ignored
        (["--cost", "power:1", "--work", "--budget", "3", "--wmin", "0.1",
          "--wmax", "2", "--delta-ref", "1e-3", "--m", "0.5"],
         "--work does not take --delta-ref, --m"),
        (["--cost", "power:1", "--delta-ref", "1e-3", "--m", "0", "--M", "10",
          "--budget", "99"], "accuracy mode does not take --budget")])
    def test_schedule_bad_arguments_fail(self, tmp_path, capsys, extra, message):
        coeffs = tmp_path / "coeffs.csv"
        write_coefficients([1.0, 2.0], [1.0, 1.0], str(coeffs))
        rc = cli_main(["schedule", "--coeffs", str(coeffs), *extra,
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_schedule_non_numeric_cell_fails(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("k,a,b\n0,x,1\n")
        rc = cli_main(["schedule", "--coeffs", str(coeffs), "--cost", "power:1",
                       "--delta-ref", "1e-3", "--m", "0", "--M", "10",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert f"{coeffs}: line 2: could not convert" in capsys.readouterr().err

    def test_experiment_bad_config_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mystery = 1\n")
        rc = cli_main(["experiment", "--id", "1", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err
