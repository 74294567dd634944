"""The fixed-step runs of a cell step as one block. Every row of a block must
give, byte for byte, what its run gives alone (a batch of one): its records,
terminal point, value, gradient and total work. The same holds one layer
down for the block forms of ``fgm_run``, ``project_simplex``,
``softmax_value_grad``, ``noisy_oracle`` and ``hull_oracle``, and for the
block inner solver ``fista_rows``."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunable_oracle import harness, problems
from tunable_oracle.cost_models import CostModel
from tunable_oracle.fgm import BlockReply, FgmError, fgm_run, project_simplex
from tunable_oracle.problems import (
    InnerState,
    fista_inner,
    fista_rows,
    generate_scenarios,
    hull_oracle,
    hull_value,
    kappa_hat,
    noisy_oracle,
    softmax_value_grad,
)

from test_fgm import noisy_quadratic_oracle

# two horizons, so rows leave the block at N = 20 while others go on to 50
CONFIGS = {
    "exp1": replace(harness.default_config(1), d=5, n=6, p=1.0, r=1.0, mu=0.1,
                    N=(20, 50), seeds=(0, 1, 2), schedules=("tunable", "constant")),
    "exp1_mu0": replace(harness.default_config(1), d=5, n=6, p=1.0, r=1.0, mu=0.0,
                        N=(20, 50), seeds=(0, 1), schedules=("tunable", "constant")),
    "exp2": replace(harness.default_config(2), d=8, n=5, p=1.0, sigma=1e-2, N=(20, 50),
                    seeds=(0, 1), schedules=("tunable", "constant", "poly3")),
}


def _blocks(cfg, monkeypatch):
    """The (config, experiment record, runs) of every block a sweep of cfg
    steps, captured as ``run_experiment`` hands them out."""
    blocks = []
    real = harness._run_block

    def capture(config, exp, runs):
        blocks.append((config, exp, runs))
        return real(config, exp, runs)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_run_block", capture)
        harness.run_experiment(cfg)
    return blocks


def _bytes(outcome):
    """An outcome with every float and array in an exact form."""
    if isinstance(outcome, str):
        return outcome
    records, (x, value, grad, work) = outcome
    return ([repr(rec) for rec in records], x.tobytes(), repr(value),
            grad.tobytes(), repr(work))


def _alone(config, exp, runs):
    """Each run of the block as a batch of one."""
    return {key: got for run in runs
            for key, got in harness._run_block(config, exp, [run]).items()}


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_every_row_has_the_bits_of_its_run_alone(label, monkeypatch):
    blocks = _blocks(CONFIGS[label], monkeypatch)
    # one block per cell: every family, horizon group and seed
    assert len(blocks) == 1
    config, exp, runs = blocks[0]
    assert len(runs) == len(config.seeds) * (len(config.schedules) + 1)
    got = harness._run_block(config, exp, runs)
    want = _alone(config, exp, runs)
    assert got.keys() == want.keys()
    assert all(not isinstance(outcome, str) for outcome in got.values())
    assert {key: _bytes(o) for key, o in got.items()} == \
        {key: _bytes(o) for key, o in want.items()}


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_a_failing_row_fails_alone(label, monkeypatch):
    # one run's schedule returns NaN at step 30: its N = 50 horizon fails
    # with the message of a lone run, N = 20 and every other run stand
    config, exp, runs = _blocks(CONFIGS[label], monkeypatch)[0]
    name, seed, served, cb = runs[-1]
    assert served == (20, 50)
    runs = runs[:-1] + [(name, seed, served,
                         lambda k, A, cb=cb: math.nan if k == 30 else cb(k, A))]
    got = harness._run_block(config, exp, runs)
    assert got[name, seed, 50] == ("the schedule requested delta = nan at "
                                   "iteration 30; need delta >= 0")
    assert not isinstance(got[name, seed, 20], str)
    assert [key for key, o in got.items() if isinstance(o, str)] == [(name, seed, 50)]
    want = _alone(config, exp, runs)
    assert {key: _bytes(o) for key, o in got.items()} == \
        {key: _bytes(o) for key, o in want.items()}


@pytest.mark.parametrize("block_rows", [1, problems._BLOCK_ROWS])
def test_an_exhausted_row_fails_its_run_alone(block_rows, monkeypatch):
    # one run asks for a gap of 1e-300 at step 30, which takes 41 inner
    # iterations; every other step takes at most 30, and the terminal solves,
    # at a loose precision, fewer, so a cap of 35 stops that step alone. With
    # one block row the block meets the cap, else the row's own loop once
    # the block hands it off.
    config, exp, runs = _blocks(CONFIGS["exp2"], monkeypatch)[0]
    name, seed, served, cb = runs[-1]
    runs = runs[:-1] + [(name, seed, served,
                         lambda k, A, cb=cb: 1e-300 if k == 30 else cb(k, A))]
    monkeypatch.setattr(harness, "FSTAR_PRECISION", 1e-4)
    monkeypatch.setattr(problems, "_MAX_INNER", 35)
    monkeypatch.setattr(problems, "_BLOCK_ROWS", block_rows)
    got = harness._run_block(config, exp, runs)
    assert got[name, seed, 50].startswith("inner solver exhausted: gap ")
    assert got[name, seed, 50].endswith(" vs target 1.000e-300 after 35 steps")
    assert [key for key, o in got.items() if isinstance(o, str)] == [(name, seed, 50)]
    want = _alone(config, exp, runs)
    assert {key: _bytes(o) for key, o in got.items()} == \
        {key: _bytes(o) for key, o in want.items()}


def test_an_infinite_request_fails_its_run_alone(monkeypatch):
    # the power cost admits every finite delta; the oracle refuses +inf by
    # name, so the run that asks for it fails and the sweep goes on
    config, exp, runs = _blocks(CONFIGS["exp1"], monkeypatch)[0]
    assert exp.cost.kind == "power" and exp.hi == math.inf
    name, seed, served, cb = runs[-1]
    runs = runs[:-1] + [(name, seed, served,
                         lambda k, A, cb=cb: math.inf if k == 30 else cb(k, A))]
    got = harness._run_block(config, exp, runs)
    assert got[name, seed, 50] == "need a finite delta >= 0, got delta = inf"
    assert [key for key, o in got.items() if isinstance(o, str)] == [(name, seed, 50)]


def test_adaptive_runs_step_one_at_a_time(monkeypatch):
    cfg = replace(harness.default_config(3), d=8, n=5, p=1.0, sigma=1e-2,
                  N=(harness.N_R + 5,), seeds=(0, 1), schedules=("constant", "poly3"))
    blocks = _blocks(cfg, monkeypatch)
    assert [len(runs) for _, _, runs in blocks] == [1] * 4


class TestFgmBlock:
    """``fgm_run`` over a block, against each row run on its own."""

    CENTERS = ([0.6, 0.4, 0.0, 0.0, -0.3], [0.0, 0.0, 1.0, 0.5, 0.5],
               [0.2, 0.2, 0.2, 0.2, 0.2])
    SCHEDULES = (lambda k, A: 1e-2 / (k + 1.0) ** 2, lambda k, A: 0.0 if k % 3 else 1e-3,
                 lambda k, A: 1e-3)

    def _oracles(self):
        return [noisy_quadratic_oracle(c, 3.0, seed=i) for i, c in enumerate(self.CENTERS)]

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_rows_keep_their_bits(self, mu):
        x0 = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.15, 0.25],
                       [0.5, -0.0, 0.5, 0.0, 0.0]])
        horizons = [40, 15, 40]
        oracles = self._oracles()

        def block_oracle(Y, deltas, rows):
            replies = [oracles[row](y, delta) for y, delta, row in zip(Y, deltas, rows)]
            return BlockReply([r.value for r in replies], np.array([r.gradient for r in replies]),
                              [r.delta for r in replies], [r.inner_work for r in replies])
        seen = {row: [] for row in range(3)}

        def observer(rows, records, X):
            for row, rec, x in zip(rows, records, X):
                seen[row].append((rec, x.tobytes()))
        ends, records = fgm_run(block_oracle, list(self.SCHEDULES), horizons, x0,
                                8.0, mu=mu, r2_estimate=1.0, observer=observer)
        assert len(records) == sum(horizons)
        for row, oracle in enumerate(self._oracles()):
            alone = []
            x_end, want = fgm_run(oracle, self.SCHEDULES[row], horizons[row], x0[row],
                                  8.0, mu=mu, r2_estimate=1.0,
                                  observer=lambda rec, x: alone.append((rec, x.tobytes())))
            assert [repr(rec) for rec, _ in seen[row]] == [repr(rec) for rec in want]
            assert [x for _, x in seen[row]] == [x for _, x in alone]
            assert ends[row].tobytes() == x_end.tobytes()

    def test_rejects_a_mismatched_block(self):
        x0 = np.full((2, 2), 0.5)
        schedule = lambda k, A: 0.0
        with pytest.raises(FgmError, match="one start row and one schedule per horizon"):
            fgm_run(None, [schedule], [3, 3], x0, 1.0)
        with pytest.raises(FgmError, match="one run to search"):
            fgm_run(None, [schedule] * 2, [3, 3], x0, 1.0, adaptive=True)
        with pytest.raises(FgmError, match=r"x0 must be a 2-D block, got shape \(2,\)"):
            fgm_run(None, [schedule], [3], np.array([0.5, 0.5]), 1.0)


_ROWS = st.lists(st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                           st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])),
                 min_size=6, max_size=6)


class TestProjectRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ROWS, min_size=1, max_size=8))
    def test_each_row_has_the_bits_of_the_vector_call(self, rows):
        v = np.array(rows)
        out = project_simplex(v)
        assert out.shape == v.shape
        assert [row.tobytes() for row in out] == [project_simplex(r).tobytes() for r in v]

    def test_random_blocks(self):
        rng = np.random.default_rng(3)
        for B, n in ((1, 30), (2, 1), (3, 2), (15, 30), (9, 200)):
            v = rng.standard_normal((B, n)) * rng.uniform(0.1, 100.0, (B, 1))
            out = project_simplex(v)
            assert [row.tobytes() for row in out] == [project_simplex(r).tobytes() for r in v]

    @pytest.mark.parametrize("bad, message", [
        ([1.0, math.nan, 0.0], "cannot project a non-finite vector"),
        ([-math.inf, 0.5, 0.5], "cannot project a non-finite vector"),
        ([1e17, 0.0, 0.0], "no rank qualifies"),
    ])
    def test_a_bad_row_raises_as_the_vector_call(self, bad, message):
        v = np.array([[0.2, 0.3, 0.5], bad, [0.1, 0.1, 0.1]])
        with pytest.raises(FgmError, match=message):
            project_simplex(v)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_row_too_large_to_sum_raises(self):
        v = np.array([[0.2, 0.3, 0.5], [-1.7e308, 1.0, -1.7e308]])
        with pytest.raises(FgmError, match="too large in magnitude"):
            project_simplex(v)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_an_empty_block(self, shape):
        with pytest.raises(FgmError, match="non-empty 2-D block"):
            project_simplex(np.zeros(shape))


class TestSoftmaxBlock:
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("d, n, B", [(5, 6, 1), (30, 100, 15), (200, 100, 4)])
    def test_rows_keep_their_bits(self, mu, d, n, B):
        data = generate_scenarios(n, d, 1.0, 11, mu=mu)
        X = np.random.default_rng(B).dirichlet(np.ones(d), size=B)
        values, grads = softmax_value_grad(data, X)
        alone = [softmax_value_grad(data, x) for x in X]
        assert [repr(v) for v in values] == [repr(v) for v, _ in alone]
        assert [g.tobytes() for g in grads] == [g.tobytes() for _, g in alone]

    @pytest.mark.parametrize("cost", [CostModel("power", 1.0), CostModel("logarithmic")])
    def test_noisy_oracle_rows_keep_their_bits(self, cost):
        # an exact request between noisy ones draws no noise and charges nothing
        data = generate_scenarios(100, 30, 10.0, 1234, mu=0.1)
        X = np.random.default_rng(0).dirichlet(np.ones(30), size=4)
        deltas = [1e-3, 0.0, 2e-2, 1e-3]
        block = noisy_oracle(data, X, deltas, [np.random.default_rng(i) for i in range(4)], cost)
        for i, (x, delta) in enumerate(zip(X, deltas)):
            alone = noisy_oracle(data, x[None, :], [delta], [np.random.default_rng(i)], cost)
            # the noise as first written: a draw scaled by its norm
            grad = softmax_value_grad(data, x)[1]
            if delta > 0.0:
                u = np.random.default_rng(i).standard_normal(30)
                u /= math.sqrt(float(u.dot(u)))
                grad = grad + 100.0 * delta * u
            assert alone.gradient[0].tobytes() == grad.tobytes()
            assert repr(block.value[i]) == repr(alone.value[0])
            assert block.gradient[i].tobytes() == alone.gradient[0].tobytes()
            assert repr(block.delta[i]) == repr(alone.delta[0])
            assert repr(block.inner_work[i]) == repr(alone.inner_work[0])


# (n, d, sigma, seed): n <= d gives kappa_hat > 0 and the constant momentum,
# d < n a rank-deficient Gram matrix and the accelerating t sequence
_HULL_CASES = [(50, 100, 3e-3, 1234), (40, 25, 1e-2, 6)]


def _hull_block(n, d, sigma, seed, B=9):
    """A block of B inner requests: row 0 warm-started at its own point's
    tight solution (it stops at iteration 0), the others cold, warm without
    and warm with a carried O^T w in turn, at loose to tight targets."""
    data = generate_scenarios(n, d, 0.2, seed=seed, sigma=sigma, mu=0.1)
    rng = np.random.default_rng(seed)
    X = rng.dirichlet(np.ones(d), size=B)
    tight = fista_inner(data, X[0], 1e-12, InnerState())
    states, targets = [InnerState(tight.w, tight.Otw)], [1e-6]
    for i, x_prev in enumerate(rng.dirichlet(np.ones(d), size=B - 1)):
        prev = fista_inner(data, x_prev, 1e-4, InnerState())
        states.append((InnerState(), InnerState(prev.w), InnerState(prev.w, prev.Otw))[i % 3])
        targets.append((1e-3, 1e-6, 1e-9)[i // 3 % 3])
    return data, X, targets, states


def _inner_bytes(w, Otw, value, gap, work, converged):
    return w.tobytes(), Otw.tobytes(), repr(value), repr(gap), work, converged


class TestFistaRows:
    """``fista_rows`` against ``fista_inner`` run on each row alone."""

    # one block row: the block iterates to the end; 100: every row hands off
    @pytest.mark.parametrize("block_rows", [1, problems._BLOCK_ROWS, 100])
    @pytest.mark.parametrize("case", _HULL_CASES)
    def test_each_row_has_the_bits_of_its_solve_alone(self, case, block_rows, monkeypatch):
        data, X, targets, states = _hull_block(*case)
        assert (kappa_hat(data) > 0.0) == (case[0] <= case[1])
        inputs = X.tobytes(), [(s.w is None or s.w.tobytes(), repr(s.Otw)) for s in states]
        monkeypatch.setattr(problems, "_BLOCK_ROWS", block_rows)
        got = fista_rows(data, X, targets, states)
        for i, (x, target, state) in enumerate(zip(X, targets, states)):
            alone = fista_inner(data, x, target, state)
            assert _inner_bytes(got.w[i], got.Otw[i], got.value[i], got.gap[i], got.work[i],
                                got.converged[i]) == _inner_bytes(*alone.__dict__.values())
        # a row stops at iteration 0 beside rows that iterate, most of them long
        assert got.work[0] == 0 and sorted(got.work)[2] >= 5 and max(got.work) >= 30
        assert all(got.converged)
        assert (X.tobytes(), [(s.w is None or s.w.tobytes(), repr(s.Otw))
                              for s in states]) == inputs

    @pytest.mark.parametrize("case", _HULL_CASES)
    def test_an_exhausted_row_keeps_its_bits(self, case, monkeypatch):
        # every row but the first runs out of iterations inside the block
        data, X, targets, states = _hull_block(*case)
        targets = targets[:1] + [1e-300] * (len(targets) - 1)
        monkeypatch.setattr(problems, "_MAX_INNER", 7)
        monkeypatch.setattr(problems, "_BLOCK_ROWS", 1)
        got = fista_rows(data, X, targets, states)
        assert got.work == [0] + [7] * (len(X) - 1)
        assert got.converged == [True] + [False] * (len(X) - 1)
        for i, (x, target, state) in enumerate(zip(X, targets, states)):
            alone = fista_inner(data, x, target, state)
            assert _inner_bytes(got.w[i], got.Otw[i], got.value[i], got.gap[i], got.work[i],
                                got.converged[i]) == _inner_bytes(*alone.__dict__.values())

    def test_rejects_a_nonpositive_target(self):
        data, X, targets, states = _hull_block(*_HULL_CASES[0], B=4)
        for bad in (0.0, math.nan):
            with pytest.raises(problems.OracleError, match="delta_target must be > 0"):
                fista_rows(data, X, targets[:3] + [bad], states)


class TestHullOracleBlock:
    @pytest.mark.parametrize("case", _HULL_CASES)
    def test_rows_have_the_bits_of_one_row_blocks(self, case):
        data, X, targets, states = _hull_block(*case)
        lone = [InnerState(s.w, s.Otw) for s in states]
        block = hull_oracle(data, X, targets, states)
        for i, (x, target, state) in enumerate(zip(X, targets, lone)):
            alone = hull_oracle(data, x[None, :], [target], [state])
            assert repr(block.value[i]) == repr(alone.value[0])
            assert block.gradient[i].tobytes() == alone.gradient[0].tobytes()
            assert repr(block.delta[i]) == repr(alone.delta[0])
            assert block.inner_work[i] == alone.inner_work[0]
            # the warm start each leaves behind
            assert states[i].w.tobytes() == state.w.tobytes()
            assert states[i].Otw.tobytes() == state.Otw.tobytes()

    @pytest.mark.parametrize("case", _HULL_CASES)
    def test_sampled_values_have_the_bits_of_one_row_blocks(self, case):
        data, X, _, states = _hull_block(*case)
        before = [(s.w is None or s.w.tobytes(), repr(s.Otw)) for s in states]
        values = hull_value(data, X, 1e-8, states)
        assert [repr(v) for v in values] == [
            repr(hull_value(data, x[None, :], 1e-8, [state])[0]) for x, state in zip(X, states)]
        assert [(s.w is None or s.w.tobytes(), repr(s.Otw)) for s in states] == before
