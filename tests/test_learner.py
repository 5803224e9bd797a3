import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from ftrl_bargain import analysis, cli, games, geometry, learner
from ftrl_bargain.games import (
    FIRM,
    WORKER,
    ActionGrid,
    TwoRoundGame,
    UltimatumGame,
    firm_vertex_plan,
    pure_strategy,
    uniform_strategy,
    worker_vertex_plan,
)
from ftrl_bargain.geometry import StructuralError
from ftrl_bargain.learner import LearnerConfig, MonitorSuite, run_dynamics


def g1_config(d=5, eta=0.5, **kw):
    return LearnerConfig(game=UltimatumGame(ActionGrid(d)), eta=eta, **kw)


@pytest.fixture
def no_guard(monkeypatch):
    """Turn the kernel's certificate guard off: every small-step row stops."""
    monkeypatch.setattr(learner, "STOP_EPS", math.inf)


def ftrl_step(agent, cum_util, cfg):
    """One update of the kernel: project reference + eta * cum_util."""
    return learner._updater(cfg, agent)(np.asarray(cum_util, dtype=float))[1]


# Faulty projections ``fault(v, call)``, one per monitor.  ``call`` counts the
# seam's calls from 1; they alternate firm, worker within each step.
def _softmax(v, call):
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _reversed(v, call):
    return geometry.project_simplex(v)[:, ::-1]


def _dip(v, call):
    x = geometry.project_simplex(v)
    x[:, x.shape[1] // 2] = 0.0
    return x / x.sum(axis=1, keepdims=True)


def _rolled_worker(v, call):
    x = geometry.project_simplex(v)
    return np.roll(x, 1, axis=1) if call % 2 == 0 else x


def _tilted_worker(v, call):
    x = geometry.project_simplex(v)
    if call % 2:
        return x
    x = x * (1 + 1e-3 * call * np.arange(x.shape[1]))
    return x / x.sum(axis=1, keepdims=True)


def _leak(share, period):
    """Mix ``share`` of the uniform vector into both outputs on every ``period``-th step."""
    def fault(v, call):
        x = geometry.project_simplex(v)
        return (1 - share) * x + share / x.shape[1] if (call - 1) // 2 % period == 0 else x
    return fault


MONITOR_FAULTS = {
    "lemma1_worker_sorted": _rolled_worker,
    "lemma2_firm_unimodal": _dip,
    "lemma3_worker_stationary": _tilted_worker,
    "lemma4_wmax_mass_decays": _leak(0.001, 1),
    "lemma5_wmax_monotone": _leak(0.01, 2),
    "claim1_mass_difference": _softmax,
    "claim2_order": _reversed,
}


def monitored_run(monkeypatch, cfg, init_f, init_w, fault=None, suite=None):
    """One monitored run; asserts that the suite agrees with the per-step oracle.

    The projection seam records every call's input and output row, optionally
    through ``fault``; those rows feed ``oracles.monitor_loop``.  Returns the
    violations the run added to ``suite`` (a fresh one by default).
    """
    calls = []

    def project(v):
        x = fault(v, len(calls) + 1) if fault else geometry.project_simplex(v)
        calls.append((v[0].copy(), x[0].copy()))
        return x

    monkeypatch.setattr(learner, "_project_simplex", project)
    if suite is None:
        suite = MonitorSuite(cfg)
    before = len(suite.violations)
    learner.run_lockstep(cfg, np.array([init_f]), np.array([init_w]), suite)
    steps = [(2 + i, *calls[2 * i], *calls[2 * i + 1]) for i in range(len(calls) // 2)]
    added = suite.violations[before:]
    assert added == [(m, 0, t, d) for m, t, d in oracles.monitor_loop(init_f, init_w, steps)]
    return added


def of_row(violations, row):
    """The ``(monitor, step, detail)`` of the violations on stack row ``row``."""
    return [(m, t, d) for m, r, t, d in violations if r == row]


def recorder(log, then=None):
    """A ``run_lockstep`` observer that appends each step's ``(t, rows, stacks)`` to ``log``.

    ``stacks`` are copies of ``x_f, x_w, v_f, v_w, new_f, new_w``; the call
    is then passed on to the observer ``then``, if any.
    """
    def observe(t, rows, x, v, new):
        log.append((t, rows.copy(), [np.array(a) for a in (*x, *v, *new)]))
        if then is not None:
            then(t, rows, x, v, new)
    return observe


def observed_row(log, row):
    """``(t, stacks)`` of the steps in ``log`` where stack row ``row`` was live, its rows only."""
    return [(t, [a[rows.tolist().index(row)] for a in stacks]) for t, rows, stacks in log if row in rows]


def monitored_stack(cfg, init_f, init_w, eta=None, suite=None):
    """One monitored stack; asserts that each row's violations are the per-step
    oracle's on that row's live steps.

    A recording observer in front of the suite checks that each step's live
    rows are the rows that have not retired yet, in row order.  Returns the
    violations the stack added to ``suite`` (a fresh one by default).
    """
    seen = []
    if suite is None:
        suite = MonitorSuite(cfg)
    before = len(suite.violations)
    run = learner.run_lockstep(cfg, init_f, init_w, recorder(seen, suite), eta=eta)
    added = suite.violations[before:]
    for t, rows, _ in seen:
        assert rows.tolist() == np.flatnonzero((run.converged_at == 0) | (run.converged_at >= t)).tolist()
    for r in range(len(init_f)):
        steps = [(t, v_f, new_f, v_w, new_w) for t, (_, _, v_f, v_w, new_f, new_w) in observed_row(seen, r)]
        assert of_row(added, r) == oracles.monitor_loop(init_f[r], init_w[r], steps)
    return added


class TestConfig:
    def test_defaults_by_game(self):
        cfg = g1_config()
        assert cfg.threshold == 1e-7 and cfg.steps_cap == 8000
        cfg2 = LearnerConfig(game=TwoRoundGame(ActionGrid(5), 0.9), eta=0.5)
        assert cfg2.threshold == 1e-6 and cfg2.steps_cap == 15000

    def test_validation(self):
        with pytest.raises(ValueError):
            g1_config(eta=0.0)
        with pytest.raises(ValueError):
            g1_config(conv_threshold=0.0)
        with pytest.raises(ValueError):
            g1_config(max_steps=0)
        with pytest.raises(ValueError):
            LearnerConfig(game=TwoRoundGame(ActionGrid(5), 0.9), eta=0.5, arithmetic="exact")
        with pytest.raises(ValueError):
            LearnerConfig(game=TwoRoundGame(ActionGrid(5), 0.9), eta=0.5, reference_f=0.2)
        with pytest.raises(ValueError):
            g1_config(reference_f=0.123)  # off-grid reference

    @pytest.mark.parametrize("kw", [
        dict(eta=float("nan")), dict(eta=float("inf")), dict(conv_threshold=float("nan")),
        dict(conv_threshold=float("inf")), dict(conv_threshold=float("inf"), arithmetic="exact"),
    ], ids=["eta-nan", "eta-inf", "conv_threshold-nan", "conv_threshold-inf",
            "conv_threshold-inf-exact"])
    def test_meaningless_stop_rules_rejected(self, kw):
        # each would otherwise run silently to the step cap or fail mid-run
        with pytest.raises(ValueError):
            g1_config(**kw)

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3"])
    def test_non_integer_max_steps_rejected(self, steps):
        # unchecked, 2.5 fails only inside the step loop
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            g1_config(max_steps=steps)

    def test_integer_max_steps_stored_as_int(self):
        cfg = g1_config(max_steps=np.int64(3))
        assert type(cfg.max_steps) is int and cfg.steps_cap == 3
        assert run_dynamics(cfg, uniform_strategy(cfg.grid), uniform_strategy(cfg.grid)).steps == 3

    def test_stop_eps_bounds_accepted(self, monkeypatch):
        # the guard reads STOP_EPS when it runs: 0 stops only exact equilibria,
        # inf (the tests' way to turn the guard off) stops every row
        cfg = g1_config()
        eq, uniform = pure_strategy(cfg.grid, 0.0), uniform_strategy(cfg.grid)
        x = np.array([eq, uniform])
        monkeypatch.setattr(learner, "STOP_EPS", 0.0)
        assert learner._certified_rows(cfg, x, x).tolist() == [True, False]
        monkeypatch.setattr(learner, "STOP_EPS", math.inf)
        assert learner._certified_rows(cfg, x, x).tolist() == [True, True]

    def test_reference_index(self):
        cfg = g1_config(reference_f=0.4)
        assert cfg.reference_index(FIRM) == 2
        assert cfg.reference_index(WORKER) is None
        cfg = g1_config(d=30, reference_f=Fraction(1, 6), reference_w=29 / 30)
        assert (cfg.reference_index(FIRM), cfg.reference_index(WORKER)) == (5, 29)


class TestFtrlStep:
    def test_zero_cumulative_zero_reference_is_uniform(self):
        cfg = g1_config()
        np.testing.assert_allclose(ftrl_step(FIRM, np.zeros(6), cfg), np.full(6, 1 / 6), atol=1e-15)

    def test_zero_cumulative_pure_reference(self):
        cfg = g1_config(reference_w=0.6)
        np.testing.assert_allclose(ftrl_step(WORKER, np.zeros(6), cfg), pure_strategy(cfg.grid, 0.6), atol=1e-15)

    def test_projection_example(self):
        cfg = g1_config(d=2, eta=1.0)
        out = ftrl_step(FIRM, np.array([0.5, 0.2, 0.2]), cfg)
        np.testing.assert_allclose(out, [16 / 30, 7 / 30, 7 / 30], atol=1e-12)

    def test_two_round_step_projects_onto_treeplex(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        cfg = LearnerConfig(game=game, eta=0.5)
        tp = games.build_treeplex(game, WORKER)
        out = ftrl_step(WORKER, np.zeros(tp.n_sequences), cfg)
        assert geometry.validate_plan(out, tp)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ftrl_step(FIRM, np.array([np.nan] * 6), g1_config())


@pytest.mark.usefixtures("no_guard")
class TestDetectConvergence:
    """The kernel's step-size stop rule, with the certificate guard off."""

    def test_identical(self):
        # eta large enough that the first update lands on the initial profile
        cfg = g1_config(eta=10.0, reference_w=0.0)
        x = pure_strategy(cfg.grid, 0.0)
        assert run_dynamics(cfg, x, x).converged_at == 2

    def test_uniform_vs_pure(self):
        cfg = g1_config(eta=10.0, reference_w=0.0, max_steps=2)
        traj = run_dynamics(cfg, uniform_strategy(cfg.grid), uniform_strategy(cfg.grid))
        assert not traj.converged

    def test_boundary_inclusive(self):
        cfg = g1_config(d=6, eta=0.5, max_steps=2)
        init_f, init_w = uniform_strategy(cfg.grid), pure_strategy(cfg.grid, 0.5)
        (f0, w0), (f1, w1) = run_dynamics(cfg, init_f, init_w, keep_history=True).history
        moved = max(np.abs(f1 - f0).max(), np.abs(w1 - w0).max())
        assert moved > 0.0
        # the largest move sits exactly at the threshold, then just above it
        at = g1_config(d=6, eta=0.5, max_steps=2, conv_threshold=moved)
        assert run_dynamics(at, init_f, init_w).converged_at == 2
        below = g1_config(d=6, eta=0.5, max_steps=2, conv_threshold=np.nextafter(moved, 0))
        assert not run_dynamics(below, init_f, init_w).converged

    def test_dimension_mismatch(self):
        # steps compare strategies of one dimension: the initials are checked first
        cfg = g1_config()
        with pytest.raises(StructuralError):
            run_dynamics(cfg, uniform_strategy(ActionGrid(4)), uniform_strategy(cfg.grid))


class TestUltimatumDynamics:
    def test_fixed_point_persistence(self):
        cfg = g1_config(d=5, eta=0.5)
        first = run_dynamics(cfg, pure_strategy(cfg.grid, 0.4), pure_strategy(cfg.grid, 0.4))
        assert first.converged
        again = run_dynamics(cfg, first.final_f, first.final_w)
        assert again.converged and again.converged_at <= first.converged_at + 10
        np.testing.assert_allclose(again.final_f, first.final_f, atol=1e-7)
        np.testing.assert_allclose(again.final_w, first.final_w, atol=1e-7)

    def test_paper_budget_d30(self):
        cfg = g1_config(d=30, eta=0.5)
        traj = run_dynamics(cfg, pure_strategy(cfg.grid, 0.0), pure_strategy(cfg.grid, 1.0))
        assert traj.converged and traj.converged_at <= 8000

    def test_determinism_bitwise(self):
        cfg = g1_config(d=12, eta=0.7)
        rng = np.random.default_rng(3)
        x = rng.exponential(size=13)
        init_f = x / x.sum()
        y = rng.exponential(size=13)
        init_w = y / y.sum()
        t1 = run_dynamics(cfg, init_f, init_w)
        t2 = run_dynamics(cfg, init_f, init_w)
        assert t1.converged_at == t2.converged_at
        assert np.array_equal(t1.final_f, t2.final_f)
        assert np.array_equal(t1.final_w, t2.final_w)

    def test_iterates_stay_on_simplex(self):
        cfg = g1_config(d=8, eta=0.9)
        traj = run_dynamics(cfg, uniform_strategy(cfg.grid), pure_strategy(cfg.grid, 1.0), keep_history=True)
        for x_f, x_w in traj.history:
            assert geometry.check_simplex(x_f)
            assert geometry.check_simplex(x_w)

    def test_non_convergence_is_data(self):
        cfg = g1_config(d=10, eta=0.5, max_steps=3)
        traj = run_dynamics(cfg, pure_strategy(cfg.grid, 0.0), pure_strategy(cfg.grid, 1.0))
        assert traj.converged_at is None and traj.steps == 3

    def test_guard_mixed_verdicts_in_one_step(self, monkeypatch):
        # At D=10 with references (1/2, 1) the (0.1, 0.5) and (0.4, 0.5) rows
        # hit step-size plateaus that are no equilibrium while (0.0, 0.5)
        # converges at step 8: one stacked certificate rejects and accepts rows
        # of the same step, and every row still ends as it would alone.
        cfg = g1_config(d=10, reference_f=0.5, reference_w=1.0)
        inits = [(0.1, 0.5), (0.0, 0.5), (0.4, 0.5)]
        init_f = np.array([pure_strategy(cfg.grid, f) for f, _ in inits])
        init_w = np.array([pure_strategy(cfg.grid, w) for _, w in inits])
        verdicts = []
        gap_rows = analysis._gap_rows

        def spy(game, x_f, x_w):
            gap_f, gap_w, br, u_w = gap_rows(game, x_f, x_w)
            verdicts.append(np.maximum(gap_f, gap_w) <= learner.STOP_EPS)
            return gap_f, gap_w, br, u_w

        monkeypatch.setattr(analysis, "_gap_rows", spy)
        run = learner.run_lockstep(cfg, init_f, init_w)
        assert any(v.any() and not v.all() for v in verdicts)
        for k in range(len(inits)):
            traj = run_dynamics(cfg, init_f[k], init_w[k])
            assert (int(run.converged_at[k]) or None) == traj.converged_at
            assert np.array_equal(run.final_f[k], traj.final_f)
            assert np.array_equal(run.final_w[k], traj.final_w)
        assert run.converged_at[1] == 8 < run.converged_at[0]

    def test_invalid_initials_rejected(self):
        cfg = g1_config()
        with pytest.raises(StructuralError):
            run_dynamics(cfg, np.ones(6), uniform_strategy(cfg.grid))

    def test_regret_rate_decreases(self, no_guard):
        cfg = g1_config(d=10, eta=0.5, max_steps=8000, conv_threshold=1e-300)
        rng = np.random.default_rng(11)
        x = rng.exponential(size=11)
        y = rng.exponential(size=11)
        traj = run_dynamics(cfg, x / x.sum(), y / y.sum(), keep_history=True)
        checkpoints = [500, 1000, 2000, 4000, 8000]
        for reg in learner.regret(cfg, traj.history):
            rates = [reg[min(t, len(reg)) - 1] / min(t, len(reg)) for t in checkpoints]
            for a, b in zip(rates, rates[1:]):
                assert b <= a + 1e-9

    def test_monitor_suite_clean_on_valid_run(self):
        cfg = g1_config(d=9, eta=0.8)
        monitors = MonitorSuite(cfg)
        rng = np.random.default_rng(5)
        x = rng.exponential(size=10)
        # worker init sorted: the firm-unimodality law conditions on it
        y = np.sort(rng.exponential(size=10))[::-1]
        learner.run_lockstep(cfg, np.array([x / x.sum()]), np.array([y / y.sum()]), monitors)
        assert monitors.violations == []

    def test_lemma2_premise_needs_sorted_worker_init(self, no_guard):
        # with an unsorted worker initial mixture the firm's second iterate
        # can legitimately dip and rise again, so the audit draws sorted ones
        cfg = g1_config(d=5, eta=0.8, max_steps=6)
        monitors = MonitorSuite(cfg)
        init_w = np.array([0.5, 0.0, 0.0, 0.5, 0.0, 0.0])
        learner.run_lockstep(cfg, np.array([uniform_strategy(cfg.grid)]), np.array([init_w]), monitors)
        assert any(v[0] == "lemma2_firm_unimodal" for v in monitors.violations)

    @pytest.mark.parametrize("monitor", learner.MONITORS)
    def test_monitor_fires_on_injected_fault(self, monkeypatch, no_guard, monitor):
        # negative control: each monitor fires under its own faulty projection,
        # and the same run without the fault is clean
        cfg = g1_config(d=5, eta=0.5, max_steps=60, conv_threshold=1e-300)
        init_f, init_w = pure_strategy(cfg.grid, 0.8), np.array([2, 1, 0, 0, 0, 0]) / 3
        assert monitored_run(monkeypatch, cfg, init_f, init_w) == []
        names = {v[0] for v in monitored_run(monkeypatch, cfg, init_f, init_w,
                                             MONITOR_FAULTS[monitor])}
        assert monitor in names


class TestMonitorBlocks:
    """The block check reports what checking each step as it happens reports."""

    def test_audit_draws_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(42)
        for _ in range(30):
            d, eta, wf, ww = cli._audit_draw(rng)
            monitored_run(monkeypatch, g1_config(d=d, eta=eta), wf / wf.sum(), ww / ww.sum())

    def test_unsorted_worker_inits_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(7)
        found = []
        for _ in range(10):
            d = int(rng.integers(3, 13))
            wf, ww = rng.integers(1, 100, size=(2, d + 1))
            found += monitored_run(monkeypatch, g1_config(d=d, eta=0.5), wf / wf.sum(), ww / ww.sum())
        assert "lemma2_firm_unimodal" in {v[0] for v in found}

    def test_violations_straddle_block_edges(self, monkeypatch, no_guard):
        cfg = g1_config(d=5, eta=0.5, max_steps=3 * learner.BLOCK + 20, conv_threshold=1e-300)
        found = monitored_run(monkeypatch, cfg, uniform_strategy(cfg.grid),
                              np.array([2, 1, 0, 0, 0, 0]) / 3, _tilted_worker)
        steps = {v[2] for v in found}
        # blocks hold steps 2..BLOCK+1, BLOCK+2..2*BLOCK+1, ...
        assert {k * learner.BLOCK + e for k in (1, 2, 3) for e in (1, 2)} <= steps

    def test_suite_reused_across_runs(self):
        # each row of each stack skips its own first transition, however many
        # steps the suite saw, and the first stack's unchecked remainder is
        # checked with the second's steps; unsorted worker inits make lemma2
        # fire.  A suite watches one grid, so both stacks share one D.
        rng = np.random.default_rng(7)
        d = int(rng.integers(3, 13))
        cfg = g1_config(d=d, max_steps=200)
        stacks = []
        for k in (3, 4):
            wf, ww = rng.integers(1, 100, size=(2, k, d + 1))
            stacks.append((wf / wf.sum(axis=1, keepdims=True), ww / ww.sum(axis=1, keepdims=True),
                           list(rng.integers(20, 101, size=k) / 100)))
        fresh = [v for f, w, eta in stacks for v in monitored_stack(cfg, f, w, eta)]
        suite = MonitorSuite(cfg)
        for f, w, eta in stacks:
            monitored_stack(cfg, f, w, eta, suite=suite)
        assert suite.violations == fresh and fresh

    @given(data=st.data())
    def test_arbitrary_stacks_match_oracle(self, data):
        # empty and single-entry supports, ties, NaNs and one-step runs, in
        # stacks of 1 to 5 rows that leave at random steps, checked on blocks
        # of several sizes, which may end between the rows of a step
        n = data.draw(st.integers(1, 6))
        lives = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
        k, steps = len(lives), max(lives)
        entry = st.one_of(st.sampled_from([0.0, 1e-11, 0.25, 0.5, 1.0, np.nan]), st.floats(-1, 1))
        init_f, init_w = (data.draw(arrays(float, (k, n), elements=entry)) for _ in range(2))
        v_f, x_f, v_w, x_w = (data.draw(arrays(float, (steps, k, n), elements=entry)) for _ in range(4))
        # no ActionGrid has fewer than 3 entries: a stand-in config gives the width
        suite = MonitorSuite(SimpleNamespace(game=UltimatumGame(ActionGrid(2)), arithmetic="float",
                                             grid=SimpleNamespace(size=n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learner, "BLOCK", data.draw(st.sampled_from([1, 2, 5, learner.BLOCK])))
            prev_f, prev_w = init_f, init_w
            for s in range(steps):
                rows = np.flatnonzero(np.array(lives) > s)
                suite(2 + s, rows, (prev_f[rows], prev_w[rows]), (v_f[s, rows], v_w[s, rows]),
                      (x_f[s, rows], x_w[s, rows]))
                prev_f, prev_w = x_f[s], x_w[s]
        for r, life in enumerate(lives):
            live = [(2 + s, v_f[s, r], x_f[s, r], v_w[s, r], x_w[s, r]) for s in range(life)]
            assert of_row(suite.violations, r) == oracles.monitor_loop(init_f[r], init_w[r], live)
        # a retired row gets no violation after its last live step, and the
        # report runs in step order, then row order
        assert all(t <= 1 + lives[r] for _, r, t, _ in suite.violations)
        assert suite.violations == sorted(suite.violations, key=lambda v: (v[2], v[1]))


class TestPerRowInputs:
    """Per-row learning rates and one stack's monitor suite: each row runs as it would alone."""

    ETAS = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(37, 100), 2.0]

    @staticmethod
    def stack(d=6, arithmetic="float"):
        # at the step cap of 120 the rows stop at steps 36, 22, 42 and 10 and
        # the first runs to the cap, so rows retire at five different times
        rng = np.random.default_rng(7)
        wf, ww = rng.integers(1, 10, size=(2, len(TestPerRowInputs.ETAS), d + 1))
        cfg = g1_config(d=d, eta=0.5, max_steps=120, arithmetic=arithmetic)
        if arithmetic == "exact":
            inits = [np.array([[Fraction(int(v), int(row.sum())) for v in row] for row in w],
                              dtype=object) for w in (wf, ww)]
        else:
            inits = [w / w.sum(axis=1, keepdims=True) for w in (wf, ww)]
        return cfg, *inits

    def test_float_rows_match_rows_alone(self):
        cfg, init_f, init_w = self.stack()
        run = learner.run_lockstep(cfg, init_f, init_w, eta=self.ETAS)
        assert run.converged_at.tolist() == [0, 36, 22, 42, 10]
        for k, eta in enumerate(self.ETAS):
            traj = run_dynamics(dataclasses.replace(cfg, eta=eta), init_f[k], init_w[k])
            assert (int(run.converged_at[k]) or None) == traj.converged_at
            for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
                assert np.array_equal(getattr(run, name)[k], getattr(traj, name)), name

    def test_exact_rows_match_rows_alone(self):
        cfg, init_f, init_w = self.stack(arithmetic="exact")
        run = learner.run_lockstep(cfg, init_f, init_w, eta=self.ETAS)
        assert run.converged_at.tolist() == [0, 36, 22, 42, 10]
        for k, eta in enumerate(self.ETAS):
            traj = run_dynamics(dataclasses.replace(cfg, eta=eta), init_f[k], init_w[k])
            assert (int(run.converged_at[k]) or None) == traj.converged_at
            for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
                assert list(getattr(run, name)[k]) == list(getattr(traj, name)), name

    @pytest.mark.parametrize("arithmetic", ["float", "exact"])
    @pytest.mark.parametrize("bad", [0, -0.5, float("nan"), float("inf"), "short"])
    def test_bad_rates_rejected(self, arithmetic, bad):
        cfg, init_f, init_w = self.stack(arithmetic=arithmetic)
        eta = self.ETAS[:-1] if bad == "short" else self.ETAS[:-1] + [bad]
        with pytest.raises(ValueError, match="eta|learning rates"):
            learner.run_lockstep(cfg, init_f, init_w, eta=eta)

    @pytest.mark.parametrize("arithmetic", ["float", "exact"])
    def test_rows_observe_what_they_observe_alone(self, arithmetic):
        # each row's previous strategies, projection inputs and new
        # strategies, at each of its live steps, are its solo run's
        cfg, init_f, init_w = self.stack(arithmetic=arithmetic)
        stacked = []
        learner.run_lockstep(cfg, init_f, init_w, recorder(stacked), eta=self.ETAS)
        for k, eta in enumerate(self.ETAS):
            alone = []
            learner.run_lockstep(dataclasses.replace(cfg, eta=eta), init_f[k:k + 1], init_w[k:k + 1],
                                 recorder(alone))
            assert all(rows.tolist() == [0] for _, rows, _ in alone)
            mine, solo = observed_row(stacked, k), observed_row(alone, 0)
            assert [t for t, _ in mine] == [t for t, _ in solo] and len(solo) > 1
            for (_, got), (_, want) in zip(mine, solo):
                assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @pytest.mark.parametrize("arithmetic", ["float", "exact"])
    def test_previous_strategies_are_last_new_ones(self, arithmetic):
        # each stack is converted for the observer once per step: its previous
        # strategies are the arrays it got as new ones a step before, and after
        # a row retires, the live rows of those
        cfg, init_f, init_w = self.stack(arithmetic=arithmetic)
        calls = []
        learner.run_lockstep(cfg, init_f, init_w, lambda t, rows, x, v, new: calls.append((rows, x, new)),
                             eta=self.ETAS)
        retired = 0
        for (rows, _, new), (now, x, _) in zip(calls, calls[1:]):
            if now.tolist() == rows.tolist():
                assert x[0] is new[0] and x[1] is new[1]
            else:
                retired += 1
                live = np.isin(rows, now)
                assert all(a.tolist() == b[live].tolist() for a, b in zip(x, new))
        assert retired == 4   # rows retire at steps 10, 22, 36 and 42

    def test_monitors_rejected_off_float_one_shot(self):
        # a suite refuses, at construction, the stacks it cannot check
        cfg, _, _ = self.stack(arithmetic="exact")
        with pytest.raises(ValueError, match="monitors apply to float one-shot runs only"):
            MonitorSuite(cfg)
        game = TwoRoundGame(ActionGrid(3), 0.9)
        with pytest.raises(ValueError, match="monitors apply to float one-shot runs only"):
            MonitorSuite(LearnerConfig(game=game, eta=0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_initial_rows_rejected(self, bad):
        # unchecked, such a row reaches the projection mid-run and aborts the whole stack
        cfg, init_f, init_w = self.stack()
        init_w[3, 2] = bad
        with pytest.raises(ValueError, match="initial worker row 3 is not finite"):
            learner.run_lockstep(cfg, init_f, init_w)
        game = TwoRoundGame(ActionGrid(3), 0.9)
        plans = [np.array([plan(game, 0.0, 0.0)] * 3) for plan in (firm_vertex_plan, worker_vertex_plan)]
        plans[0][1, 0] = bad
        with pytest.raises(ValueError, match="initial firm row 1 is not finite"):
            learner.run_lockstep(LearnerConfig(game=game, eta=0.5), *plans)

    @pytest.mark.parametrize("fault", [None, _dip, _softmax], ids=["clean", "dip", "softmax"])
    def test_row_suites_match_one_suite_per_run(self, monkeypatch, fault):
        # the faults act on each row alone, so a row's violations do not
        # depend on the rows stacked with it
        if fault is not None:
            monkeypatch.setattr(learner, "_project_simplex", lambda v: fault(v, 0))
        cfg, init_f, init_w = self.stack()
        init_w = np.sort(init_w, axis=1)[:, ::-1]   # sorted: the firm-unimodality premise
        suite = MonitorSuite(cfg)
        learner.run_lockstep(cfg, init_f, init_w, suite, eta=self.ETAS)
        alone = []
        for k, eta in enumerate(self.ETAS):
            alone.append(MonitorSuite(cfg))
            learner.run_lockstep(dataclasses.replace(cfg, eta=eta), init_f[k:k + 1], init_w[k:k + 1],
                                 alone[-1])
        assert [of_row(suite.violations, k) for k in range(len(alone))] == [
            of_row(s.violations, 0) for s in alone]
        assert bool(suite.violations) == (fault is not None)


def _reversed_head(v):
    """Reverse each row's first four entries: a fault within every row's own grid."""
    x = geometry.project_simplex(v)
    x[:, :4] = x[:, 3::-1]
    return x


class TestMonitorSuite:
    """A suite is an observer of float one-shot stacks of its config's grid."""

    def test_one_shot_suite_on_two_round_stack_raises_at_step_2(self):
        game = TwoRoundGame(ActionGrid(3), 0.9)
        plans = [np.array([plan(game, 0.0, 0.0)]) for plan in (firm_vertex_plan, worker_vertex_plan)]
        seen = []
        with pytest.raises(ValueError, match="monitors check rows of 4 entries"):
            learner.run_lockstep(LearnerConfig(game=game, eta=0.5), *plans,
                                 recorder(seen, MonitorSuite(g1_config(d=3))))
        assert [t for t, _, _ in seen] == [2]

    def test_remainder_checked_when_read(self, monkeypatch, no_guard):
        # fewer than BLOCK row-steps stay in the buffer after the run; reading
        # the violations checks them, so the injected fault is reported
        monkeypatch.setattr(learner, "_project_simplex", lambda v: _dip(v, 0))
        cfg = g1_config(d=5, eta=0.5, max_steps=21, conv_threshold=1e-300)
        suite = MonitorSuite(cfg)
        learner.run_lockstep(cfg, np.array([uniform_strategy(cfg.grid)]),
                             np.array([[2, 1, 0, 0, 0, 0]]) / 3, suite)
        assert 0 < suite._pending < learner.BLOCK
        assert "lemma2_firm_unimodal" in {v[0] for v in suite.violations}
        assert suite._pending == 0


class TestEmptyStack:
    """A stack of zero rows returns an empty ``Lockstep`` before the first step,
    without calling its observer."""

    @pytest.mark.parametrize("case", ["float_g1", "float_g2", "exact_g1", "float_g1_monitored"])
    def test_returns_before_first_step(self, case):
        arithmetic, game_name = case.split("_")[:2]
        if game_name == "g1":
            game = UltimatumGame(ActionGrid(4))
            n_f = n_w = game.grid.size
        else:
            game = TwoRoundGame(ActionGrid(3), 0.9)
            n_f, n_w = (games.build_treeplex(game, agent).n_sequences for agent in (FIRM, WORKER))
        eta = Fraction(1, 2) if arithmetic == "exact" else 0.5
        cfg = LearnerConfig(game=game, eta=eta, arithmetic=arithmetic)
        dtype = object if arithmetic == "exact" else float
        monitors = MonitorSuite(cfg) if case.endswith("monitored") else None

        def observe(t, rows, x, v, new):
            raise AssertionError(f"an empty stack took step {t}")

        run = learner.run_lockstep(cfg, np.zeros((0, n_f), dtype=dtype), np.zeros((0, n_w), dtype=dtype),
                                   monitors or observe)
        assert run.converged_at.shape == (0,) and run.converged_at.dtype == np.int64
        for out, n in ((run.final_f, n_f), (run.final_w, n_w), (run.cum_util_f, n_f), (run.cum_util_w, n_w)):
            assert out.shape == (0, n) and out.dtype == dtype
        if monitors is not None:
            assert monitors._buffer == []   # a call, even on zero rows, would buffer a step
            assert monitors.violations == []


class TestInitialRows:
    """``run_lockstep`` refuses the first initial row off its polytope before the
    first step, naming its agent and row; ``run_dynamics`` refuses it alone."""

    TWO_ROUND = TwoRoundGame(ActionGrid(3), 0.9)
    # case: (config, the agent whose row is broken, how the row breaks)
    CASES = {
        "one_shot_sum_2": (g1_config(), FIRM, lambda row: 2 * row),
        "negative_entry": (g1_config(), WORKER, lambda row: row + np.r_[-0.5, 0.5, [0] * (len(row) - 2)]),
        "wider_than_grid": (g1_config(), FIRM, lambda row: np.append(row, 0.0)),
        "padded_mixed_width": (g1_config(), FIRM, lambda row: 1.5 * row),
        "exact_sum_2": (g1_config(eta=Fraction(1, 2), arithmetic="exact"), FIRM, lambda row: 2 * row),
        "two_round_doubled_plan": (LearnerConfig(game=TWO_ROUND, eta=0.5), FIRM, lambda row: 2 * row),
    }

    @classmethod
    def stack(cls, case: str, k: int) -> tuple[list, list]:
        """``k`` valid initial rows per agent; padded ones are one-shot rows of grid sizes 3-5."""
        cfg = cls.CASES[case][0]
        if case == "two_round_doubled_plan":
            return ([firm_vertex_plan(cls.TWO_ROUND, 2 / 3, 1 / 3)] * k,
                    [worker_vertex_plan(cls.TWO_ROUND, 1 / 3, 0.0)] * k)
        if case == "exact_sum_2":
            return [[np.full(cfg.grid.size, Fraction(1, cfg.grid.size), dtype=object)] * k] * 2
        sizes = (3, 4, 5, 3, 4)[:k] if case == "padded_mixed_width" else (cfg.grid.D,) * k
        return [[uniform_strategy(ActionGrid(d)) for d in sizes]] * 2

    @pytest.mark.parametrize("case, k", [(case, k) for case in CASES for k in (1, 5)
                                         if (case, k) != ("padded_mixed_width", 1)])
    def test_refused_before_first_step(self, case, k):
        # a uniform-width stack one entry too wide breaks every row, so row 0 is named
        cfg, agent, breaks = self.CASES[case]
        valid = self.stack(case, k)
        assert learner.run_lockstep(cfg, *valid).converged_at.all()
        bad = 0 if case == "wider_than_grid" or k == 1 else 3
        a = 0 if agent == FIRM else 1
        init = [list(x) for x in valid]
        init[a] = [breaks(row) if case == "wider_than_grid" or i == bad else row
                   for i, row in enumerate(init[a])]
        what = "an exact simplex point" if cfg.arithmetic == "exact" else "on its polytope"
        message = f"^initial {agent} row {bad} is not {what}$"
        seen = []
        with pytest.raises(StructuralError, match=message):
            learner.run_lockstep(cfg, *init, recorder(seen))
        assert seen == []
        alone = g1_config(d=len(valid[0][bad]) - 1) if case == "padded_mixed_width" else cfg
        with pytest.raises(StructuralError, match=message.replace(f"row {bad}", "row 0")):
            run_dynamics(alone, init[0][bad], init[1][bad])


class TestMixedWidths:
    """Float one-shot stacks of mixed grid sizes: each row runs as on its own grid."""

    # D=6 at eta 10: the guard rejects a step-size plateau, then the row
    # converges at step 8
    PLATEAU = (6, 10.0, np.array([69, 3, 81, 14, 54, 30, 80]),
               np.array([95, 92, 74, 60, 42, 41, 18]))

    @classmethod
    def draws(cls):
        rng = np.random.default_rng(42)
        return [cli._audit_draw(rng) for _ in range(12)] + [cls.PLATEAU]

    @pytest.mark.parametrize("fault, cap", [(None, None), (_reversed_head, 150)],
                             ids=["clean", "reversed_head"])
    def test_rows_match_per_grid_stacks(self, monkeypatch, fault, cap):
        if fault is not None:
            monkeypatch.setattr(learner, "_project_simplex", fault)
        verdicts = []
        gap_rows = analysis._gap_rows

        def spy(game, x_f, x_w):
            gap_f, gap_w, br, u_w = gap_rows(game, x_f, x_w)
            verdicts.append(np.maximum(gap_f, gap_w) <= learner.STOP_EPS)
            return gap_f, gap_w, br, u_w

        monkeypatch.setattr(analysis, "_gap_rows", spy)
        draws = self.draws()
        sizes = sorted({d for d, *_ in draws})
        inits = [(cli._audit_inits(wf, False), cli._audit_inits(ww, False)) for _, _, wf, ww in draws]
        etas = [eta for _, eta, _, _ in draws]
        cfg = g1_config(d=sizes[-1], max_steps=cap)
        suite = MonitorSuite(cfg)
        mixed = learner.run_lockstep(cfg, [f for f, _ in inits], [w for _, w in inits], suite,
                                     eta=etas)
        assert len(sizes) >= 8 and mixed.widths.tolist() == [d + 1 for d, *_ in draws]
        if fault is None:
            assert mixed.converged_at[-1] == 8 and any(not v.all() for v in verdicts)
        else:
            assert {row for _, row, _, _ in suite.violations} == set(range(len(draws)))
        for d in sizes:
            idx = [i for i, (size, *_) in enumerate(draws) if size == d]
            alone = MonitorSuite(g1_config(d=d))
            run = learner.run_lockstep(g1_config(d=d, max_steps=cap),
                                       *(np.array([inits[i][a] for i in idx]) for a in (0, 1)),
                                       alone, eta=[etas[i] for i in idx])
            for row, i in enumerate(idx):
                got, want = mixed.trajectory(i, cfg.steps_cap), run.trajectory(row, cfg.steps_cap)
                assert (got.converged_at, got.steps) == (want.converged_at, want.steps)
                for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
                    assert getattr(got, name).shape == (d + 1,), name
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert of_row(suite.violations, i) == of_row(alone.violations, row)

    def test_large_rates_keep_pads_finite(self):
        # eta * PAD_UTILITY overflows above ~1e8 unless the pads scale with
        # the row's rate (the suite turns the overflow warning into an
        # error); the rows must still run as on their own grids
        rng = np.random.default_rng(7)
        sizes, etas = (3, 5, 3, 5, 4), [1e9, 1e9, 1e150, 0.5, 1e12]
        inits = [[rng.dirichlet(np.ones(d + 1)) for d in sizes] for _ in (FIRM, WORKER)]
        mixed = learner.run_lockstep(g1_config(), *inits, eta=etas)
        for d in sorted(set(sizes)):
            idx = [i for i, size in enumerate(sizes) if size == d]
            run = learner.run_lockstep(g1_config(d=d), *(np.array([x[i] for i in idx]) for x in inits),
                                       eta=[etas[i] for i in idx])
            for row, i in enumerate(idx):
                got, want = mixed.trajectory(i, 8000), run.trajectory(row, 8000)
                assert got.converged_at == want.converged_at is not None
                for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_observer_sees_padded_rows(self):
        # a row of D=3 in a D=5 stack shows the observer six entries: its own
        # four, as it observes them alone on its own grid, then pads of mass
        # 0 whose projection inputs lie far below every real entry
        rng = np.random.default_rng(7)
        sizes = (3, 5, 3)
        inits = [[rng.dirichlet(np.ones(d + 1)) for d in sizes] for _ in (FIRM, WORKER)]
        mixed = []
        learner.run_lockstep(g1_config(), *inits, recorder(mixed))
        for i, d in enumerate(sizes):
            alone = []
            learner.run_lockstep(g1_config(d=d), *(np.array([x[i]]) for x in inits), recorder(alone))
            mine, solo = observed_row(mixed, i), observed_row(alone, 0)
            assert [t for t, _ in mine] == [t for t, _ in solo] and len(solo) > 1
            for (_, got), (_, want) in zip(mine, solo):
                assert all(a.shape == (6,) for a in got)
                assert all(np.array_equal(a[:d + 1], b) for a, b in zip(got, want))
                x_f, x_w, v_f, v_w, new_f, new_w = (a[d + 1:] for a in got)
                assert not np.concatenate([x_f, x_w, new_f, new_w]).any()
                assert (np.concatenate([v_f, v_w]) < -1e200).all()

    def test_mixed_widths_rejected_where_they_do_not_apply(self):
        rows = [uniform_strategy(ActionGrid(d)) for d in (3, 5)]
        exact_rows = [[Fraction(1, d + 1)] * (d + 1) for d in (3, 5)]
        with pytest.raises(ValueError, match="mixed grid sizes"):
            learner.run_lockstep(g1_config(eta=Fraction(1, 2), arithmetic="exact"),
                                 exact_rows, exact_rows)
        games2 = [TwoRoundGame(ActionGrid(d), 0.9) for d in (3, 5)]
        plans = [[plan(g, 0.0, 0.0) for g in games2] for plan in (firm_vertex_plan, worker_vertex_plan)]
        with pytest.raises(ValueError, match="mixed grid sizes"):
            learner.run_lockstep(LearnerConfig(game=games2[1], eta=0.5), *plans)
        with pytest.raises(ValueError, match="mixed grid sizes"):
            learner.run_lockstep(g1_config(reference_w=0.4), rows, rows)
        # a row wider than the config's grid, or firm and worker rows that differ
        with pytest.raises(StructuralError):
            learner.run_lockstep(g1_config(d=4), rows, rows)
        with pytest.raises(StructuralError):
            learner.run_lockstep(g1_config(), rows, rows[::-1])


class TestExactMode:
    def test_agrees_with_float(self):
        d = 6
        cfg_f = g1_config(d=d, eta=0.5)
        cfg_e = g1_config(d=d, eta=Fraction(1, 2), arithmetic="exact")
        weights_f = [3, 1, 1, 1, 1, 2, 1]
        weights_w = [1, 1, 4, 1, 1, 1, 1]
        init_f = np.array(weights_f, dtype=float) / sum(weights_f)
        init_w = np.array(weights_w, dtype=float) / sum(weights_w)
        exact_f = [Fraction(v, sum(weights_f)) for v in weights_f]
        exact_w = [Fraction(v, sum(weights_w)) for v in weights_w]
        tf = run_dynamics(cfg_f, init_f, init_w)
        te = run_dynamics(cfg_e, exact_f, exact_w)
        assert tf.converged_at == te.converged_at
        np.testing.assert_allclose([float(v) for v in te.final_f], tf.final_f, atol=1e-12)
        np.testing.assert_allclose([float(v) for v in te.final_w], tf.final_w, atol=1e-12)

    def test_cum_util_matches_float(self, no_guard):
        # both paths report the true cumulative utility, running offset included
        cfg_f = g1_config(d=5, eta=0.5, max_steps=30)
        cfg_e = g1_config(d=5, eta=Fraction(1, 2), max_steps=30, arithmetic="exact")
        # and, with history kept, the same cumulative regret after every step
        tf = run_dynamics(cfg_f, uniform_strategy(cfg_f.grid), pure_strategy(cfg_f.grid, 0.6),
                          keep_history=True)
        te = run_dynamics(cfg_e, [Fraction(1, 6)] * 6, [Fraction(int(k == 3)) for k in range(6)],
                          keep_history=True)
        assert tf.steps == te.steps
        np.testing.assert_allclose([float(u) for u in te.cum_util_f], tf.cum_util_f, rtol=0, atol=1e-9)
        np.testing.assert_allclose([float(u) for u in te.cum_util_w], tf.cum_util_w, rtol=0, atol=1e-9)
        (ef, ew), (ff, fw) = learner.regret(cfg_e, te.history), learner.regret(cfg_f, tf.history)
        assert len(ef) == len(ff) == tf.steps - 1
        np.testing.assert_allclose([float(r) for r in ef], ff, rtol=0, atol=1e-9)
        np.testing.assert_allclose([float(r) for r in ew], fw, rtol=0, atol=1e-9)

    def test_monitors_rejected(self):
        cfg = g1_config(d=4, eta=Fraction(1, 2), arithmetic="exact")
        with pytest.raises(ValueError, match="monitors apply to float one-shot runs only"):
            MonitorSuite(cfg)

    @pytest.mark.parametrize("eta", [0.1, 0.3, np.float64(0.1), 1 / 3])
    def test_eta_must_be_the_rational_it_reads_as(self, eta):
        # Fraction(0.1) is 3602879701896397/2**55, which an exact run would
        # silently use; float mode takes the same value as it is
        with pytest.raises(ValueError, match="eta"):
            g1_config(d=4, eta=eta, arithmetic="exact")
        cfg = g1_config(d=4, eta=Fraction(1, 2), arithmetic="exact")
        init = np.array([[Fraction(1, 5)] * 5], dtype=object)
        with pytest.raises(ValueError, match="eta"):
            learner.run_lockstep(cfg, init, init, eta=[eta])
        assert g1_config(d=4, eta=eta).eta == eta

    @pytest.mark.parametrize("eta", [0.5, 0.25, 2.0, 3, np.int64(2), np.float64(0.5),
                                     Fraction(1, 3), Fraction(1, 10)])
    def test_eta_that_reads_as_its_value_accepted(self, eta):
        cfg = g1_config(d=4, eta=eta, arithmetic="exact")
        init = np.array([[Fraction(1, 5)] * 5], dtype=object)
        run = learner.run_lockstep(cfg, init, init, eta=[eta])
        ref = learner.run_lockstep(dataclasses.replace(cfg, eta=Fraction(eta)), init, init)
        assert run.converged_at.tolist() == ref.converged_at.tolist()
        assert list(run.final_f[0]) == list(ref.final_f[0])

    def test_exact_invariants(self):
        cfg = g1_config(d=4, eta=Fraction(3, 10), arithmetic="exact")
        init = [Fraction(1, 5)] * 5
        traj = run_dynamics(cfg, init, init, keep_history=True)
        for x_f, x_w in traj.history:
            assert sum(x_f) == 1 and sum(x_w) == 1
            assert min(x_f) >= 0 and min(x_w) >= 0


def assert_matches_exact_oracle(cfg, traj, ref):
    """Every ``Trajectory`` field and the regret ``==`` the Fraction loop's, entries typed ``Fraction``."""
    assert (traj.converged_at, traj.steps) == (ref.converged_at, ref.steps)
    vectors = ["final_f", "final_w", "cum_util_f", "cum_util_w"]
    pairs = [(getattr(traj, k), getattr(ref, k)) for k in vectors]
    if ref.history is not None:
        assert len(traj.history) == len(ref.history)
        pairs += [(a, b) for got, want in zip(traj.history, ref.history) for a, b in zip(got, want)]
        regret_f, regret_w = learner.regret(cfg, traj.history)
        pairs += [(regret_f, ref.regret_f), (regret_w, ref.regret_w)]
    else:
        assert traj.history is None
    for got, want in pairs:
        assert list(got) == want
        assert all(type(v) is Fraction for v in got)


class TestExactKernel:
    """Exact runs go through the lockstep kernel and match an independent Fraction loop."""

    def test_audit_draws_match_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 4:
            d, eta, wf, ww = cli._audit_draw(rng)
            if d > 10:
                continue
            cfg = g1_config(d=d, eta=eta, max_steps=8000, arithmetic="exact")
            init_f = [Fraction(int(v), int(wf.sum())) for v in wf]
            init_w = [Fraction(int(v), int(ww.sum())) for v in ww]
            traj = run_dynamics(cfg, init_f, init_w)
            assert traj.converged
            assert_matches_exact_oracle(cfg, traj, oracles.ftrl_exact_loop(cfg, init_f, init_w))
            checked += 1

    def test_references_and_history_match_oracle(self):
        cfg = g1_config(d=6, eta=Fraction(3, 10), reference_f=Fraction(1, 6), reference_w=0.5,
                        arithmetic="exact")
        init_f = [Fraction(1, 7)] * 7
        init_w = [Fraction(k + 1, 28) for k in range(7)]
        traj = run_dynamics(cfg, init_f, init_w, keep_history=True)
        assert traj.converged and len(learner.regret(cfg, traj.history)[0]) == traj.steps - 1
        assert_matches_exact_oracle(cfg, traj, oracles.ftrl_exact_loop(cfg, init_f, init_w,
                                                                       keep_history=True))

    def test_stack_rows_match_rows_alone(self):
        # At D=10 with references (1/2, 1) the first and third rows pass
        # step-size plateaus that the guard rejects; the second converges at
        # step 8, the third at 85 and the first would at 108, past the cap.
        cfg = g1_config(d=10, eta=Fraction(1, 2), reference_f=0.5, reference_w=1.0,
                        max_steps=100, arithmetic="exact")
        grid = cfg.grid
        inits = [(pure_strategy(grid, f), pure_strategy(grid, w))
                 for f, w in ((0.1, 0.5), (0.0, 0.5), (0.4, 0.5))]
        inits.append(([Fraction(1, 11)] * 11, [Fraction(k + 1, 66) for k in range(11)]))
        init_f = np.array([[Fraction(v) for v in f] for f, _ in inits], dtype=object)
        init_w = np.array([[Fraction(v) for v in w] for _, w in inits], dtype=object)
        run = learner.run_lockstep(cfg, init_f, init_w)
        assert run.converged_at[:3].tolist() == [0, 8, 85]
        for k, (f, w) in enumerate(inits):
            ref = oracles.ftrl_exact_loop(cfg, f, w)
            assert (int(run.converged_at[k]) or None) == ref.converged_at
            for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
                assert list(getattr(run, name)[k]) == getattr(ref, name)
            assert_matches_exact_oracle(cfg, run_dynamics(cfg, f, w), ref)


    @settings(max_examples=25)
    @given(st.data())
    def test_integer_kernel_matches_fraction_loop(self, data):
        # arbitrary draws: D, a rational eta, integer-weight initials, optional
        # references; one two-row stack and the first row alone with history
        d = data.draw(st.integers(3, 8), label="D")
        eta = Fraction(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40)))
        refs = [data.draw(st.one_of(st.none(), st.integers(0, d).map(lambda j: Fraction(j, d))))
                for _ in (FIRM, WORKER)]
        cfg = g1_config(d=d, eta=eta, reference_f=refs[0], reference_w=refs[1],
                        max_steps=data.draw(st.integers(1, 80), label="max_steps"),
                        arithmetic="exact")
        weights = st.lists(st.integers(0, 9), min_size=d + 1, max_size=d + 1).filter(any)

        def mixture():
            ws = data.draw(weights)
            return [Fraction(w, sum(ws)) for w in ws]

        inits = [(mixture(), mixture()) for _ in range(2)]
        run = learner.run_lockstep(cfg, np.array([f for f, _ in inits], dtype=object),
                                   np.array([w for _, w in inits], dtype=object))
        for k, (f, w) in enumerate(inits):
            ref = oracles.ftrl_exact_loop(cfg, f, w)
            assert (int(run.converged_at[k]) or None) == ref.converged_at
            for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
                assert list(getattr(run, name)[k]) == getattr(ref, name)
                assert all(type(v) is Fraction for v in getattr(run, name)[k])
        assert_matches_exact_oracle(cfg, run_dynamics(cfg, *inits[0], keep_history=True),
                                    oracles.ftrl_exact_loop(cfg, *inits[0], keep_history=True))


def test_trajectory_contract_same_in_both_arithmetics():
    d = 5
    inits = (uniform_strategy(ActionGrid(d)), pure_strategy(ActionGrid(d), 0.6))
    exact_inits = ([Fraction(1, d + 1)] * (d + 1), [Fraction(int(k == 3)) for k in range(d + 1)])
    cfg_f, cfg_e = g1_config(d=d, eta=0.5), g1_config(d=d, eta=Fraction(1, 2), arithmetic="exact")
    tf = run_dynamics(cfg_f, *inits, keep_history=True)
    te = run_dynamics(cfg_e, *exact_inits, keep_history=True)
    assert tf.converged and (te.steps, te.converged_at) == (tf.steps, tf.converged_at)
    for cfg, traj in ((cfg_f, tf), (cfg_e, te)):
        for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
            value = getattr(traj, name)
            assert isinstance(value, np.ndarray) and value.shape == (d + 1,), name
        assert isinstance(traj.history, list) and len(traj.history) == traj.steps
        for step in traj.history:
            assert isinstance(step, tuple) and len(step) == 2
            assert all(isinstance(x, np.ndarray) and x.shape == (d + 1,) for x in step)
        for regret in learner.regret(cfg, traj.history):
            assert isinstance(regret, list) and len(regret) == traj.steps - 1


ARITHMETICS = {
    "float": (g1_config(d=4, eta=0.5),
              (uniform_strategy(ActionGrid(4)), pure_strategy(ActionGrid(4), 0.5))),
    "exact": (g1_config(d=4, eta=Fraction(1, 2), arithmetic="exact"),
              ([Fraction(1, 5)] * 5, [Fraction(int(k == 2)) for k in range(5)])),
}


@pytest.mark.parametrize("arithmetic", ARITHMETICS)
class TestRegretFromHistory:
    """Regret is derived from the history; the kernel's observer sees only strategies."""

    def test_no_step_no_regret(self, arithmetic):
        cfg, inits = ARITHMETICS[arithmetic]
        traj = run_dynamics(dataclasses.replace(cfg, max_steps=1), *inits, keep_history=True)
        assert len(traj.history) == traj.steps == 1
        assert learner.regret(cfg, traj.history) == ([], [])

    def test_hook_sees_history_rows(self, arithmetic):
        # the observer's previous and new strategies are consecutive history rows
        cfg, inits = ARITHMETICS[arithmetic]
        seen = []
        traj = run_dynamics(cfg, *inits, keep_history=True)
        assert traj.converged
        learner.run_lockstep(cfg, *(np.array([x]) for x in inits), recorder(seen))
        assert [t for t, _, _ in seen] == list(range(2, traj.steps + 1))
        for (_, rows, (x_f, x_w, _, _, f, w)), (pf, pw), (hf, hw) in zip(
                seen, traj.history[:-1], traj.history[1:], strict=True):
            assert rows.tolist() == [0]
            assert list(x_f[0]) == list(pf) and list(x_w[0]) == list(pw)
            assert list(f[0]) == list(hf) and list(w[0]) == list(hw)


def test_two_round_history_has_no_regret():
    game = TwoRoundGame(ActionGrid(3), 0.55)
    cfg = LearnerConfig(game=game, eta=0.5, max_steps=40)
    traj = run_dynamics(cfg, firm_vertex_plan(game, 1.0, 1.0), worker_vertex_plan(game, 0.0, 1.0),
                        keep_history=True)
    assert len(traj.history) == traj.steps
    with pytest.raises(ValueError, match="one-shot"):
        learner.regret(cfg, traj.history)


class TestTwoRoundDynamics:
    def test_paper_budget(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        cfg = LearnerConfig(game=game, eta=0.5)
        traj = run_dynamics(
            cfg,
            firm_vertex_plan(game, 0.2, 0.4),
            worker_vertex_plan(game, 0.6, 0.2),
        )
        assert traj.converged and traj.converged_at <= 15000

    def test_iterates_stay_in_treeplex(self):
        game = TwoRoundGame(ActionGrid(5), 0.55)
        cfg = LearnerConfig(game=game, eta=0.5)
        tp_f = games.build_treeplex(game, FIRM)
        tp_w = games.build_treeplex(game, WORKER)
        traj = run_dynamics(
            cfg,
            firm_vertex_plan(game, 1.0, 1.0),
            worker_vertex_plan(game, 0.0, 1.0),
            keep_history=True,
        )
        for r_f, r_w in traj.history:
            assert geometry.validate_plan(r_f, tp_f)
            assert geometry.validate_plan(r_w, tp_w)

    def test_determinism(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        cfg = LearnerConfig(game=game, eta=0.5)
        a = run_dynamics(cfg, firm_vertex_plan(game, 0.6, 0.0), worker_vertex_plan(game, 0.6, 0.2))
        b = run_dynamics(cfg, firm_vertex_plan(game, 0.6, 0.0), worker_vertex_plan(game, 0.6, 0.2))
        assert a.converged_at == b.converged_at
        assert np.array_equal(a.final_f, b.final_f)
        assert np.array_equal(a.final_w, b.final_w)

    def test_monitors_rejected(self):
        game = TwoRoundGame(ActionGrid(3), 0.9)
        with pytest.raises(ValueError, match="monitors apply to float one-shot runs only"):
            MonitorSuite(LearnerConfig(game=game, eta=0.5))

    def test_invalid_plan_rejected(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        cfg = LearnerConfig(game=game, eta=0.5)
        bad = np.zeros(79)
        with pytest.raises(StructuralError):
            run_dynamics(cfg, bad, worker_vertex_plan(game, 0.0, 0.0))
