import numpy as np
import pytest
from fractions import Fraction

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


def ftrl_step(agent, cum_util, cfg):
    """One update of the kernel: project reference + eta * cum_util."""
    return learner._updater(cfg, agent)(np.asarray(cum_util, dtype=float))[1]


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
        dict(stop_eps=float("nan")), dict(stop_eps=-1.0), dict(conv_threshold=float("inf")),
        dict(conv_threshold=float("inf"), arithmetic="exact"),
    ], ids=["eta-nan", "eta-inf", "conv_threshold-nan", "stop_eps-nan", "stop_eps-negative",
            "conv_threshold-inf", "conv_threshold-inf-exact"])
    def test_meaningless_stop_rules_rejected(self, kw):
        # each would otherwise run silently to the step cap or fail mid-run
        with pytest.raises(ValueError):
            g1_config(**kw)

    def test_stop_eps_bounds_accepted(self):
        assert g1_config(stop_eps=0.0).stop_eps == 0.0
        assert g1_config(stop_eps=None).stop_eps is None

    def test_reference_vectors(self):
        cfg = g1_config(reference_f=0.4)
        np.testing.assert_allclose(cfg.reference_vector(FIRM), [0, 0, 1, 0, 0, 0])
        np.testing.assert_allclose(cfg.reference_vector(WORKER), np.zeros(6))


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


class TestDetectConvergence:
    """The kernel's step-size stop rule, with the certificate guard off."""

    def test_identical(self):
        # eta large enough that the first update lands on the initial profile
        cfg = g1_config(eta=10.0, reference_w=0.0, stop_eps=None)
        x = pure_strategy(cfg.grid, 0.0)
        assert run_dynamics(cfg, x, x).converged_at == 2

    def test_uniform_vs_pure(self):
        cfg = g1_config(eta=10.0, reference_w=0.0, max_steps=2, stop_eps=None)
        traj = run_dynamics(cfg, uniform_strategy(cfg.grid), uniform_strategy(cfg.grid))
        assert not traj.converged

    def test_boundary_inclusive(self):
        cfg = g1_config(d=6, eta=0.5, max_steps=2, stop_eps=None)
        init_f, init_w = uniform_strategy(cfg.grid), pure_strategy(cfg.grid, 0.5)
        (f0, w0), (f1, w1) = run_dynamics(cfg, init_f, init_w, keep_history=True).history
        moved = max(np.abs(f1 - f0).max(), np.abs(w1 - w0).max())
        assert moved > 0.0
        # the largest move sits exactly at the threshold, then just above it
        at = g1_config(d=6, eta=0.5, max_steps=2, stop_eps=None, conv_threshold=moved)
        assert run_dynamics(at, init_f, init_w).converged_at == 2
        below = g1_config(d=6, eta=0.5, max_steps=2, stop_eps=None, conv_threshold=np.nextafter(moved, 0))
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
            assert geometry.check_simplex(x_f, tol=1e-9)
            assert geometry.check_simplex(x_w, tol=1e-9)

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
            verdicts.append(np.maximum(gap_f, gap_w) <= cfg.stop_eps)
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

    def test_regret_rate_decreases(self):
        cfg = g1_config(d=10, eta=0.5, max_steps=8000, conv_threshold=1e-300, stop_eps=None)
        rng = np.random.default_rng(11)
        x = rng.exponential(size=11)
        y = rng.exponential(size=11)
        traj = run_dynamics(cfg, x / x.sum(), y / y.sum(), keep_history=True)
        checkpoints = [500, 1000, 2000, 4000, 8000]
        for reg in (traj.regret_f, traj.regret_w):
            rates = [reg[min(t, len(reg)) - 1] / min(t, len(reg)) for t in checkpoints]
            for a, b in zip(rates, rates[1:]):
                assert b <= a + 1e-9

    def test_monitor_suite_clean_on_valid_run(self):
        cfg = g1_config(d=9, eta=0.8)
        monitors = MonitorSuite(cfg.grid)
        rng = np.random.default_rng(5)
        x = rng.exponential(size=10)
        # worker init sorted: the firm-unimodality law conditions on it
        y = np.sort(rng.exponential(size=10))[::-1]
        run_dynamics(cfg, x / x.sum(), y / y.sum(), monitors=monitors)
        assert monitors.violations == []

    def test_lemma2_premise_needs_sorted_worker_init(self):
        # with an unsorted worker initial mixture the firm's second iterate
        # can legitimately dip and rise again, so the audit draws sorted ones
        cfg = g1_config(d=5, eta=0.8, max_steps=6, stop_eps=None)
        monitors = MonitorSuite(cfg.grid)
        init_w = np.array([0.5, 0.0, 0.0, 0.5, 0.0, 0.0])
        run_dynamics(cfg, uniform_strategy(cfg.grid), init_w, monitors=monitors)
        assert any(v[0] == "lemma2_firm_unimodal" for v in monitors.violations)

    def test_monitor_fires_on_injected_fault(self, monkeypatch):
        # negative control: skipping the projection (renormalizing instead)
        # breaks the sorted-worker law once a pure reference biases one entry
        def broken(v):
            x = np.maximum(v, 0.0)
            return x / max(x.sum(), 1e-300)

        monkeypatch.setattr(learner, "_project_simplex", broken)
        cfg = g1_config(d=5, eta=0.5, reference_w=0.6, max_steps=50, stop_eps=None)
        monitors = MonitorSuite(cfg.grid)
        run_dynamics(cfg, pure_strategy(cfg.grid, 0.2), pure_strategy(cfg.grid, 0.2), monitors=monitors)
        names = {v[0] for v in monitors.violations}
        assert "lemma1_worker_sorted" in names


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

    def test_cum_util_matches_float(self):
        # both paths report the true cumulative utility, running offset included
        cfg_f = g1_config(d=5, eta=0.5, max_steps=30, stop_eps=None)
        cfg_e = g1_config(d=5, eta=Fraction(1, 2), max_steps=30, stop_eps=None, arithmetic="exact")
        # and, with history kept, the same cumulative regret after every step
        tf = run_dynamics(cfg_f, uniform_strategy(cfg_f.grid), pure_strategy(cfg_f.grid, 0.6),
                          keep_history=True)
        te = run_dynamics(cfg_e, [Fraction(1, 6)] * 6, [Fraction(int(k == 3)) for k in range(6)],
                          keep_history=True)
        assert tf.steps == te.steps
        np.testing.assert_allclose([float(u) for u in te.cum_util_f], tf.cum_util_f, rtol=0, atol=1e-9)
        np.testing.assert_allclose([float(u) for u in te.cum_util_w], tf.cum_util_w, rtol=0, atol=1e-9)
        assert len(te.regret_f) == len(tf.regret_f) == tf.steps - 1
        np.testing.assert_allclose([float(r) for r in te.regret_f], tf.regret_f, rtol=0, atol=1e-9)
        np.testing.assert_allclose([float(r) for r in te.regret_w], tf.regret_w, rtol=0, atol=1e-9)

    def test_monitors_rejected(self):
        cfg = g1_config(d=4, eta=Fraction(1, 2), arithmetic="exact")
        init = [Fraction(1, 5)] * 5
        with pytest.raises(ValueError, match="monitors"):
            run_dynamics(cfg, init, init, monitors=MonitorSuite(cfg.grid))

    def test_exact_invariants(self):
        cfg = g1_config(d=4, eta=Fraction(3, 10), arithmetic="exact")
        init = [Fraction(1, 5)] * 5
        traj = run_dynamics(cfg, init, init, keep_history=True)
        for x_f, x_w in traj.history:
            assert sum(x_f) == 1 and sum(x_w) == 1
            assert min(x_f) >= 0 and min(x_w) >= 0


def assert_matches_exact_oracle(traj, ref):
    """Every ``Trajectory`` field ``==`` the Fraction loop's, entries typed ``Fraction``."""
    assert (traj.converged_at, traj.steps) == (ref.converged_at, ref.steps)
    vectors = ["final_f", "final_w", "cum_util_f", "cum_util_w"]
    pairs = [(getattr(traj, k), getattr(ref, k)) for k in vectors]
    if ref.history is not None:
        assert len(traj.history) == len(ref.history)
        pairs += [(a, b) for got, want in zip(traj.history, ref.history) for a, b in zip(got, want)]
        pairs += [(traj.regret_f, ref.regret_f), (traj.regret_w, ref.regret_w)]
    else:
        assert traj.history is traj.regret_f is traj.regret_w is None
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
            assert_matches_exact_oracle(traj, oracles.ftrl_exact_loop(cfg, init_f, init_w))
            checked += 1

    def test_references_and_history_match_oracle(self):
        cfg = g1_config(d=6, eta=Fraction(3, 10), reference_f=Fraction(1, 6), reference_w=0.5,
                        arithmetic="exact")
        init_f = [Fraction(1, 7)] * 7
        init_w = [Fraction(k + 1, 28) for k in range(7)]
        traj = run_dynamics(cfg, init_f, init_w, keep_history=True)
        assert traj.converged and len(traj.regret_f) == traj.steps - 1
        assert_matches_exact_oracle(traj, oracles.ftrl_exact_loop(cfg, init_f, init_w,
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
            assert_matches_exact_oracle(run_dynamics(cfg, f, w), ref)


def test_trajectory_contract_same_in_both_arithmetics():
    d = 5
    inits = (uniform_strategy(ActionGrid(d)), pure_strategy(ActionGrid(d), 0.6))
    exact_inits = ([Fraction(1, d + 1)] * (d + 1), [Fraction(int(k == 3)) for k in range(d + 1)])
    tf = run_dynamics(g1_config(d=d, eta=0.5), *inits, keep_history=True)
    te = run_dynamics(g1_config(d=d, eta=Fraction(1, 2), arithmetic="exact"), *exact_inits,
                      keep_history=True)
    assert tf.converged and (te.steps, te.converged_at) == (tf.steps, tf.converged_at)
    for traj in (tf, te):
        for name in ("final_f", "final_w", "cum_util_f", "cum_util_w"):
            value = getattr(traj, name)
            assert isinstance(value, np.ndarray) and value.shape == (d + 1,), name
        assert isinstance(traj.history, list) and len(traj.history) == traj.steps
        for step in traj.history:
            assert isinstance(step, tuple) and len(step) == 2
            assert all(isinstance(x, np.ndarray) and x.shape == (d + 1,) for x in step)
        for regret in (traj.regret_f, traj.regret_w):
            assert isinstance(regret, list) and len(regret) == traj.steps - 1


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
        cfg = LearnerConfig(game=game, eta=0.5)
        with pytest.raises(ValueError, match="monitors"):
            run_dynamics(cfg, firm_vertex_plan(game, 0.0, 0.0), worker_vertex_plan(game, 0.0, 0.0),
                         monitors=MonitorSuite(game.grid))

    def test_invalid_plan_rejected(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        cfg = LearnerConfig(game=game, eta=0.5)
        bad = np.zeros(79)
        with pytest.raises(StructuralError):
            run_dynamics(cfg, bad, worker_vertex_plan(game, 0.0, 0.0))
