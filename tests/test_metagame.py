from fractions import Fraction

import numpy as np
import pytest

from ftrl_bargain import analysis, games, learner
from ftrl_bargain.games import ActionGrid, TwoRoundGame, UltimatumGame
from ftrl_bargain.learner import LearnerConfig
from ftrl_bargain.metagame import minimax_solve, summarize, sweep_initials


def small_sweep(eta=0.5, **kw):
    cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=eta, **kw)
    return sweep_initials(cfg)


def assert_probability(mix):
    assert np.all(mix >= 0.0)
    assert abs(mix.sum() - 1.0) <= 1e-15


def pure_initials(game, firm_entry, worker_entry):
    """Initial profile of one pure-axis sweep cell, built independently of the sweep."""
    if isinstance(game, UltimatumGame):
        return games.pure_strategy(game.grid, firm_entry), games.pure_strategy(game.grid, worker_entry)
    return games.firm_vertex_plan(game, *firm_entry), games.worker_vertex_plan(game, *worker_entry)


class TestSweep:
    def test_shape_and_convergence(self):
        sweep = small_sweep()
        assert sweep.shape == (5, 5)
        assert sweep.all_converged()
        for row in sweep.cells:
            for cell in row:
                assert 0.0 <= cell.u_w <= 1.0
                assert cell.eps <= 1e-7

    def test_batched_matches_per_cell_runs(self):
        # every sweep cell, and every row of the lockstep kernel, is the run
        # the cell would make alone; the two-round check uses every 5th cell
        for game, stride in ((UltimatumGame(ActionGrid(4)), 1), (TwoRoundGame(ActionGrid(3), 0.9), 5)):
            cfg = LearnerConfig(game=game, eta=0.5)
            sweep = sweep_initials(cfg)
            cells = [(i, j) for i in range(sweep.shape[0]) for j in range(sweep.shape[1])]
            inits = [pure_initials(game, sweep.firm_axis[i], sweep.worker_axis[j]) for i, j in cells]
            batch = learner.run_lockstep(cfg, np.array([f for f, _ in inits]),
                                         np.array([w for _, w in inits]))
            for k in range(0, len(cells), stride):
                i, j = cells[k]
                traj = learner.run_dynamics(cfg, *inits[k])
                cell = sweep.cells[i][j]
                assert cell.converged_at == traj.converged_at == (int(batch.converged_at[k]) or None)
                assert np.array_equal(cell.final_f, traj.final_f)
                assert np.array_equal(cell.final_w, traj.final_w)
                assert np.array_equal(batch.cum_util_f[k], traj.cum_util_f)
                assert np.array_equal(batch.cum_util_w[k], traj.cum_util_w)

    def test_cells_match_standalone_certificates(self):
        # each chunk certifies its finals as one stack; every cell's payoff
        # and gaps equal certifying that cell's finals on their own
        sweeps = [
            sweep_initials(LearnerConfig(game=UltimatumGame(ActionGrid(10)), eta=0.5)),
            sweep_initials(LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.9), eta=0.5),
                           parallelism=2),
            sweep_initials(LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=Fraction(1, 2),
                                         arithmetic="exact")),
        ]
        for sweep in sweeps:
            cfg, game = sweep.config, sweep.config.game
            for i, firm_entry in enumerate(sweep.firm_axis):
                for j, worker_entry in enumerate(sweep.worker_axis):
                    cell = sweep.cells[i][j]
                    final_f, final_w = cell.final_f, cell.final_w
                    if cfg.arithmetic == "exact":
                        inits = pure_initials(game, firm_entry, worker_entry)
                        traj = learner.run_dynamics(cfg, *inits)
                        final_f = np.asarray(traj.final_f, dtype=float)
                        final_w = np.asarray(traj.final_w, dtype=float)
                        assert np.array_equal(cell.final_f, final_f)
                        assert np.array_equal(cell.final_w, final_w)
                    if isinstance(game, UltimatumGame):
                        fb_w = games.ultimatum_feedback("worker", final_f, game.grid)
                    else:
                        fb_w = games.two_round_feedback("worker", final_f, game)
                    cert = analysis.certify_epsilon_ne((final_f, final_w), game)
                    assert cell.u_w == float(final_w @ fb_w)
                    assert (cell.eps, cell.gap_f, cell.gap_w) == (cert.eps, cert.gap_f, cert.gap_w)

    def test_deterministic_rerun(self):
        a = small_sweep()
        b = small_sweep()
        for ra, rb in zip(a.cells, b.cells):
            for ca, cb in zip(ra, rb):
                assert ca.u_w == cb.u_w
                assert ca.converged_at == cb.converged_at
                assert np.array_equal(ca.final_w, cb.final_w)

    def test_constant_sum_on_accepting_cells(self):
        sweep = small_sweep()
        grid = ActionGrid(4)
        for row in sweep.cells:
            for cell in row:
                fb_f = games.ultimatum_feedback("firm", cell.final_w, grid)
                u_f = float(cell.final_f @ fb_f)
                if cell.u_w > 1e-9 or u_f > 1e-9:  # no-deal cells exempt
                    assert u_f + cell.u_w == pytest.approx(1.0, abs=1e-9)

    def test_uniform_axis(self):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        sweep = sweep_initials(cfg, axis_f="uniform")
        assert sweep.shape == (1, 5)
        assert sweep.firm_axis == ("uniform",)
        assert sweep.all_converged()

    def test_two_round_sweep_smoke(self):
        cfg = LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.55), eta=0.5)
        sweep = sweep_initials(cfg, parallelism=1)
        assert sweep.shape == (16, 16)
        assert sweep.all_converged()
        assert all(c.threat is not None for row in sweep.cells for c in row)
        assert max(c.eps for row in sweep.cells for c in row) <= 1e-7

    def test_parallel_matches_serial(self):
        for cfg in (LearnerConfig(game=UltimatumGame(ActionGrid(10)), eta=0.5),
                    LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.9), eta=0.5),
                    LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=Fraction(1, 2),
                                  arithmetic="exact")):
            serial = sweep_initials(cfg, parallelism=1)
            parallel = sweep_initials(cfg, parallelism=2)
            for ra, rb in zip(serial.cells, parallel.cells):
                for ca, cb in zip(ra, rb):
                    assert ca.u_w == cb.u_w and ca.converged_at == cb.converged_at
                    assert ca.eps == cb.eps
                    assert np.array_equal(ca.final_f, cb.final_f)
                    assert np.array_equal(ca.final_w, cb.final_w)

    @pytest.mark.parametrize("parallelism", [0, -2, 1.5, None])
    def test_parallelism_must_be_positive_integer(self, parallelism):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(3)), eta=0.5)
        with pytest.raises(ValueError, match="parallelism"):
            sweep_initials(cfg, parallelism=parallelism)

    def test_exact_sweep_matches_float(self):
        grid = ActionGrid(4)
        for axes in (("pure", "pure"), ("uniform", "pure"), ("pure", "uniform")):
            exact = sweep_initials(LearnerConfig(game=UltimatumGame(grid), eta=Fraction(1, 2),
                                                 arithmetic="exact"), *axes, parallelism=2)
            fl = sweep_initials(LearnerConfig(game=UltimatumGame(grid), eta=0.5), *axes)
            assert exact.shape == fl.shape
            for re_, rf in zip(exact.cells, fl.cells):
                for ce, cf in zip(re_, rf):
                    assert ce.converged_at == cf.converged_at is not None
                    np.testing.assert_allclose(ce.final_f, cf.final_f, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(ce.final_w, cf.final_w, rtol=0, atol=1e-12)


class TestMinimax:
    def test_matching_pennies_value(self):
        sol = minimax_solve(np.array([[1.0, 0.0], [0.0, 1.0]]), tol=1e-12)
        assert sol.br_gap <= 1e-12
        assert sol.value_w == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sol.row_mix, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.col_mix, [0.5, 0.5], atol=1e-12)

    def test_saddle_point(self):
        m = np.array([
            [0.6, 0.5, 0.7],
            [0.4, 0.3, 0.5],
            [0.8, 0.6, 0.9],
        ])  # row 1 keeps the column player at 0.5 at most; column 1 guarantees 0.3+
        sol = minimax_solve(m, tol=1e-4)
        rowmax = m.max(axis=1).min()
        colmin = m.min(axis=0).max()
        assert rowmax == colmin == 0.5  # strict saddle at (1, 2)... sanity
        assert sol.value_w == pytest.approx(0.5, abs=1e-3)

    def test_certificate_consistency(self, rng):
        m = rng.uniform(size=(8, 6))
        sol = minimax_solve(m, tol=5e-3)
        best_col = float((sol.row_mix @ m).max())
        best_row = float((m @ sol.col_mix).min())
        assert sol.br_gap == pytest.approx(best_col - best_row, abs=1e-12)
        assert best_row - 1e-12 <= sol.value_w <= best_col + 1e-12

    def test_uniform_start_solves_symmetric_game_immediately(self):
        # matching pennies' saddle is the uniform profile; a pivot cap far above need
        sol = minimax_solve(np.array([[1.0, 0.0], [0.0, 1.0]]), tol=1e-12, max_iters=2000)
        assert sol.br_gap <= 1e-12 and sol.value_w == pytest.approx(0.5, abs=1e-12)
        assert sol.iterations <= 2

    def test_cap_returns_actual_gap(self):
        m = np.array([[0.7, 0.2], [0.3, 0.8]])  # interior saddle: two pivots
        assert minimax_solve(m, tol=1e-12).iterations > 1
        sol = minimax_solve(m, tol=1e-12, max_iters=1)
        assert sol.iterations == 1
        assert sol.br_gap > 1e-12
        assert_probability(sol.row_mix)
        assert_probability(sol.col_mix)

    @pytest.mark.parametrize("kw", [{"tol": float("nan")}, {"tol": -1.0}, {"tol": -1e-300},
                                    {"max_iters": 0}, {"max_iters": -5}])
    def test_rejects_bad_tol_and_cap(self, kw):
        with pytest.raises(ValueError):
            minimax_solve(np.array([[1.0, 0.0], [0.0, 1.0]]), **kw)

    def test_gap_above_tol_at_optimal_basis_raises(self, rng):
        for _ in range(100):  # find an optimum whose certificate keeps a float residue
            m = rng.uniform(size=(9, 7))
            gap = minimax_solve(m, tol=1.0).br_gap
            if gap > 0.0:
                break
        assert gap > 0.0
        with pytest.raises(ValueError, match="certified gap"):
            minimax_solve(m, tol=gap / 2)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            minimax_solve(np.array([[np.nan, 1.0]]))

    def test_security_dominates_worst_cell(self):
        sweep = small_sweep()
        m = sweep.payoff_matrix()
        sol = minimax_solve(m, tol=1e-3)
        assert sol.value_w >= np.nanmin(m) - 1e-3


def _lp_cases():
    rng = np.random.default_rng(7)
    pennies = np.array([[1.0, 0.0], [0.0, 1.0]])
    return {
        "one_row": (np.array([[0.3, 0.1, 0.7, 0.2]]), 0.7),
        "one_column": (np.array([[0.3], [0.1], [0.7]]), 0.1),
        "constant": (np.full((4, 5), 0.25), 0.25),
        "duplicates": (pennies[[0, 0, 1, 1, 0]][:, [1, 0, 0, 1]], 0.5),
        "dominated": (np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.4], [0.7, 0.6, 0.45]]), 0.5),
        "sixths": (rng.integers(0, 3, size=(12, 15)) / 6, None),
        "thirtieths": (np.round(rng.uniform(size=(31, 31)) * 30) / 30, None),
    }


class TestLpCertificate:
    @pytest.mark.parametrize("name", list(_lp_cases()))
    def test_exact_certificate(self, name):
        m, value = _lp_cases()[name]
        sol = minimax_solve(m, tol=1e-12)
        assert sol.br_gap <= 1e-12
        assert_probability(sol.row_mix)
        assert_probability(sol.col_mix)
        if value is not None:
            assert sol.value_w == pytest.approx(value, abs=1e-12)

    def test_strictly_dominated_strategies_get_no_weight(self):
        m, _ = _lp_cases()["dominated"]
        sol = minimax_solve(m, tol=1e-12)
        # a 50/50 mix of the first two rows (columns) beats the last one everywhere
        assert sol.row_mix[2] <= 1e-12 and sol.col_mix[2] <= 1e-12

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        for trial in range(300):
            nr, nc = rng.integers(1, 35, size=2)
            if trial % 3 == 0:
                m = rng.uniform(size=(nr, nc))
            elif trial % 3 == 1:
                m = rng.integers(0, 3, size=(nr, nc)) / 6
            else:
                m = np.round(rng.uniform(size=(nr, nc)) * 30) / 30
            # firm: min v  s.t.  m'p <= v, sum p = 1, p >= 0
            res = optimize.linprog(
                np.r_[np.zeros(nr), 1.0],
                A_ub=np.hstack([m.T, -np.ones((nc, 1))]), b_ub=np.zeros(nc),
                A_eq=np.r_[np.ones(nr), 0.0][None], b_eq=[1.0],
                bounds=[(0, None)] * nr + [(None, None)], method="highs",
            )
            assert res.status == 0
            assert minimax_solve(m, tol=1e-12).value_w == pytest.approx(res.fun, abs=1e-12)


class TestSummarize:
    def test_constant_sweep(self):
        sweep = small_sweep(eta=0.1, reference_f=0.25, reference_w=0.75)
        s = summarize(sweep, reference_w=0.75)
        # tiny learning rates pin the outcome at the smaller reference
        assert s.min_uw == pytest.approx(s.max_uw, abs=1e-9)
        assert s.prop_ge_ref in (0.0, 1.0)

    def test_proportions_definition(self):
        sweep = small_sweep()
        s = summarize(sweep)
        m = sweep.payoff_matrix()
        thr = np.array([float(a) for a in sweep.worker_axis])
        expected = float((m >= thr[None, :] - 1e-9).mean())
        assert s.prop_ge_init == pytest.approx(expected)
        assert s.prop_ge_ref is None

    def test_uniform_axis_has_no_init_column(self):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        sweep = sweep_initials(cfg, axis_w="uniform")
        assert summarize(sweep).prop_ge_init is None
