import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from ftrl_bargain import games
from ftrl_bargain.games import (
    FIRM,
    WORKER,
    ActionGrid,
    TwoRoundGame,
    build_treeplex,
    firm_vertex_plan,
    pure_strategy,
    two_round_feedback,
    ultimatum_feedback,
    ultimatum_feedback_exact,
    utility_ultimatum,
    worker_vertex_plan,
)
from ftrl_bargain.geometry import StructuralError, validate_plan

import oracles


def random_simplex(rng, n):
    x = rng.exponential(size=n)
    return x / x.sum()


class TestActionGrid:
    def test_basic_grid(self):
        g = ActionGrid(5)
        assert g.size == 6
        np.testing.assert_allclose(g.actions, [0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert g.actions[0] == 0.0 and g.actions[-1] == 1.0
        assert np.all(np.diff(g.actions) > 0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ActionGrid(1)

    def test_index_of(self):
        g = ActionGrid(30)
        assert g.index_of(1 / 6) == 5
        assert g.index_of(29 / 30) == 29
        with pytest.raises(ValueError):
            g.index_of(0.11)


class TestUltimatumPayoffs:
    @pytest.mark.parametrize(
        "a_f,a_w,expected",
        [
            (0.6, 0.5, (0.4, 0.6)),
            (0.3, 0.5, (0.0, 0.0)),
            (0.0, 0.0, (1.0, 0.0)),
        ],
    )
    def test_examples(self, a_f, a_w, expected):
        assert utility_ultimatum(a_f, a_w) == pytest.approx(expected, abs=1e-15)

    def test_payoffs_sum_to_deal_indicator(self):
        g = ActionGrid(7)
        for a_f in g.actions:
            for a_w in g.actions:
                u_f, u_w = utility_ultimatum(a_f, a_w)
                assert u_f + u_w == (1.0 if a_w <= a_f else 0.0)


class TestUltimatumFeedback:
    def test_worker_vs_pure_firm(self):
        g = ActionGrid(5)
        fb = ultimatum_feedback(WORKER, pure_strategy(g, 0.6), g)
        np.testing.assert_allclose(fb, [0.6, 0.6, 0.6, 0.6, 0.0, 0.0], atol=1e-15)

    def test_firm_vs_mixed_worker(self):
        g = ActionGrid(5)
        x_w = np.array([0.5, 0, 0, 0.5, 0, 0])
        fb = ultimatum_feedback(FIRM, x_w, g)
        np.testing.assert_allclose(fb, [0.5, 0.4, 0.3, 0.4, 0.2, 0.0], atol=1e-15)
        np.testing.assert_allclose(fb, oracles.feedback_bruteforce(FIRM, x_w, g), atol=1e-12)

    def test_worker_vs_uniform_small_grid(self):
        g = ActionGrid(2)
        fb = ultimatum_feedback(WORKER, np.full(3, 1 / 3), g)
        np.testing.assert_allclose(fb, [0.5, 0.5, 1 / 3], atol=1e-15)

    def test_matches_bruteforce(self, rng):
        g = ActionGrid(9)
        for agent in (FIRM, WORKER):
            for _ in range(20):
                opp = random_simplex(rng, g.size)
                fb = ultimatum_feedback(agent, opp, g)
                np.testing.assert_allclose(fb, oracles.feedback_bruteforce(agent, opp, g), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            ultimatum_feedback(FIRM, np.ones(4) / 4, ActionGrid(5))

    @given(st.integers(3, 12), st.floats(0.0, 1.0), st.data())
    def test_linearity_in_opponent(self, d, lam, data):
        g = ActionGrid(d)
        raw = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=2 * g.size, max_size=2 * g.size)
        )
        x = np.array(raw[: g.size])
        y = np.array(raw[g.size :])
        x /= x.sum()
        y /= y.sum()
        mix = lam * x + (1 - lam) * y
        for agent in (FIRM, WORKER):
            lhs = ultimatum_feedback(agent, mix, g)
            rhs = lam * ultimatum_feedback(agent, x, g) + (1 - lam) * ultimatum_feedback(agent, y, g)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_worker_feedback_nonincreasing(self, rng):
        g = ActionGrid(15)
        for _ in range(50):
            fb = ultimatum_feedback(WORKER, random_simplex(rng, g.size), g)
            assert np.all(np.diff(fb) <= 1e-15)

    def test_feedback_nonnegative(self, rng):
        g = ActionGrid(8)
        for agent in (FIRM, WORKER):
            fb = ultimatum_feedback(agent, random_simplex(rng, g.size), g)
            assert np.all(fb >= 0)

    def test_exact_matches_float(self, rng):
        g = ActionGrid(6)
        weights = rng.integers(1, 30, g.size)
        exact = [Fraction(int(w), int(weights.sum())) for w in weights]
        approx = weights / weights.sum()
        for agent in (FIRM, WORKER):
            fe = ultimatum_feedback_exact(agent, exact, g)
            ff = ultimatum_feedback(agent, approx, g)
            np.testing.assert_allclose([float(v) for v in fe], ff, atol=1e-12)


class TestStackedFeedback:
    """A 2-D opponent stack gives exactly the per-row feedback vectors."""

    @pytest.mark.parametrize("D", [3, 5])
    def test_ultimatum_stack_matches_rows(self, rng, D):
        grid = ActionGrid(D)
        X = np.array([random_simplex(rng, grid.size) for _ in range(6)])
        X[0, 1] = 1e-16  # below NEGLIGIBLE_MASS
        for agent in (FIRM, WORKER):
            stacked = ultimatum_feedback(agent, X, grid)
            assert np.array_equal(stacked, [ultimatum_feedback(agent, x, grid) for x in X])

    @pytest.mark.parametrize("D", [3, 5])
    def test_two_round_stack_matches_rows(self, rng, D):
        game = TwoRoundGame(ActionGrid(D), 0.55)
        for agent, other in ((FIRM, WORKER), (WORKER, FIRM)):
            tp = build_treeplex(game, other)
            R = tp.uniform_plan() * rng.uniform(0.0, 2.0, size=(6, tp.n_sequences))
            R[0, 2] = 1e-16
            stacked = two_round_feedback(agent, R, game)
            assert np.array_equal(stacked, [two_round_feedback(agent, r, game) for r in R])


class TestTwoRoundGame:
    def test_delta_validation(self):
        with pytest.raises(ValueError):
            TwoRoundGame(ActionGrid(5), 1.0)
        with pytest.raises(ValueError):
            TwoRoundGame(ActionGrid(5), 0.0)

    def test_treeplex_counts_d5(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        tp_f = build_treeplex(game, FIRM)
        tp_w = build_treeplex(game, WORKER)
        assert tp_f.n_sequences - 1 == 78  # 6 offers + 72 second-round accept/reject
        assert len(tp_f.infosets) == 37    # root offer infoset + 36 response infosets
        assert tp_w.n_sequences - 1 == 42  # 6 accepts + 36 counters
        assert len(tp_w.infosets) == 6

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_sequence_count_formulas(self, d):
        game = TwoRoundGame(ActionGrid(d), 0.5)
        tp_f = build_treeplex(game, FIRM)
        tp_w = build_treeplex(game, WORKER)
        n_firm, n_worker = oracles.count_sequences_tree_walk(d)
        assert tp_f.n_sequences == n_firm == 1 + (d + 1) + 2 * (d + 1) ** 2
        assert tp_w.n_sequences == n_worker == 1 + (d + 1) + (d + 1) ** 2

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            build_treeplex(TwoRoundGame(ActionGrid(2), 0.9), FIRM)
        with pytest.raises(ValueError):
            ActionGrid(1)  # D=1 cannot even form a grid

    def test_vertex_plans_valid(self, rng):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        tp_f = build_treeplex(game, FIRM)
        tp_w = build_treeplex(game, WORKER)
        for a in game.grid.actions:
            for b in game.grid.actions:
                assert validate_plan(firm_vertex_plan(game, a, b), tp_f)
                assert validate_plan(worker_vertex_plan(game, a, b), tp_w)


class TestTwoRoundFeedback:
    def setup_method(self):
        self.game = TwoRoundGame(ActionGrid(5), 0.9)
        self.grid = self.game.grid

    def test_firm_second_round_accept_value(self):
        # worker rejects everything and counters 0.2 with certainty
        r_w = worker_vertex_plan(self.game, threshold=1.0, counter=0.2)
        fb = two_round_feedback(FIRM, r_w, self.game)
        idx = games.firm_accept_index(self.grid, self.grid.index_of(0.6), self.grid.index_of(0.2))
        assert fb[idx] == pytest.approx(0.18, abs=1e-12)

    def test_worker_counter_value(self):
        r_f = firm_vertex_plan(self.game, offer=0.6, threshold=0.0)
        fb = two_round_feedback(WORKER, r_f, self.game)
        idx = games.worker_counter_index(self.grid, self.grid.index_of(0.6), self.grid.index_of(0.2))
        assert fb[idx] == pytest.approx(0.72, abs=1e-12)

    def test_second_round_reject_pays_zero(self):
        r_w = worker_vertex_plan(self.game, threshold=1.0, counter=0.4)
        fb = two_round_feedback(FIRM, r_w, self.game)
        for a in range(6):
            for b in range(6):
                assert fb[games.firm_reject_index(self.grid, a, b)] == 0.0

    def test_matches_ultimatum_when_worker_accepts_all(self):
        # worker accepting every first offer makes second-round terms vanish
        r_w = worker_vertex_plan(self.game, threshold=0.0, counter=0.0)
        fb2 = two_round_feedback(FIRM, r_w, self.game)
        x_w = pure_strategy(self.grid, 0.0)
        fb1 = ultimatum_feedback(FIRM, x_w, self.grid)
        offers = [games.firm_offer_index(self.grid, a) for a in range(6)]
        np.testing.assert_allclose(fb2[offers], fb1, atol=1e-15)
        assert np.all(fb2[1 + 6 :] == 0.0)

    def test_threshold_vertex_matches_ultimatum_offer_rows(self):
        for thr in self.grid.actions:
            r_w = worker_vertex_plan(self.game, threshold=thr, counter=0.4)
            fb2 = two_round_feedback(FIRM, r_w, self.game)
            fb1 = ultimatum_feedback(FIRM, pure_strategy(self.grid, thr), self.grid)
            offers = [games.firm_offer_index(self.grid, a) for a in range(6)]
            np.testing.assert_allclose(fb2[offers], fb1, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            two_round_feedback(FIRM, np.zeros(10), self.game)

    def test_feedback_nonnegative(self, rng):
        tp_w = build_treeplex(self.game, WORKER)
        from ftrl_bargain.geometry import TreeplexProjector

        proj = TreeplexProjector(tp_w)
        for _ in range(10):
            plan = proj.project(rng.normal(size=tp_w.n_sequences))
            fb = two_round_feedback(FIRM, plan, self.game)
            assert np.all(fb >= -1e-12)
