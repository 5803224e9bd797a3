import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from ftrl_bargain import analysis, cli, metagame
from ftrl_bargain.games import (
    FIRM,
    WORKER,
    ActionGrid,
    TwoRoundGame,
    UltimatumGame,
    build_treeplex,
    firm_vertex_plan,
    pure_strategy,
    two_round_feedback,
    ultimatum_feedback,
    ultimatum_feedback_exact,
    utility_ultimatum,
    worker_vertex_plan,
)
from ftrl_bargain.geometry import StructuralError, Treeplex, TreeplexProjector, validate_plan
from ftrl_bargain.learner import LearnerConfig

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

    def test_integer_sizes_stored_as_int(self):
        for D in (np.int64(3), 3):
            g = ActionGrid(D)
            assert type(g.D) is int and type(g.size) is int and g.D == 3
        game = TwoRoundGame(ActionGrid(np.int64(3)), 0.9)
        assert build_treeplex(game, FIRM).n == 4

    @pytest.mark.parametrize("D", [2.5, 3.0, "3", None])
    def test_non_integer_sizes_rejected(self, D):
        # unchecked, 2.5 builds offers above 1 and 3.0 a float size
        with pytest.raises(ValueError, match="D must be an integer"):
            ActionGrid(D)

    def test_index_of(self):
        g = ActionGrid(30)
        assert g.index_of(1 / 6) == 5
        assert g.index_of(29 / 30) == 29
        with pytest.raises(ValueError):
            g.index_of(0.11)


def _recurrence(**kw):
    args = dict(D=5, eta=Fraction(1, 2), k=2, w0=Fraction(1, 2), f0=Fraction(1, 2)) | kw
    return analysis.recurrence_params(**args)


@pytest.mark.parametrize("name, call", [
    ("max_steps", lambda: LearnerConfig(game=UltimatumGame(ActionGrid(3)), eta=0.5, max_steps=True)),
    ("D", lambda: ActionGrid(True)),
    ("k", lambda: _recurrence(k=True)),
    ("n", lambda: analysis.iterate_recurrence(_recurrence(), True)),
    ("n", lambda: analysis.closed_form_mp(_recurrence(), True)),
    ("parallelism", lambda: metagame._check_parallelism(True)),
    ("n", lambda: Treeplex(False, True, 2)),
    ("m", lambda: Treeplex(True, 2, True)),
    ("refinement", lambda: analysis.continuous_br_gap(
        (pure_strategy(ActionGrid(3), 0.0), pure_strategy(ActionGrid(3), 0.0)), ActionGrid(3), True)),
    ("n_runs", lambda: cli.run_audit(True, 42)),
    ("exact_compare", lambda: cli.run_audit(3, 42, exact_compare=True)),
], ids=["max_steps", "D", "k", "iterate_n", "closed_form_n", "parallelism", "treeplex_n",
        "treeplex_m", "refinement", "n_runs", "exact_compare"])
def test_bool_is_not_an_integer(name, call):
    # one integer rule: operator.index takes True as 1, the rule refuses it
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
        call()


def test_treeplex_sizes_follow_the_integer_rule():
    # numpy integers are counts, stored as int; a bool size is a StructuralError
    tp = Treeplex(False, np.int64(3), np.int64(2))
    assert (tp.n, tp.m) == (3, 2) and type(tp.n) is int and type(tp.m) is int
    assert tp == Treeplex.blocks(3, 3)
    with pytest.raises(StructuralError):
        Treeplex(False, True, 2)


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
        approx = weights / weights.sum()
        for agent in (FIRM, WORKER):
            (fe,), (den,) = ultimatum_feedback_exact(agent, [weights.tolist()],
                                                     [int(weights.sum())], g)
            ff = ultimatum_feedback(agent, approx, g)
            np.testing.assert_allclose([v / den for v in fe], ff, atol=1e-12)

    def test_exact_numerators_over_den_times_d(self):
        # x = (1/2, 1/4, 1/4) on D = 2, as numerators (2, 1, 1) over 4
        g = ActionGrid(2)
        assert ultimatum_feedback_exact(FIRM, [[2, 1, 1]], [4], g) == ([[4, 3, 0]], [8])
        assert ultimatum_feedback_exact(WORKER, [[2, 1, 1]], [4], g) == ([[3, 3, 2]], [8])

    @pytest.mark.parametrize("D", [3, 7])
    def test_exact_stack_matches_fraction_loop(self, rng, D):
        g = ActionGrid(D)
        nums = rng.integers(0, 12, size=(5, g.size)).tolist()
        dens = [sum(row) + int(k) for row, k in zip(nums, rng.integers(1, 4, size=5))]
        for agent in (FIRM, WORKER):
            out, out_dens = ultimatum_feedback_exact(agent, nums, dens, g)
            assert out_dens == [d * D for d in dens]
            for row, den, got, got_den in zip(nums, dens, out, out_dens):
                want = oracles._feedback_exact_loop(agent, [Fraction(u, den) for u in row], g)
                assert [Fraction(u, got_den) for u in got] == want

    def test_exact_rejects_wrong_length(self):
        with pytest.raises(StructuralError):
            ultimatum_feedback_exact(FIRM, [[1, 1]], [2], ActionGrid(2))


class TestStackedFeedback:
    """A 2-D opponent stack gives exactly the per-row feedback vectors."""

    @pytest.mark.parametrize("D", [3, 5])
    def test_ultimatum_stack_matches_rows(self, rng, D):
        grid = ActionGrid(D)
        X = np.array([random_simplex(rng, grid.size) for _ in range(6)])
        X[0, 1] = 1e-16
        for agent in (FIRM, WORKER):
            stacked = ultimatum_feedback(agent, X, grid)
            assert np.array_equal(stacked, [ultimatum_feedback(agent, x, grid) for x in X])

    def test_tiny_mass_reaches_feedback(self):
        # a 1e-16 mass at offer 1/D counts wherever no unit mass absorbs it
        grid = ActionGrid(5)
        acts = grid.actions
        x = pure_strategy(grid, 0.0)
        x[1] = 1e-16
        assert ultimatum_feedback(WORKER, x, grid).tolist() == [1e-16 * acts[1]] * 2 + [0.0] * 4
        x = pure_strategy(grid, 1.0)
        x[1] = 1e-16
        assert ultimatum_feedback(FIRM, x, grid).tolist() == [0.0, *(1e-16 * (1.0 - acts[1:5])), 0.0]

    def test_padded_rows_match_own_grids(self, rng):
        # rows of narrower grids padded with mass 0 and action 1.0: feedback
        # 0 on the pads and, on each row's own entries, its own grid's bits
        grid = ActionGrid(7)
        widths = np.array([4, 8, 6, 4])
        pad = np.arange(grid.size) >= widths[:, None]
        X = np.zeros((len(widths), grid.size))
        for x, w in zip(X, widths):
            x[:w] = random_simplex(rng, w)
        actions = np.where(pad, 1.0, np.arange(grid.size) / (widths - 1)[:, None])
        for agent in (FIRM, WORKER):
            stacked = ultimatum_feedback(agent, X, grid, actions)
            assert (stacked[pad] == 0).all()
            for row, x, w in zip(stacked, X, widths):
                assert np.array_equal(row[:w], ultimatum_feedback(agent, x[:w], ActionGrid(w - 1)))

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
        assert len(oracles.infosets(tp_f)) == 37  # root offer infoset + 36 response infosets
        assert (tp_f.paired, tp_f.n, tp_f.m) == (True, 6, 6)
        assert tp_w.n_sequences - 1 == 42  # 6 accepts + 36 counters
        assert len(oracles.infosets(tp_w)) == 6
        assert (tp_w.paired, tp_w.n, tp_w.m) == (False, 6, 6)

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


    @pytest.mark.parametrize("D", [3, 5])
    def test_vertex_plans_match_oracle_layout(self, D):
        game = TwoRoundGame(ActionGrid(D), 0.9)
        n = D + 1
        firm, worker = oracles.sequence_index(True, n, n), oracles.sequence_index(False, n, n)
        for i, first in enumerate(game.grid.actions):
            for j, second in enumerate(game.grid.actions):
                # firm offers i and accepts counters c >= j; worker accepts offers c >= i, else counters j
                expected_f = np.zeros(len(firm))
                expected_w = np.zeros(len(worker))
                expected_f[0] = expected_w[0] = expected_f[firm["head", i]] = 1.0
                for c in range(n):
                    expected_f[firm["accept" if c >= j else "reject", i, c]] = 1.0
                    expected_w[worker[("head", c) if c >= i else ("counter", c, j)]] = 1.0
                assert np.array_equal(firm_vertex_plan(game, first, second), expected_f)
                assert np.array_equal(worker_vertex_plan(game, first, second), expected_w)


class TestTwoRoundFeedback:
    def setup_method(self):
        self.game = TwoRoundGame(ActionGrid(5), 0.9)
        self.grid = self.game.grid
        self.firm = oracles.sequence_index(True, 6, 6)
        self.worker = oracles.sequence_index(False, 6, 6)

    def test_firm_second_round_accept_value(self):
        # worker rejects everything and counters 0.2 with certainty
        r_w = worker_vertex_plan(self.game, threshold=1.0, counter=0.2)
        fb = two_round_feedback(FIRM, r_w, self.game)
        idx = self.firm["accept", self.grid.index_of(0.6), self.grid.index_of(0.2)]
        assert fb[idx] == pytest.approx(0.18, abs=1e-12)

    def test_worker_counter_value(self):
        r_f = firm_vertex_plan(self.game, offer=0.6, threshold=0.0)
        fb = two_round_feedback(WORKER, r_f, self.game)
        idx = self.worker["counter", self.grid.index_of(0.6), self.grid.index_of(0.2)]
        assert fb[idx] == pytest.approx(0.72, abs=1e-12)

    def test_second_round_reject_pays_zero(self):
        r_w = worker_vertex_plan(self.game, threshold=1.0, counter=0.4)
        fb = two_round_feedback(FIRM, r_w, self.game)
        for a in range(6):
            for b in range(6):
                assert fb[self.firm["reject", a, b]] == 0.0

    def test_matches_ultimatum_when_worker_accepts_all(self):
        # worker accepting every first offer makes second-round terms vanish
        r_w = worker_vertex_plan(self.game, threshold=0.0, counter=0.0)
        fb2 = two_round_feedback(FIRM, r_w, self.game)
        x_w = pure_strategy(self.grid, 0.0)
        fb1 = ultimatum_feedback(FIRM, x_w, self.grid)
        offers = [self.firm["head", a] for a in range(6)]
        np.testing.assert_allclose(fb2[offers], fb1, atol=1e-15)
        assert np.all(fb2[1 + 6 :] == 0.0)

    def test_threshold_vertex_matches_ultimatum_offer_rows(self):
        for thr in self.grid.actions:
            r_w = worker_vertex_plan(self.game, threshold=thr, counter=0.4)
            fb2 = two_round_feedback(FIRM, r_w, self.game)
            fb1 = ultimatum_feedback(FIRM, pure_strategy(self.grid, thr), self.grid)
            offers = [self.firm["head", a] for a in range(6)]
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


def _plans(rng, tp, game, agent):
    """Vertex, uniform and projected random plans of one side, some entries below 1e-15."""
    vertex = firm_vertex_plan if agent == FIRM else worker_vertex_plan
    acts = game.grid.actions
    plans = [vertex(game, acts[i], acts[j]) for i, j in rng.integers(0, len(acts), size=(4, 2))]
    plans.append(tp.uniform_plan())
    proj = TreeplexProjector(tp)
    for scale in (0.5, 5.0, 50.0):
        plans.append(proj.project(scale * rng.normal(size=tp.n_sequences)))
    tiny = tp.uniform_plan()
    tiny[1::2] *= 1e-15 * rng.uniform(0.01, 1.0, size=tiny[1::2].shape)
    plans.append(tiny)
    return np.array(plans)


class TestFeedbackTables:
    """Two-round feedback from the game's tables equals the payoff formula view by view."""

    @pytest.mark.parametrize("D", [3, 5, 10])
    def test_matches_view_formula(self, rng, D):
        game = TwoRoundGame(ActionGrid(D), 0.9)
        for agent, other in ((FIRM, WORKER), (WORKER, FIRM)):
            R = _plans(rng, build_treeplex(game, other), game, other)
            assert ((R > 0) & (R < 1e-15)).any()
            stacked = two_round_feedback(agent, R, game)
            assert np.array_equal(stacked, oracles.two_round_feedback_loop(agent, R, game))
            for r, row in zip(R, stacked):
                single = two_round_feedback(agent, r, game)
                assert np.array_equal(single, oracles.two_round_feedback_loop(agent, r, game))
                assert np.array_equal(single, row)

    @pytest.mark.parametrize("D", [3, 5])
    def test_tables_read_only_with_one_source_each(self, D):
        game = TwoRoundGame(ActionGrid(D), 0.55)
        for agent, other in ((FIRM, WORKER), (WORKER, FIRM)):
            own, opp = build_treeplex(game, agent), build_treeplex(game, other)
            src, coef = game._feedback_tables[agent]
            assert src.shape == coef.shape == (own.n_sequences,)
            for table in (src, coef):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1
            # the view formula on unit plans is the payoff matrix: each own
            # sequence's column holds at most one nonzero, at its source
            M = oracles.two_round_feedback_loop(agent, np.eye(opp.n_sequences), game)
            for s in range(own.n_sequences):
                nonzero = np.flatnonzero(M[:, s])
                assert nonzero.tolist() in ([], [src[s]])
                assert M[src[s], s] == coef[s]
            # the root and the second-round rejects earn 0 from the root
            assert src[own.root] == opp.root and coef[own.root] == 0.0
            if agent == FIRM:
                assert (own.views(src)[1][..., 1] == opp.root).all()
                assert (own.views(coef)[1][..., 1] == 0.0).all()
            assert game._feedback_tables is game._feedback_tables
