import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from ftrl_bargain.games import FIRM, WORKER, ActionGrid, TwoRoundGame, build_treeplex
from ftrl_bargain.geometry import (
    StructuralError,
    Treeplex,
    TreeplexProjector,
    behavioral_from_plan,
    project_simplex,
    project_simplex_batch,
    project_simplex_exact,
    validate_plan,
)

import oracles

finite_vec = st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=12).map(np.array)


class TestSimplexProjection:
    def test_symmetric_input(self):
        np.testing.assert_allclose(project_simplex(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_dominant_coordinate(self):
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0, 0.0])), [1, 0, 0], atol=1e-15)

    def test_waterfilling_example(self):
        # theta = -1/30, cross-checked against an exhaustive lattice search
        x = project_simplex(np.array([0.5, 0.2, 0.2]))
        np.testing.assert_allclose(x, [16 / 30, 7 / 30, 7 / 30], atol=1e-12)
        lattice, lattice_d = oracles.simplex_lattice_best(np.array([0.5, 0.2, 0.2]), 60)
        assert ((x - np.array([0.5, 0.2, 0.2])) ** 2).sum() <= lattice_d + 1e-12

    def test_certificate(self):
        x, cert = project_simplex(np.array([0.5, 0.2, 0.2]), return_certificate=True)
        assert cert.theta == pytest.approx(-1 / 30, abs=1e-15)
        assert cert.support.all()
        y, cert2 = project_simplex(np.array([2.0, 0.0, 0.0]), return_certificate=True)
        assert cert2.theta == pytest.approx(1.0, abs=1e-15)
        assert list(cert2.support) == [True, False, False]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            project_simplex(np.array([np.inf, 0.0]))

    @given(finite_vec)
    def test_idempotent(self, v):
        x = project_simplex(v)
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-12)
        assert abs(x.sum() - 1.0) < 1e-12 and np.all(x >= 0)

    @given(finite_vec, st.data())
    def test_nonexpansive(self, u, data):
        w = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=len(u), max_size=len(u)).map(np.array)
        )
        lhs = np.linalg.norm(project_simplex(u) - project_simplex(w))
        assert lhs <= np.linalg.norm(u - w) + 1e-9

    @given(finite_vec)
    def test_order_preservation(self, v):
        x = project_simplex(v)
        for i in range(len(v)):
            for j in range(len(v)):
                if max(x[i], x[j]) > 0:
                    if v[i] > v[j] + 1e-12:
                        assert x[i] >= x[j]
                    if abs(v[i] - v[j]) < 1e-15:
                        assert abs(x[i] - x[j]) < 1e-12

    @given(finite_vec)
    def test_mass_difference_law(self, v):
        x = project_simplex(v)
        pos = np.nonzero(x > 0)[0]
        for i in pos:
            for j in pos:
                assert x[i] - x[j] == pytest.approx(v[i] - v[j], abs=1e-9)

    def test_batch_matches_single_bitwise(self, rng):
        v = rng.normal(size=(40, 9)) * 10
        batch = project_simplex_batch(v)
        for row in range(v.shape[0]):
            single = project_simplex(v[row])
            assert np.array_equal(batch[row], single)
        assert np.array_equal(project_simplex(v), batch)


class TestExactSimplexProjection:
    def test_symmetric(self):
        assert project_simplex_exact([Fraction(0)] * 3) == [Fraction(1, 3)] * 3

    def test_waterfilling_exact(self):
        out = project_simplex_exact([Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)])
        assert out == [Fraction(16, 30), Fraction(7, 30), Fraction(7, 30)]

    def test_idempotent_on_simplex_point(self):
        point = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        assert project_simplex_exact(point) == point

    def test_agrees_with_float(self, rng):
        for _ in range(40):
            nums = rng.integers(-(2**31), 2**31, size=6)
            dens = rng.integers(1, 2**31, size=6)
            vals = [Fraction(int(n), int(d)) for n, d in zip(nums, dens)]
            exact = project_simplex_exact(vals)
            approx = project_simplex(np.array([float(v) for v in vals]))
            np.testing.assert_allclose([float(v) for v in exact], approx, atol=1e-12)

    def test_mass_difference_exact(self, rng):
        vals = [Fraction(int(n), 97) for n in rng.integers(-300, 300, size=7)]
        out = project_simplex_exact(vals)
        pos = [i for i, x in enumerate(out) if x > 0]
        for i in pos:
            for j in pos:
                assert out[i] - out[j] == vals[i] - vals[j]


def small_treeplex():
    """Single root infoset over three sequences: the simplex as a treeplex."""
    return Treeplex(n_sequences=4, root=0, infosets=((0, (1, 2, 3)),))


def mixed_depth_treeplex():
    """Infosets of several sizes and depths, two of them sharing each parent."""
    return Treeplex(n_sequences=11, root=0, infosets=(
        (0, (1, 2)), (0, (3, 4)), (2, (5, 6)), (2, (7, 8)), (4, (9, 10))))


class TestTreeplex:
    def test_validation_rejects_orphan(self):
        with pytest.raises(StructuralError):
            Treeplex(n_sequences=5, root=0, infosets=((0, (1, 2, 3)),))

    def test_validation_rejects_duplicate_child(self):
        with pytest.raises(StructuralError):
            Treeplex(n_sequences=4, root=0, infosets=((0, (1, 2)), (0, (2, 3))))

    def test_uniform_plan_feasible(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        for agent in (FIRM, WORKER):
            tp = build_treeplex(game, agent)
            assert validate_plan(tp.uniform_plan(), tp)

    def test_normalize_backward_is_row_space_shift(self, rng):
        game = TwoRoundGame(ActionGrid(4), 0.7)
        tp = build_treeplex(game, FIRM)
        E, _ = tp.constraints()
        u = rng.normal(size=tp.n_sequences) * 100
        shifted = tp.normalize_backward(u)
        diff = u - shifted
        # the shift must lie in the row space of the constraint matrix
        residual = diff - E.T @ np.linalg.lstsq(E.T, diff, rcond=None)[0]
        assert np.abs(residual).max() < 1e-9

    def test_normalize_backward_preserves_projection(self, rng):
        game = TwoRoundGame(ActionGrid(3), 0.5)
        tp = build_treeplex(game, FIRM)
        proj = TreeplexProjector(tp)
        for _ in range(5):
            u = rng.normal(size=tp.n_sequences) * 3
            a = proj.project(u)
            b = proj.project(tp.normalize_backward(u))
            np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("D", [3, 5])
    def test_normalize_backward_matches_loop(self, rng, D):
        game = TwoRoundGame(ActionGrid(D), 0.9)
        for tp in (build_treeplex(game, FIRM), build_treeplex(game, WORKER), mixed_depth_treeplex()):
            for scale in (1.0, 1e3):
                u = rng.normal(size=tp.n_sequences) * scale
                assert np.array_equal(tp.normalize_backward(u), oracles.normalize_backward_loop(u, tp))

    @pytest.mark.parametrize("D", [3, 5])
    def test_normalize_backward_stack_matches_rows(self, rng, D):
        game = TwoRoundGame(ActionGrid(D), 0.9)
        for tp in (build_treeplex(game, FIRM), build_treeplex(game, WORKER), mixed_depth_treeplex()):
            U = rng.normal(size=(6, tp.n_sequences)) * np.array([0.1, 1.0, 1.0, 30.0, 1e3, 1e3])[:, None]
            U[:2] = np.round(U[:2])  # ties inside infosets
            expected = [oracles.normalize_backward_loop(u, tp) for u in U]
            assert np.array_equal(tp.normalize_backward(U), expected)
            assert np.array_equal(tp.normalize_backward(U[:1]), expected[:1])


class TestTreeplexProjection:
    def test_degenerate_treeplex_is_simplex(self, rng):
        tp = small_treeplex()
        proj = TreeplexProjector(tp)
        for _ in range(20):
            v = rng.normal(size=4) * 5
            out = proj.project(v)
            expected = project_simplex(v[1:])
            np.testing.assert_allclose(out[1:], expected, atol=1e-10)
            assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_on_plans(self, rng):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        for agent in (FIRM, WORKER):
            tp = build_treeplex(game, agent)
            proj = TreeplexProjector(tp)
            plan = proj.project(rng.normal(size=tp.n_sequences))
            np.testing.assert_allclose(proj.project(plan), plan, atol=1e-9)

    def test_output_feasibility(self, rng):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        for agent in (FIRM, WORKER):
            tp = build_treeplex(game, agent)
            proj = TreeplexProjector(tp)
            for scale in (0.1, 1.0, 30.0):
                plan = proj.project(rng.normal(size=tp.n_sequences) * scale)
                assert validate_plan(plan, tp, tol=1e-9)

    @pytest.mark.slow
    def test_matches_first_order_oracle(self, rng):
        game = TwoRoundGame(ActionGrid(3), 0.9)
        tp = build_treeplex(game, FIRM)
        E, e = tp.constraints()
        proj = TreeplexProjector(tp)
        v = rng.normal(size=tp.n_sequences) * 2
        ours = proj.project(v)
        oracle = oracles.dual_ascent_projection(v, E, e, iters=1_000_000)
        np.testing.assert_allclose(ours, oracle, atol=1e-7)
        obj_ours = ((ours - v) ** 2).sum()
        obj_oracle = ((oracle - v) ** 2).sum()
        assert obj_ours <= obj_oracle + 1e-9

    @pytest.mark.parametrize("agent,D", [(a, d) for d in (3, 5, 8) for a in (FIRM, WORKER)]
                             + [("simplex", None)])
    def test_variational_optimality(self, rng, agent, D):
        # x = proj(v) iff <v - x, z - x> <= 0 for every plan z
        tp = small_treeplex() if D is None else build_treeplex(TwoRoundGame(ActionGrid(D), 0.9), agent)
        proj = TreeplexProjector(tp)
        for scale in (0.1, 1.0, 3.0, 30.0):
            for rounded in (False, True):  # rounding makes ties and zero breakpoints
                for _ in range(20):
                    v = rng.normal(size=tp.n_sequences) * scale
                    v = np.round(v) if rounded else v
                    x = proj.project(v)
                    assert validate_plan(x, tp, tol=1e-12)
                    c = v - x
                    assert oracles.treeplex_best_response_value(c, tp) <= float(c @ x) + 1e-9

    @pytest.mark.parametrize("agent,D", [(a, d) for d in (3, 5) for a in (FIRM, WORKER)]
                             + [("simplex", None)])
    def test_stack_matches_rows(self, rng, agent, D):
        tp = small_treeplex() if D is None else build_treeplex(TwoRoundGame(ActionGrid(D), 0.9), agent)
        proj = TreeplexProjector(tp)
        V = rng.normal(size=(12, tp.n_sequences)) * np.repeat([0.1, 1.0, 30.0], 4)[:, None]
        V[::4] = np.round(V[::4])  # ties and zero breakpoints
        assert np.array_equal(proj.project(V), [proj.project(v) for v in V])
        assert np.array_equal(proj.project(V[:1]), [proj.project(V[0])])

    @pytest.mark.parametrize("tp", [
        mixed_depth_treeplex(),
        Treeplex(n_sequences=6, root=0, infosets=((0, (1, 2)), (2, (3, 4, 5)))),
        Treeplex(n_sequences=6, root=0, infosets=((0, (1, 2)), (0, (3, 4, 5)))),
        Treeplex(n_sequences=6, root=0, infosets=((0, (1,)), (1, (2, 3)), (2, (4, 5)))),
    ])
    def test_unsupported_shape_rejected(self, tp):
        with pytest.raises(StructuralError):
            TreeplexProjector(tp)

    def test_nan_rejected(self):
        tp = small_treeplex()
        with pytest.raises(ValueError):
            TreeplexProjector(tp).project(np.array([0.0, np.nan, 0.0, 0.0]))


class TestBehavioral:
    def test_ratios(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        tp = build_treeplex(game, FIRM)
        plan = tp.uniform_plan()
        cells = behavioral_from_plan(plan, tp)
        assert not cells[0].unreachable
        np.testing.assert_allclose(cells[0].probs, np.full(6, 1 / 6), atol=1e-12)
        # every response infoset splits its offer mass in half
        for cell in cells[1:]:
            np.testing.assert_allclose(cell.probs, [0.5, 0.5], atol=1e-12)

    def test_unreachable_placeholder(self):
        tp = Treeplex(n_sequences=6, root=0, infosets=((0, (1, 2)), (2, (3, 4, 5))))
        plan = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        cells = behavioral_from_plan(plan, tp)
        assert not cells[0].unreachable
        assert cells[1].unreachable
        np.testing.assert_allclose(cells[1].probs, np.full(3, 1 / 3))

    def test_split_after_offer(self):
        tp = Treeplex(n_sequences=6, root=0, infosets=((0, (1, 2)), (2, (3, 4, 5))))
        plan = np.array([1.0, 0.0, 1.0, 0.5, 0.5, 0.0])
        cells = behavioral_from_plan(plan, tp)
        np.testing.assert_allclose(cells[1].probs, [0.5, 0.5, 0.0])
