import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from ftrl_bargain import games, geometry
from ftrl_bargain.games import FIRM, WORKER, ActionGrid, TwoRoundGame, build_treeplex
from ftrl_bargain.geometry import (
    PLAN_FLOW_TOL,
    PLAN_NEG_TOL,
    StructuralError,
    Treeplex,
    TreeplexProjector,
    _threshold_rows,
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
        # active support of the sort-and-threshold rule
        assert (_threshold_rows(np.array([0.5, 0.2, 0.2])) > 0.0).all()
        y = _threshold_rows(np.array([2.0, 0.0, 0.0]))
        assert list(y > 0.0) == [True, False, False]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            project_simplex(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("n", [3, 9, 31])
    def test_check_simplex_stack_matches_rows(self, rng, n):
        # a point, then its sum moved and an entry made negative, just inside
        # and just outside the 1e-9 tolerance
        x = rng.dirichlet(np.ones(n))
        rows = [x]
        for step in (0.9e-9, 1.1e-9):
            for sign in (1.0, -1.0):
                rows.append(x + np.eye(n)[0] * sign * step)
            rows.append(x + np.eye(n)[1] * -(x[1] + step) + np.eye(n)[2] * (x[1] + step))
        rows = np.array(rows)
        want = [geometry.check_simplex(r) for r in rows]
        assert want == [True] * 4 + [False] * 3 and all(type(v) is bool for v in want)
        for view in (rows, np.array(rows.T, order="C").T):
            assert geometry.check_simplex(view).tolist() == want

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


def integer_rows(rows):
    """Fraction rows as (numerators, one denominator per row), the exact layers' input."""
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    return [[int(v * d) for v in row] for row, d in zip(rows, dens)], dens


def exact_projection(vals):
    """``project_simplex_exact`` of one ``Fraction`` vector, as ``Fraction``s."""
    (row,), (den,) = project_simplex_exact(*integer_rows([vals]))
    return [Fraction(u, den) for u in row]


class TestExactSimplexProjection:
    def test_symmetric(self):
        assert exact_projection([Fraction(0)] * 3) == [Fraction(1, 3)] * 3

    def test_waterfilling_exact(self):
        out = exact_projection([Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)])
        assert out == [Fraction(16, 30), Fraction(7, 30), Fraction(7, 30)]

    def test_idempotent_on_simplex_point(self):
        point = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        assert exact_projection(point) == point

    def test_threshold_denominator(self):
        # two entries kept: numerators over den * 2, not reduced
        assert project_simplex_exact([[5, 2, 2]], [10]) == ([[16, 7, 7]], [30])
        assert project_simplex_exact([[0, 0, 0]], [7]) == ([[7, 7, 7]], [21])

    def test_agrees_with_float(self, rng):
        for _ in range(40):
            nums = rng.integers(-(2**31), 2**31, size=6)
            dens = rng.integers(1, 2**31, size=6)
            vals = [Fraction(int(n), int(d)) for n, d in zip(nums, dens)]
            exact = exact_projection(vals)
            approx = project_simplex(np.array([float(v) for v in vals]))
            np.testing.assert_allclose([float(v) for v in exact], approx, atol=1e-12)

    def test_mass_difference_exact(self, rng):
        vals = [Fraction(int(n), 97) for n in rng.integers(-300, 300, size=7)]
        out = exact_projection(vals)
        pos = [i for i, x in enumerate(out) if x > 0]
        for i in pos:
            for j in pos:
                assert out[i] - out[j] == vals[i] - vals[j]

    @given(st.lists(st.lists(st.fractions(-5, 5, max_denominator=50), min_size=4, max_size=4),
                    min_size=1, max_size=5), st.integers(1, 6))
    def test_stack_matches_fraction_loop(self, rows, scale):
        # rows of a stack, on unreduced denominators, project as the Fraction oracle does
        nums, dens = integer_rows(rows)
        out, out_dens = project_simplex_exact([[u * scale for u in row] for row in nums],
                                              [d * scale for d in dens])
        for row, got, den in zip(rows, out, out_dens):
            assert [Fraction(u, den) for u in got] == oracles._project_simplex_exact_loop(row)

    def test_rejects_empty_rows(self):
        with pytest.raises(StructuralError):
            project_simplex_exact([[]], [1])


def small_treeplex():
    """Single root infoset over three sequences: the simplex as a treeplex."""
    return Treeplex.blocks(1, 3)


class TestTreeplex:
    def test_validation_rejects_orphan(self):
        # the root and the views reach every sequence; an entry past them is rejected
        for tp in (build_treeplex(TwoRoundGame(ActionGrid(3), 0.9), agent) for agent in (FIRM, WORKER)):
            head, below = tp.views(np.arange(tp.n_sequences))
            reached = np.r_[tp.root, head, below.ravel()]
            assert set(reached.tolist()) == set(range(tp.n_sequences))
            longer = np.r_[tp.uniform_plan(), 0.0]
            with pytest.raises(StructuralError):
                validate_plan(longer, tp)
            with pytest.raises(StructuralError):
                TreeplexProjector(tp).project(longer)

    def test_validation_rejects_duplicate_child(self):
        # no sequence sits in two places of the views; a plan that would need one is rejected
        for tp in (build_treeplex(TwoRoundGame(ActionGrid(3), 0.9), agent) for agent in (FIRM, WORKER)):
            head, below = tp.views(np.arange(tp.n_sequences))
            reached = np.r_[tp.root, head, below.ravel()]
            assert len(reached) == len(set(reached.tolist())) == tp.n_sequences
            shorter = tp.uniform_plan()[:-1]
            with pytest.raises(StructuralError):
                validate_plan(shorter, tp)
            with pytest.raises(StructuralError):
                TreeplexProjector(tp).project(shorter)

    @pytest.mark.parametrize("agent,D", [(a, d) for d in (3, 5, 8) for a in (FIRM, WORKER)])
    def test_views_match_oracle_enumeration(self, agent, D):
        tp = build_treeplex(TwoRoundGame(ActionGrid(D), 0.9), agent)
        n = D + 1
        idx = oracles.sequence_index(agent == FIRM, n, n)
        assert tp.n_sequences == len(idx)
        head, below = tp.views(np.arange(tp.n_sequences))
        for a in range(n):
            assert head[a] == idx["head", a]
            for b in range(n):
                if agent == FIRM:
                    assert below[a, b, 0] == idx["accept", a, b]
                    assert below[a, b, 1] == idx["reject", a, b]
                else:
                    assert below[a, b] == idx["counter", a, b]
        # a stack views row by row, and writes through the views land in it
        X = np.arange(3.0 * tp.n_sequences).reshape(3, tp.n_sequences)
        H, B = tp.views(X)
        assert np.array_equal(H, X[:, head]) and np.array_equal(B, X[:, below])
        H[...], B[...] = -1.0, -2.0
        assert (X[:, head] == -1.0).all() and (X[:, below] == -2.0).all() and (X[:, 0] >= 0).all()

    @pytest.mark.parametrize("agent", [FIRM, WORKER])
    def test_validate_plan_matches_dense_residual(self, rng, agent):
        game = TwoRoundGame(ActionGrid(3), 0.9)
        tp = build_treeplex(game, agent)
        vertex = games.firm_vertex_plan if agent == FIRM else games.worker_vertex_plan
        plans = [tp.uniform_plan(), vertex(game, 1 / 3, 2 / 3), vertex(game, 0.0, 1.0),
                 TreeplexProjector(tp).project(rng.normal(size=tp.n_sequences))]
        verdicts, stack = set(), []
        for plan in plans:
            assert validate_plan(plan, tp)
            for step in (0.9, 1.1, -0.9, -1.1):
                # scaling everything below the root moves only the flows that leave it
                perturbed = [plan * np.r_[1.0, np.full(tp.n_sequences - 1, 1.0 + step * PLAN_FLOW_TOL)]]
                for i in range(tp.n_sequences):
                    perturbed.append(plan.copy())
                    perturbed[-1][i] += step * PLAN_FLOW_TOL
                # scaling the whole plan keeps every flow and moves only the root
                perturbed.append(plan * (1.0 + step * PLAN_FLOW_TOL))
                for i, r in enumerate(perturbed):
                    verdict = validate_plan(r, tp)
                    assert verdict == oracles.plan_feasible_dense(r, tp, PLAN_FLOW_TOL, PLAN_NEG_TOL)
                    # just inside the tolerance passes, just outside fails
                    if i == 0 or i > tp.n_sequences or r[i - 1] > 0.0:
                        assert verdict == (abs(step) < 1.0)
                    verdicts.add(verdict)
                    stack.append((r, verdict))
        assert verdicts == {True, False}
        # a stack gets each row's verdict, in either memory order
        rows, want = np.array([r for r, _ in stack]), [v for _, v in stack]
        assert all(type(v) is bool for v in want)
        for view in (rows, np.array(rows.T, order="C").T):
            assert validate_plan(view, tp).tolist() == want

    def test_uniform_plan_feasible(self):
        game = TwoRoundGame(ActionGrid(5), 0.9)
        for agent in (FIRM, WORKER):
            tp = build_treeplex(game, agent)
            assert validate_plan(tp.uniform_plan(), tp)

    def test_normalize_backward_is_row_space_shift(self, rng):
        game = TwoRoundGame(ActionGrid(4), 0.7)
        tp = build_treeplex(game, FIRM)
        E, _ = oracles.constraints(tp)
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

    @pytest.mark.parametrize("D", [3, 5, 8])
    def test_normalize_backward_matches_loop(self, rng, D):
        game = TwoRoundGame(ActionGrid(D), 0.9)
        for tp in (build_treeplex(game, FIRM), build_treeplex(game, WORKER), small_treeplex()):
            for scale in (1.0, 1e3, 1e6):
                u = rng.normal(size=tp.n_sequences) * scale
                assert np.array_equal(tp.normalize_backward(u), oracles.normalize_backward_loop(u, tp))

    @pytest.mark.parametrize("D", [3, 5, 8])
    def test_normalize_backward_stack_matches_rows(self, rng, D):
        game = TwoRoundGame(ActionGrid(D), 0.9)
        for tp in (build_treeplex(game, FIRM), build_treeplex(game, WORKER), small_treeplex()):
            scales = np.array([0.1, 1.0, 1.0, 30.0, 1e3, 1e6] * 21 + [1e3, 1e6])
            U = rng.normal(size=(128, tp.n_sequences)) * scales[:, None]
            U[::3] = np.round(U[::3])  # ties inside infosets
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
                assert validate_plan(plan, tp)

    @pytest.mark.slow
    def test_matches_first_order_oracle(self, rng):
        game = TwoRoundGame(ActionGrid(3), 0.9)
        tp = build_treeplex(game, FIRM)
        E, e = oracles.constraints(tp)
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
    def test_variational_optimality(self, rng, agent, D, monkeypatch):
        # x = proj(v) iff <v - x, z - x> <= 0 for every plan z; outputs are
        # checked as plans at a flow tolerance of 1e-12
        monkeypatch.setattr(geometry, "PLAN_FLOW_TOL", 1e-12)
        tp = small_treeplex() if D is None else build_treeplex(TwoRoundGame(ActionGrid(D), 0.9), agent)
        proj = TreeplexProjector(tp)
        for scale in (0.1, 1.0, 3.0, 30.0):
            for rounded in (False, True):  # rounding makes ties and zero breakpoints
                for _ in range(20):
                    v = rng.normal(size=tp.n_sequences) * scale
                    v = np.round(v) if rounded else v
                    x = proj.project(v)
                    assert validate_plan(x, tp)
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
        ((Treeplex.blocks, 0, 3), (Treeplex.blocks, -1, 3)),  # no infosets
        ((Treeplex.blocks, 3, 1),),                           # a head with no tail
        ((Treeplex.pairs, 0, 2),),                            # no offers
        ((Treeplex.pairs, 2, 0),),                            # offers with no pair below
        ((Treeplex.pairs, 2.5, 2),),                          # a size that is no count
    ])
    def test_unsupported_shape_rejected(self, tp):
        # only the blocks and pairs layouts exist, so no projector is built on anything else
        for make, n, k in tp:
            with pytest.raises(StructuralError):
                TreeplexProjector(make(n, k))

    def test_nan_rejected(self):
        tp = small_treeplex()
        with pytest.raises(ValueError):
            TreeplexProjector(tp).project(np.array([0.0, np.nan, 0.0, 0.0]))
