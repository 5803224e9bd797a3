"""The float kernel's layers give the same bits whatever the memory order of their input.

The kernel holds its stacks entries-major and hands each layer the ``(k, n)``
``.T`` view of one, an F-ordered stack; other callers pass C-ordered row
stacks.  Each layer must return, for both, the bits of its row-major body
(``oracles.*_rows``), including the pairwise-summed reductions that D >= 8
reaches.  The kernel's own stacks stay C-ordered as rows retire.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftrl_bargain import analysis, games, geometry, learner, metagame
from ftrl_bargain.games import (FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame,
                                build_treeplex)
from ftrl_bargain.learner import LearnerConfig

import oracles

GRID_SIZES = [3, 5, 8, 10]

stacks = st.fixed_dictionaries({
    "d": st.sampled_from(GRID_SIZES),
    "rows": st.integers(1, 300),
    "seed": st.integers(0, 2**32 - 1),
    # coarse values tie often, which the sorts must not notice
    "coarse": st.booleans(),
    "scale": st.sampled_from([1e-3, 1.0, 50.0]),
})


# stacks at least geometry.WIDE rows wide, whose scans take the row-add path
# when the stack is entries-major; every test run reaches them
WIDE_STACKS = [
    {"d": 5, "rows": 300, "seed": 32, "coarse": False, "scale": 1.0},
    {"d": 8, "rows": 400, "seed": 33, "coarse": True, "scale": 50.0},
]


def draw_stack(spec: dict, n: int) -> np.ndarray:
    """A C-ordered ``(rows, n)`` float stack without negative zeros.

    numpy's max of -0.0 and 0.0 may return either zero, and which one depends
    on the memory order it reduces in; the bits of every other value do not.
    """
    rng = np.random.default_rng(spec["seed"])
    x = rng.normal(size=(spec["rows"], n)) * spec["scale"]
    if spec["coarse"]:
        x = np.round(x * 4.0) / 4.0 + 0.0
    return x


def layouts(x: np.ndarray) -> list[np.ndarray]:
    """``x`` C-ordered, and as the ``.T`` view of an entries-major copy."""
    assert x.flags.c_contiguous
    return [x, np.ascontiguousarray(x.T).T]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def two_round(spec: dict) -> TwoRoundGame:
    return TwoRoundGame(ActionGrid(spec["d"]), 0.9)


def certified(cfg: LearnerConfig, x_f, x_w, widths):
    """``learner._certified_rows``' mask, and the gaps of each certificate it takes."""
    gaps, gap_rows = [], analysis._gap_rows

    def spy(*args):
        out = gap_rows(*args)
        gaps.append(out[:2])
        return out

    analysis._gap_rows = spy
    try:
        return learner._certified_rows(cfg, x_f, x_w, widths), gaps
    finally:
        analysis._gap_rows = gap_rows


class TestLayoutIndependence:
    @pytest.mark.parametrize("width", [1, geometry.WIDE - 1, geometry.WIDE, 3 * geometry.WIDE])
    @pytest.mark.parametrize("layout", ["c_order", "reversed_rows", "row_major", "column_slice"])
    def test_cumsum_down_is_cumsum(self, width, layout):
        # the same sums in the same layout as numpy's scan, on both sides of
        # WIDE: the feedback's layout sets how later dot products round
        rng = np.random.default_rng(width)
        a = np.round(rng.normal(size=(31, 2 * width)) * 8.0) / 8.0 + 0.0
        a[rng.random(a.shape) < 0.1] = 1e300
        a = {"c_order": a[:, :width].copy(), "reversed_rows": a[:, :width].copy()[::-1],
             "row_major": np.ascontiguousarray(a[:, :width].T).T,
             "column_slice": a[:, ::2]}[layout]
        got, want = geometry._cumsum_down(a), a.cumsum(axis=0)
        assert got.strides == want.strides
        assert_same_bits(got, want)

    @settings(max_examples=40)
    @given(stacks)
    @example(WIDE_STACKS[0])
    @example(WIDE_STACKS[1])
    def test_project_simplex(self, spec):
        x = draw_stack(spec, spec["d"] + 1)
        want = oracles.project_simplex_rows(x)
        for v in layouts(x):
            assert_same_bits(geometry.project_simplex(v), want)
            assert_same_bits(geometry.project_simplex_batch(v), want)

    @settings(max_examples=40)
    @given(stacks, st.sampled_from([FIRM, WORKER]))
    @example(WIDE_STACKS[0], WORKER)
    @example(WIDE_STACKS[1], WORKER)
    def test_treeplex_project(self, spec, agent):
        tp = build_treeplex(two_round(spec), agent)
        x = draw_stack(spec, tp.n_sequences)
        want = oracles.treeplex_project_rows(x, tp)
        for v in layouts(x):
            assert_same_bits(geometry.TreeplexProjector(tp).project(v), want)

    @settings(max_examples=40)
    @given(stacks, st.sampled_from([FIRM, WORKER]))
    def test_normalize_backward(self, spec, agent):
        tp = build_treeplex(two_round(spec), agent)
        x = draw_stack(spec, tp.n_sequences)
        want = oracles.normalize_backward_rows(x, tp)
        for v in layouts(x):
            assert_same_bits(tp.normalize_backward(v), want)

    @settings(max_examples=40)
    @given(stacks, st.sampled_from([FIRM, WORKER]), st.booleans())
    @example(WIDE_STACKS[0], WORKER, False)
    @example(WIDE_STACKS[0], FIRM, False)
    @example(WIDE_STACKS[1], WORKER, True)
    @example(WIDE_STACKS[1], FIRM, True)
    def test_ultimatum_feedback(self, spec, agent, per_row):
        grid = ActionGrid(spec["d"])
        x = np.abs(draw_stack(spec, grid.size))
        actions = None
        if per_row:
            # rows of narrower grids, padded as the kernel pads them
            rng = np.random.default_rng(spec["seed"] + 1)
            widths = rng.integers(3, grid.size + 1, size=len(x))
            pad = np.arange(grid.size) >= widths[:, None]
            actions = np.where(pad, 1.0, np.arange(grid.size) / (widths - 1)[:, None])
            x[pad] = 0.0
        want = oracles.ultimatum_feedback_rows(agent, x, grid, actions)
        for v in layouts(x):
            for acts in [None] if actions is None else layouts(actions):
                assert_same_bits(games.ultimatum_feedback(agent, v, grid, acts), want)
        # one row of actions applies to every row of the stack
        row = np.linspace(0.0, 1.0, grid.size) ** 2
        assert_same_bits(games.ultimatum_feedback(agent, x, grid, row),
                         oracles.ultimatum_feedback_rows(agent, x, grid, row))

    @settings(max_examples=40)
    @given(stacks, st.sampled_from([FIRM, WORKER]))
    def test_two_round_feedback(self, spec, agent):
        game = two_round(spec)
        opponent = WORKER if agent == FIRM else FIRM
        x = np.abs(draw_stack(spec, build_treeplex(game, opponent).n_sequences))
        want = oracles.two_round_feedback_rows(agent, x, game)
        for v in layouts(x):
            assert_same_bits(games.two_round_feedback(agent, v, game), want)

    @settings(max_examples=40)
    @given(stacks, st.booleans())
    def test_certificate(self, spec, one_shot):
        # the kernel certifies .T views of its state; its row sums and dot
        # products must round as on C-ordered rows
        game = UltimatumGame(ActionGrid(spec["d"])) if one_shot else two_round(spec)
        profile = []
        for agent in (FIRM, WORKER):
            if one_shot:
                profile.append(geometry.project_simplex(draw_stack(spec, game.grid.size)))
            else:
                tp = build_treeplex(game, agent)
                profile.append(geometry.TreeplexProjector(tp).project(draw_stack(spec, tp.n_sequences)))
        want = analysis._gap_rows(game, *profile)
        for x_f, x_w in zip(*map(layouts, profile)):
            for got, exp in zip(analysis._gap_rows(game, x_f, x_w), want):
                assert_same_bits(got, exp)

    @settings(max_examples=40)
    @given(stacks)
    def test_certificate_of_padded_rows(self, spec):
        # the guard trims padded rows of each width by x[pick, :w] and
        # certifies them on their own grid's game, from .T views too
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(spec["d"])), eta=0.5)
        n = cfg.grid.size
        widths = np.random.default_rng(spec["seed"]).integers(3, n + 1, size=spec["rows"])
        profile = []
        for offset in (0, n):
            x = np.zeros((spec["rows"], n))
            drawn = draw_stack(spec, 2 * n)[:, offset:offset + n]
            for w in np.unique(widths):
                pick = widths == w
                x[pick, :w] = geometry.project_simplex(np.ascontiguousarray(drawn[pick, :w]))
            profile.append(x)
        want_mask, want_gaps = certified(cfg, *profile, widths)
        assert len(want_gaps) == len(np.unique(widths))
        for x_f, x_w in zip(*map(layouts, profile)):
            mask, gaps = certified(cfg, x_f, x_w, widths)
            assert_same_bits(mask, want_mask)
            for got, exp in zip(gaps, want_gaps):
                for a, b in zip(got, exp):
                    assert_same_bits(a, b)

    @pytest.mark.parametrize("d", GRID_SIZES)
    def test_one_vector_is_a_one_row_stack(self, d):
        # a 1-D input is the one-row case of the same body, in every layer
        rng = np.random.default_rng(d)
        game = two_round({"d": d})
        v = rng.normal(size=d + 1)
        assert_same_bits(geometry.project_simplex(v), geometry.project_simplex(v[None])[0])
        for agent in (FIRM, WORKER):
            tp = build_treeplex(game, agent)
            u = rng.normal(size=tp.n_sequences)
            assert_same_bits(tp.normalize_backward(u), tp.normalize_backward(u[None])[0])
            projector = geometry.TreeplexProjector(tp)
            assert_same_bits(projector.project(u), projector.project(u[None])[0])
            opp = np.abs(rng.normal(size=build_treeplex(game, WORKER if agent == FIRM
                                                        else FIRM).n_sequences))
            assert_same_bits(games.two_round_feedback(agent, opp, game),
                             games.two_round_feedback(agent, opp[None], game)[0])
            assert_same_bits(games.ultimatum_feedback(agent, v ** 2, game.grid),
                             games.ultimatum_feedback(agent, (v ** 2)[None], game.grid)[0])


def pure_grid(game) -> tuple[list, list]:
    """The initial rows of a pure x pure sweep of ``game``."""
    axis = metagame._axis(game, "pure")
    plans = [[metagame._initial(game, agent, e) for e in axis] for agent in (FIRM, WORKER)]
    return [f for f in plans[0] for _ in plans[1]], [w for _ in plans[0] for w in plans[1]]


class TestKernelLayout:
    """The float kernel holds C-ordered entries-major stacks before and after rows retire."""

    @pytest.mark.parametrize("case", ["one_shot", "mixed_widths", "two_round"])
    def test_state_stays_c_ordered_through_retirement(self, case, monkeypatch):
        if case == "two_round":
            game = TwoRoundGame(ActionGrid(3), 0.9)
            init_f, init_w = (rows[:16] for rows in pure_grid(game))
        else:
            game = UltimatumGame(ActionGrid(3 if case == "one_shot" else 5))
            init_f, init_w = pure_grid(game)
            if case == "mixed_widths":
                narrow = pure_grid(UltimatumGame(ActionGrid(3)))
                init_f, init_w = init_f[::3] + narrow[0][::2], init_w[::3] + narrow[1][::2]
        accumulated, seen = [], []
        accumulate = learner._FloatArithmetic.accumulate

        def spy(cum, fb):
            accumulated.append(cum.flags.c_contiguous)
            return accumulate(cum, fb)

        def observe(t, rows, x, v, new):
            seen.append((len(rows), all(stack[i].T.flags.c_contiguous
                                        for stack in (x, v, new) for i in (0, 1))))

        monkeypatch.setattr(learner._FloatArithmetic, "accumulate", staticmethod(spy))
        run = learner.run_lockstep(LearnerConfig(game=game, eta=0.5), init_f, init_w, observe)
        # rows retire at several steps, and steps run after the first retirement
        assert len(set(run.converged_at.tolist())) > 2 and seen[0][0] > seen[-1][0]
        assert len(accumulated) == 2 * len(seen) and all(accumulated)
        assert all(ok for _, ok in seen)
