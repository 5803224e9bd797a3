"""The float kernel's layers give the same bits whatever the memory order of their input.

The kernel holds its stacks entries-major and hands each layer the ``(k, n)``
``.T`` view of one, an F-ordered stack; other callers pass C-ordered row
stacks.  Each layer must return, for both, the bits of its row-major body
(``oracles.*_rows``), including the pairwise-summed reductions that D >= 8
reaches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftrl_bargain import analysis, games, geometry
from ftrl_bargain.games import (FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame,
                                build_treeplex)

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


class TestLayoutIndependence:
    @settings(max_examples=40)
    @given(stacks)
    def test_project_simplex(self, spec):
        x = draw_stack(spec, spec["d"] + 1)
        want = oracles.project_simplex_rows(x)
        for v in layouts(x):
            assert_same_bits(geometry.project_simplex(v), want)
            assert_same_bits(geometry.project_simplex_batch(v), want)

    @settings(max_examples=40)
    @given(stacks, st.sampled_from([FIRM, WORKER]))
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
