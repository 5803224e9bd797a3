"""Bargaining game definitions.

Two games over a shared discretized offer grid: the one-shot ultimatum game
(mixed strategies on the simplex) and the two-round alternating game
(sequence-form realization plans on a treeplex).  This module owns payoffs,
single-step expected-utility feedback vectors, pure strategies and plans, and
which treeplex layout each side of the two-round game uses; the layout itself
lives in :class:`geometry.Treeplex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal, Union

import numpy as np

from .geometry import StructuralError, Treeplex

__all__ = [
    "FIRM",
    "WORKER",
    "ActionGrid",
    "UltimatumGame",
    "TwoRoundGame",
    "utility_ultimatum",
    "ultimatum_feedback",
    "ultimatum_feedback_exact",
    "build_treeplex",
    "two_round_feedback",
    "firm_vertex_plan",
    "worker_vertex_plan",
    "pure_strategy",
    "uniform_strategy",
]

FIRM = "firm"
WORKER = "worker"
Agent = Literal["firm", "worker"]

# Opponent masses below this are treated as exact zeros when building feedback,
# so monotonicity monitors never see sign noise.
NEGLIGIBLE_MASS = 1e-15


@dataclass(frozen=True)
class ActionGrid:
    """Uniform grid {0, 1/D, ..., 1} of offers / acceptance thresholds."""

    D: int

    def __post_init__(self):
        if self.D < 2:
            raise ValueError(f"grid needs D >= 2 subdivisions, got {self.D}")

    @property
    def size(self) -> int:
        return self.D + 1

    @cached_property
    def actions(self) -> np.ndarray:
        """The grid values, computed once per grid and read-only."""
        out = np.arange(self.D + 1) / self.D
        out.flags.writeable = False
        return out

    def action_fractions(self) -> list[Fraction]:
        return [Fraction(k, self.D) for k in range(self.D + 1)]

    def index_of(self, value: float) -> int:
        k = int(round(float(value) * self.D))
        if not (0 <= k <= self.D) or abs(value - k / self.D) > 1e-9:
            raise ValueError(f"{value} is not on the 1/{self.D} grid")
        return k


@dataclass(frozen=True)
class UltimatumGame:
    """One take-it-or-leave-it offer; rejection pays (0, 0)."""

    grid: ActionGrid


@dataclass(frozen=True)
class TwoRoundGame:
    """Rejected first offers lead to a worker counter-offer discounted by delta."""

    grid: ActionGrid
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"discount must lie in (0, 1), got {self.delta}")

    @cached_property
    def _treeplexes(self) -> dict[str, Treeplex]:
        """Both sides' treeplexes, built once per game: see :func:`build_treeplex`."""
        if self.grid.D <= 2:
            raise ValueError(f"two-round game needs D > 2, got D={self.grid.D}")
        n = self.grid.size
        return {FIRM: Treeplex.pairs(n, n), WORKER: Treeplex.blocks(n, n + 1)}


Game = Union[UltimatumGame, TwoRoundGame]


def _check_agent(agent: str) -> None:
    if agent not in (FIRM, WORKER):
        raise ValueError(f"unknown agent {agent!r}")


def utility_ultimatum(a_f: float, a_w: float) -> tuple[float, float]:
    """Payoffs (firm, worker) when the firm offers a_f against threshold a_w."""
    if a_w <= a_f:
        return 1.0 - float(a_f), float(a_f)
    return 0.0, 0.0


def pure_strategy(grid: ActionGrid, action: float) -> np.ndarray:
    x = np.zeros(grid.size)
    x[grid.index_of(action)] = 1.0
    return x


def uniform_strategy(grid: ActionGrid) -> np.ndarray:
    return np.full(grid.size, 1.0 / grid.size)


def ultimatum_feedback(agent: Agent, opponent_strategy: np.ndarray, grid: ActionGrid) -> np.ndarray:
    """Single-step expected-utility vector against the opponent's mixture.

    Worker entry at threshold a: sum over offers p >= a of x_f(p) * p.
    Firm entry at offer a: (worker acceptance mass at or below a) * (1 - a).
    A 2-D ``opponent_strategy`` gives one feedback row per mixture row.
    """
    _check_agent(agent)
    x = np.asarray(opponent_strategy, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != grid.size:
        raise StructuralError("opponent strategy length does not match grid")
    x = np.where(x > NEGLIGIBLE_MASS, x, 0.0)
    actions = grid.actions
    if agent == WORKER:
        return (x * actions)[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return x.cumsum(axis=-1) * (1.0 - actions)


def ultimatum_feedback_exact(agent: Agent, opponent_strategy, grid: ActionGrid) -> np.ndarray:
    """Exact-rational twin of :func:`ultimatum_feedback` on ``Fraction`` mixtures.

    The same formula on ``Fraction`` actions, without mass clipping; a 2-D
    ``opponent_strategy`` gives one feedback row per mixture row.
    """
    _check_agent(agent)
    x = np.asarray(opponent_strategy, dtype=object)
    if x.ndim not in (1, 2) or x.shape[-1] != grid.size:
        raise StructuralError("opponent strategy length does not match grid")
    actions = np.array(grid.action_fractions(), dtype=object)
    if agent == WORKER:
        return (x * actions)[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return x.cumsum(axis=-1) * (1 - actions)


# ---------------------------------------------------------------------------
# Two-round game: treeplexes, feedback and vertex plans, all through the
# views of ``Treeplex`` (which documents the vector layout).
# ---------------------------------------------------------------------------


def build_treeplex(game: TwoRoundGame, agent: Agent) -> Treeplex:
    """Sequence-form polytope of one side of the two-round game.

    The firm has the root offer infoset plus one accept/reject infoset per
    (first offer, counter) pair (``Treeplex.pairs``); the worker has one
    response infoset per first offer whose extensions are "accept" and
    "reject & counter b" for each b (``Treeplex.blocks``).  Both are built
    once per game; the feedback, plan and certificate code asks for them on
    every call.
    """
    _check_agent(agent)
    return game._treeplexes[agent]


def two_round_feedback(agent: Agent, opponent_plan: np.ndarray, game: TwoRoundGame) -> np.ndarray:
    """Single-step expected utility per terminal sequence against a fixed plan.

    Firm: (1-a) * r_w(accept a) at a first offer, delta * b * r_w(counter b
    after a) at a second-round accept, 0 at a second-round reject.  Worker:
    a * r_f(offer a) at an accept, delta * (1-b) * r_f(accept b after a) at a
    counter.  A 2-D ``opponent_plan`` gives one feedback row per plan row.
    """
    _check_agent(agent)
    opponent = WORKER if agent == FIRM else FIRM
    own, other = build_treeplex(game, agent), build_treeplex(game, opponent)
    acts, delta = game.grid.actions, game.delta
    r = np.asarray(opponent_plan, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != other.n_sequences:
        raise StructuralError(f"{opponent} plan length does not match game")
    r = np.where(r > NEGLIGIBLE_MASS, r, 0.0)
    out = np.zeros(r.shape[:-1] + (own.n_sequences,))
    out_head, out_below = own.views(out)
    r_head, r_below = other.views(r)
    if agent == FIRM:
        out_head[...] = (1.0 - acts) * r_head
        out_below[..., 0] = delta * acts * r_below  # second-round rejects pay 0
    else:
        out_head[...] = acts * r_head
        out_below[...] = delta * (1.0 - acts) * r_below[..., 0]
    return out


def firm_vertex_plan(game: TwoRoundGame, offer: float, threshold: float) -> np.ndarray:
    """Pure plan: offer ``offer``; as responder accept counters >= ``threshold``.

    Sequences below first offers the plan never makes carry zero realization
    (flow conservation), which is the uniform-behavioral vertex lift.
    """
    grid = game.grid
    a_p, a_r = grid.index_of(offer), grid.index_of(threshold)
    tp = build_treeplex(game, FIRM)
    r = np.zeros(tp.n_sequences)
    r[tp.root] = 1.0
    offers, pairs = tp.views(r)
    offers[a_p] = 1.0
    pairs[a_p, a_r:, 0] = 1.0
    pairs[a_p, :a_r, 1] = 1.0
    return r


def worker_vertex_plan(game: TwoRoundGame, threshold: float, counter: float) -> np.ndarray:
    """Pure plan: accept offers >= ``threshold``, otherwise counter ``counter``."""
    grid = game.grid
    a_r, a_p = grid.index_of(threshold), grid.index_of(counter)
    tp = build_treeplex(game, WORKER)
    r = np.zeros(tp.n_sequences)
    r[tp.root] = 1.0
    accepts, counters = tp.views(r)
    accepts[a_r:] = 1.0
    counters[:a_r, a_p] = 1.0
    return r
