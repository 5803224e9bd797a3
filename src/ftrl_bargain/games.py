"""Bargaining game definitions.

Two games over a shared discretized offer grid: the one-shot ultimatum game
(mixed strategies on the simplex) and the two-round alternating game
(sequence-form realization plans on a treeplex).  This module owns payoffs,
single-step expected-utility feedback vectors, pure strategies and plans, and
which treeplex layout each side of the two-round game uses; the layout itself
lives in :class:`geometry.Treeplex`.

The two-round payoff matrix has at most one nonzero per own sequence: a
sequence closes a deal against at most one opponent sequence.  So each game
builds, once, one table per side that names that opponent sequence and its
coefficient, and feedback is one gather and one product per entry.  Feedback
in both games uses the opponent's masses as they are, however small.

Feedback takes one vector or a ``(k, n)`` stack of rows in any memory order.
Its body works down axis 0 of the stack's ``.T`` view, so the float kernel,
which holds its state entries-major, passes the ``.T`` views of its C-ordered
``(n, k)`` stacks and gets its own layout back; a C-ordered stack of rows gets
C-ordered rows back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Literal, Optional

import numpy as np

from .geometry import StructuralError, Treeplex, _cumsum_down, _integer

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


@dataclass(frozen=True)
class ActionGrid:
    """Uniform grid {0, 1/D, ..., 1} of offers / acceptance thresholds.

    ``D`` is an integer by :func:`_integer`'s rule, stored as an ``int``.
    """

    D: int

    def __post_init__(self):
        object.__setattr__(self, "D", _integer("D", self.D))
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
        if self.grid.D <= 2:
            raise ValueError(f"two-round game needs D > 2, got D={self.grid.D}")

    @cached_property
    def _treeplexes(self) -> dict[str, Treeplex]:
        """Both sides' treeplexes, built once per game: see :func:`build_treeplex`."""
        n = self.grid.size
        return {FIRM: Treeplex.pairs(n, n), WORKER: Treeplex.blocks(n, n + 1)}

    @cached_property
    def _feedback_tables(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per side, read-only ``(src, coef)``: own sequence s earns ``coef[s] * r[src[s]]``.

        ``r`` is the opponent's plan; see :func:`two_round_feedback` for the
        terms.  The root and the firm's second-round rejects earn nothing:
        coefficient 0, source the opponent's root.
        """
        acts, delta = self.grid.actions, self.delta
        tables = {}
        for agent, other in ((FIRM, WORKER), (WORKER, FIRM)):
            own, opp = self._treeplexes[agent], self._treeplexes[other]
            src = np.full(own.n_sequences, opp.root)
            coef = np.zeros(own.n_sequences)
            (src_head, src_below), (coef_head, coef_below) = own.views(src), own.views(coef)
            opp_head, opp_below = opp.views(np.arange(opp.n_sequences))
            src_head[...] = opp_head
            if agent == FIRM:
                coef_head[...] = 1.0 - acts
                src_below[..., 0] = opp_below
                coef_below[..., 0] = delta * acts
            else:
                coef_head[...] = acts
                src_below[...] = opp_below[..., 0]
                coef_below[...] = delta * (1.0 - acts)
            src.flags.writeable = coef.flags.writeable = False
            tables[agent] = src, coef
        return tables


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


def ultimatum_feedback(agent: Agent, opponent_strategy: np.ndarray, grid: ActionGrid,
                       actions: Optional[np.ndarray] = None) -> np.ndarray:
    """Single-step expected-utility vector against the opponent's mixture.

    Worker entry at threshold a: sum over offers p >= a of x_f(p) * p.
    Firm entry at offer a: (worker acceptance mass at or below a) * (1 - a).
    A 2-D ``opponent_strategy`` gives one feedback row per mixture row.
    ``actions`` replaces ``grid.actions`` with a ``(k, grid.size)`` stack of
    per-row action values.  A row of a narrower grid, padded with actions
    1.0 where the opponent has no mass, gets feedback 0 on the pads and, on
    its own entries, exactly its feedback on its own grid.
    """
    _check_agent(agent)
    x = np.asarray(opponent_strategy, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != grid.size:
        raise StructuralError("opponent strategy length does not match grid")
    cols = x.reshape(-1, grid.size).T
    acts = grid.actions if actions is None else np.asarray(actions, dtype=float)
    acts = acts.reshape(-1, grid.size).T
    if agent == WORKER:
        out = _cumsum_down((cols * acts)[::-1])[::-1]
    else:
        out = _cumsum_down(cols) * (1.0 - acts)
    return out.T.reshape(x.shape)


def ultimatum_feedback_exact(agent: Agent, nums: list[list[int]], dens: list[int],
                             grid: ActionGrid) -> tuple[list[list[int]], list[int]]:
    """Exact-rational twin of :func:`ultimatum_feedback` on integer numerators.

    Row i of the opponent's mixtures is ``nums[i] / dens[i]`` (Python ints).
    The same formula gives one feedback row per mixture row, as numerators
    over ``dens[i] * D``: the worker's entry at threshold j sums ``nums[i][p]
    * p`` over offers p >= j, the firm's entry at offer j is the mass at or
    below j times ``D - j``.  Returns
    ``(numerators, denominators)``.
    """
    _check_agent(agent)
    if any(len(row) != grid.size for row in nums):
        raise StructuralError("opponent strategy length does not match grid")
    if agent == WORKER:
        out = [list(accumulate([u * p for p, u in enumerate(row)][::-1]))[::-1] for row in nums]
    else:
        weights = range(grid.D, -1, -1)
        out = [[c * w for c, w in zip(accumulate(row), weights)] for row in nums]
    return out, [d * grid.D for d in dens]


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
    """Single-step expected utility per own sequence against a fixed plan.

    Firm: (1-a) * r_w(accept a) at a first offer, delta * b * r_w(counter b
    after a) at a second-round accept, 0 at a second-round reject.  Worker:
    a * r_f(offer a) at an accept, delta * (1-b) * r_f(accept b after a) at a
    counter.  A 2-D ``opponent_plan`` gives one feedback row per plan row.
    Each entry is one coefficient times one opponent realization, gathered
    through the game's feedback table.  The coefficients ``1 - a``, ``a``,
    ``delta * b`` and ``delta * (1 - b)`` are the IEEE values the formula
    above rounds before its last product, so a finite plan gets the same
    bits as a view-by-view evaluation.
    """
    _check_agent(agent)
    opponent = WORKER if agent == FIRM else FIRM
    r = np.asarray(opponent_plan, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != build_treeplex(game, opponent).n_sequences:
        raise StructuralError(f"{opponent} plan length does not match game")
    src, coef = game._feedback_tables[agent]
    cols = r.reshape(-1, r.shape[-1]).T
    # the gather keeps the caller's memory order, so C-ordered rows stay C-ordered
    out = np.empty_like(cols, shape=(src.size, cols.shape[1]))
    cols.take(src, axis=0, out=out, mode="clip")
    out *= coef[:, None]
    return out.T.reshape(r.shape[:-1] + src.shape)


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
