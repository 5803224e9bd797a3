"""Bargaining game definitions.

Two games over a shared discretized offer grid: the one-shot ultimatum game
(mixed strategies on the simplex) and the two-round alternating game
(sequence-form realization plans on a treeplex).  This module owns payoffs,
single-step expected-utility feedback vectors, and the sequence enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal, Sequence, Union

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


def ultimatum_feedback_exact(
    agent: Agent, opponent_strategy: Sequence[Fraction], grid: ActionGrid
) -> list[Fraction]:
    """Exact-rational twin of :func:`ultimatum_feedback` (no mass clipping)."""
    _check_agent(agent)
    xs = [Fraction(m) for m in opponent_strategy]
    if len(xs) != grid.size:
        raise StructuralError("opponent strategy length does not match grid")
    acts = grid.action_fractions()
    out: list[Fraction] = [Fraction(0)] * grid.size
    if agent == WORKER:
        acc = Fraction(0)
        for k in range(grid.size - 1, -1, -1):
            acc += xs[k] * acts[k]
            out[k] = acc
    else:
        acc = Fraction(0)
        for k in range(grid.size):
            acc += xs[k]
            out[k] = acc * (1 - acts[k])
    return out


# ---------------------------------------------------------------------------
# Two-round game: sequence enumeration and treeplex construction.
#
# Canonical vector layout (lexicographic by round, then offer a, then counter
# b, accept before reject):
#   firm:   [root] + [offer a] + [a accept b, a reject b  for (a, b)]
#   worker: [root] + [accept a] + [reject a & counter b   for (a, b)]
# ---------------------------------------------------------------------------


def firm_offer_index(grid: ActionGrid, a: int) -> int:
    return 1 + a


def firm_accept_index(grid: ActionGrid, a: int, b: int) -> int:
    return 1 + grid.size + 2 * (a * grid.size + b)


def firm_reject_index(grid: ActionGrid, a: int, b: int) -> int:
    return firm_accept_index(grid, a, b) + 1


def worker_accept_index(grid: ActionGrid, a: int) -> int:
    return 1 + a


def worker_counter_index(grid: ActionGrid, a: int, b: int) -> int:
    return 1 + grid.size + a * grid.size + b


def build_treeplex(game: TwoRoundGame, agent: Agent) -> Treeplex:
    """Sequence-form polytope of one side of the two-round game.

    The firm has the root offer infoset plus one accept/reject infoset per
    (first offer, counter) pair; the worker has one response infoset per first
    offer whose extensions are "accept" and "reject & counter b" for each b.
    """
    _check_agent(agent)
    grid = game.grid
    if grid.D <= 2:
        raise ValueError(f"two-round game needs D > 2, got D={grid.D}")
    n = grid.size

    if agent == FIRM:
        n_seq = 1 + n + 2 * n * n
        infosets = [(0, tuple(firm_offer_index(grid, a) for a in range(n)))]
        for a in range(n):
            for b in range(n):
                infosets.append(
                    (
                        firm_offer_index(grid, a),
                        (firm_accept_index(grid, a, b), firm_reject_index(grid, a, b)),
                    )
                )
        return Treeplex(n_seq, 0, tuple(infosets))

    n_seq = 1 + n + n * n
    infosets = []
    for a in range(n):
        children = (worker_accept_index(grid, a),) + tuple(
            worker_counter_index(grid, a, b) for b in range(n)
        )
        infosets.append((0, children))
    return Treeplex(n_seq, 0, tuple(infosets))


def two_round_feedback(agent: Agent, opponent_plan: np.ndarray, game: TwoRoundGame) -> np.ndarray:
    """Single-step expected utility per terminal sequence against a fixed plan.

    Firm: (1-a) * r_w(accept a) at a first offer, delta * b * r_w(counter b
    after a) at a second-round accept, 0 at a second-round reject.  Worker:
    a * r_f(offer a) at an accept, delta * (1-b) * r_f(accept b after a) at a
    counter.  A 2-D ``opponent_plan`` gives one feedback row per plan row.
    """
    _check_agent(agent)
    grid, delta = game.grid, game.delta
    n = grid.size
    acts = grid.actions
    r = np.asarray(opponent_plan, dtype=float)
    opponent, expected = ("worker", 1 + n + n * n) if agent == FIRM else ("firm", 1 + n + 2 * n * n)
    if r.ndim not in (1, 2) or r.shape[-1] != expected:
        raise StructuralError(f"{opponent} plan length does not match game")
    r = np.where(r > NEGLIGIBLE_MASS, r, 0.0)
    rows = r.shape[:-1]

    if agent == FIRM:
        out = np.zeros(rows + (1 + n + 2 * n * n,))
        out[..., 1 : 1 + n] = (1.0 - acts) * r[..., 1 : 1 + n]
        counters = r[..., 1 + n :].reshape(rows + (n, n))
        # second-round accepts sit at even offsets after the offers; rejects pay 0
        out[..., 1 + n :: 2] = (delta * acts * counters).reshape(rows + (n * n,))
        return out

    out = np.zeros(rows + (1 + n + n * n,))
    out[..., 1 : 1 + n] = acts * r[..., 1 : 1 + n]
    accepts = r[..., 1 + n :: 2].reshape(rows + (n, n))
    out[..., 1 + n :] = (delta * (1.0 - acts) * accepts).reshape(rows + (n * n,))
    return out


def firm_vertex_plan(game: TwoRoundGame, offer: float, threshold: float) -> np.ndarray:
    """Pure plan: offer ``offer``; as responder accept counters >= ``threshold``.

    Sequences below first offers the plan never makes carry zero realization
    (flow conservation), which is the uniform-behavioral vertex lift.
    """
    grid = game.grid
    a_p, a_r = grid.index_of(offer), grid.index_of(threshold)
    r = np.zeros(1 + grid.size + 2 * grid.size**2)
    r[0] = 1.0
    r[firm_offer_index(grid, a_p)] = 1.0
    for b in range(grid.size):
        if b >= a_r:
            r[firm_accept_index(grid, a_p, b)] = 1.0
        else:
            r[firm_reject_index(grid, a_p, b)] = 1.0
    return r


def worker_vertex_plan(game: TwoRoundGame, threshold: float, counter: float) -> np.ndarray:
    """Pure plan: accept offers >= ``threshold``, otherwise counter ``counter``."""
    grid = game.grid
    a_r, a_p = grid.index_of(threshold), grid.index_of(counter)
    r = np.zeros(1 + grid.size + grid.size**2)
    r[0] = 1.0
    for a in range(grid.size):
        if a >= a_r:
            r[worker_accept_index(grid, a)] = 1.0
        else:
            r[worker_counter_index(grid, a, a_p)] = 1.0
    return r
