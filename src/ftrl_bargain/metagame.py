"""Initial-strategy sweeps and the constant-sum meta-game over their outcomes.

A sweep runs the learning dynamics from every initial profile on its axes and
records the worker's converged payoff per cell.  Sweeps of either arithmetic
stack all cells into the learner's lockstep kernel, split into
``parallelism`` contiguous chunks (one process each).
The resulting matrix is treated as a zero-sum game (worker maximizes, firm
minimizes) and solved exactly by a dense tableau simplex, whose mixtures are
certified by an explicit duality gap.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import analysis, games, learner
from .games import FIRM, WORKER, UltimatumGame
from .learner import LearnerConfig

__all__ = [
    "CellResult",
    "SweepResult",
    "SweepSummary",
    "MinimaxSolution",
    "sweep_initials",
    "minimax_solve",
    "summarize",
]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (firm init, worker init) cell."""

    u_w: float
    eps: float
    gap_f: float
    gap_w: float
    converged_at: Optional[int]
    status: str                       # "converged" | "max_steps"
    final_f: np.ndarray
    final_w: np.ndarray
    threat: Optional[analysis.ThreatReport] = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class SweepResult:
    """Grid of cell outcomes; firm inits on rows, worker inits on columns."""

    config: LearnerConfig
    firm_axis: tuple
    worker_axis: tuple
    cells: tuple  # tuple of row tuples of CellResult

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.firm_axis), len(self.worker_axis)

    def converged_mask(self) -> np.ndarray:
        return np.array([[c.converged for c in row] for row in self.cells], dtype=bool)

    def payoff_matrix(self) -> np.ndarray:
        """Worker payoffs per cell; non-converged cells carry NaN."""
        m = np.array([[c.u_w for c in row] for row in self.cells], dtype=float)
        m[~self.converged_mask()] = np.nan
        return m

    def all_converged(self) -> bool:
        return bool(self.converged_mask().all())


@dataclass(frozen=True)
class SweepSummary:
    min_uw: float
    max_uw: float
    prop_ge_init: Optional[float]
    prop_ge_ref: Optional[float]


@dataclass(frozen=True)
class MinimaxSolution:
    """Minimax of the worker-payoff matrix with its best-response gap certificate."""

    value_w: float
    row_mix: np.ndarray     # firm (minimizer) mixture over its initial strategies
    col_mix: np.ndarray     # worker (maximizer) mixture
    br_gap: float
    iterations: int         # simplex pivots


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _axis(game, kind: str) -> tuple:
    """Initial strategies along one sweep axis.

    Two-round entries are (proposer offer, responder threshold), offer-major.
    """
    if kind == "uniform":
        return ("uniform",)
    if kind != "pure":
        raise ValueError(f"unknown axis kind {kind!r}")
    acts = [float(a) for a in game.grid.actions]
    if isinstance(game, UltimatumGame):
        return tuple(acts)
    return tuple((p, r) for p in acts for r in acts)


def _initial(game, agent: str, entry, exact: bool) -> np.ndarray:
    """Initial strategy of one axis entry; exact uniform entries are ``Fraction``s."""
    if isinstance(game, UltimatumGame):
        if entry == "uniform":
            if exact:
                return np.full(game.grid.size, Fraction(1, game.grid.size), dtype=object)
            return games.uniform_strategy(game.grid)
        return games.pure_strategy(game.grid, entry)
    if entry == "uniform":
        return games.build_treeplex(game, agent).uniform_plan()
    first, second = entry
    if agent == FIRM:
        return games.firm_vertex_plan(game, offer=first, threshold=second)
    # worker axis entries are (threshold, counter)
    return games.worker_vertex_plan(game, threshold=first, counter=second)


def _sweep_chunk(cfg: LearnerConfig, init_f: np.ndarray, init_w: np.ndarray) -> list[CellResult]:
    """Cell results of one contiguous chunk of a sweep, in cell order.

    The chunk's final profiles, cast to float, are certified as one stack.
    """
    game = cfg.game
    run = learner.run_lockstep(cfg, init_f, init_w)
    final_f, final_w = np.asarray(run.final_f, dtype=float), np.asarray(run.final_w, dtype=float)
    converged_at = [int(t) or None for t in run.converged_at]
    gap_f, gap_w, _, u_w = analysis._gap_rows(game, final_f, final_w)
    eps = np.maximum(gap_f, gap_w).tolist()
    gap_f, gap_w, u_w = gap_f.tolist(), gap_w.tolist(), u_w.tolist()
    cells = []
    for i, t in enumerate(converged_at):
        threat = None
        if not isinstance(game, UltimatumGame):
            threat = analysis.detect_threats((final_f[i], final_w[i]), game,
                                             firm_cum_util=run.cum_util_f[i])
        cells.append(CellResult(u_w=u_w[i], eps=eps[i], gap_f=gap_f[i], gap_w=gap_w[i],
                                converged_at=t, status="converged" if t else "max_steps",
                                final_f=final_f[i], final_w=final_w[i], threat=threat))
    return cells


def sweep_initials(
    cfg: LearnerConfig,
    axis_f: str = "pure",
    axis_w: str = "pure",
    parallelism: int = 1,
) -> SweepResult:
    """Run the dynamics from every initial profile on the requested axes.

    ``parallelism`` (an integer >= 1) is the number of processes the sweep
    is split over, one contiguous chunk of cells each, in either arithmetic.
    Results never depend on it.  Individual non-converged cells are recorded
    in place and never abort the sweep.
    """
    if isinstance(parallelism, bool) or not isinstance(parallelism, int) or parallelism < 1:
        raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
    game = cfg.game
    firm_axis, worker_axis = _axis(game, axis_f), _axis(game, axis_w)
    rows, cols = len(firm_axis), len(worker_axis)
    exact = cfg.arithmetic == "exact"
    init_f = np.repeat([_initial(game, FIRM, e, exact) for e in firm_axis], cols, axis=0)
    init_w = np.tile([_initial(game, WORKER, e, exact) for e in worker_axis], (rows, 1))
    chunks = min(parallelism, rows * cols)
    if chunks == 1:
        cells = _sweep_chunk(cfg, init_f, init_w)
    else:
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            parts = pool.map(_sweep_chunk, [cfg] * chunks, np.array_split(init_f, chunks),
                             np.array_split(init_w, chunks))
            cells = [cell for part in parts for cell in part]
    grid_cells = tuple(tuple(cells[i * cols:(i + 1) * cols]) for i in range(rows))
    return SweepResult(cfg, firm_axis, worker_axis, grid_cells)


# ---------------------------------------------------------------------------
# Meta-game solution
# ---------------------------------------------------------------------------


_PIVOT_EPS = 1e-12  # tableau entries within this of zero count as zero


def minimax_solve(m: np.ndarray, tol: float = 1e-4, max_iters: int = 10_000) -> MinimaxSolution:
    """Exact minimax of the worker-payoff matrix by a dense tableau simplex.

    With ``a = 1 + (m - min m) / span`` (entries in [1, 2]) the firm's LP is
    ``max 1'x  s.t.  a'x <= 1, x >= 0``: its primal scaled to sum one is the
    firm's mixture and the reduced costs of its slacks, scaled alike, the
    worker's.  Bland's rule keeps degenerate pivots on tie-heavy heatmaps from
    cycling.  Both mixtures are certified by explicit best responses; an
    optimal basis whose gap exceeds ``tol`` (float breakdown) raises, while
    hitting the ``max_iters`` pivot cap returns the solution with its actual
    gap (the caller decides).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("payoff matrix must be a finite 2-D array")
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters!r}")
    nr, nc = m.shape
    lo = m.min()
    a = 1.0 + (m - lo) / ((m.max() - lo) or 1.0)
    # one row per worker strategy: [a' | slacks | rhs]; obj holds z_j - c_j
    t = np.hstack([a.T, np.eye(nc), np.ones((nc, 1))])
    obj = np.concatenate([-np.ones(nr), np.zeros(nc + 1)])
    basis = np.arange(nr, nr + nc)
    pivots = 0
    while (improving := np.flatnonzero(obj[:-1] < -_PIVOT_EPS)).size and pivots < max_iters:
        k = improving[0]                          # Bland: lowest entering index
        rows = np.flatnonzero(t[:, k] > _PIVOT_EPS)
        ratios = np.maximum(t[rows, -1], 0.0) / t[rows, k]
        ties = rows[ratios <= ratios.min() + _PIVOT_EPS]
        r = ties[np.argmin(basis[ties])]          # Bland: lowest leaving index
        row = t[r] / t[r, k]
        t -= np.outer(t[:, k], row)
        t[r] = row
        obj -= obj[k] * row
        basis[r] = k
        pivots += 1
    x = np.zeros(nr)
    firm = basis < nr
    x[basis[firm]] = t[firm, -1]
    # x and the slack duals both sum to the objective, positive after the first pivot
    p, q = np.maximum(x, 0.0), np.maximum(obj[nr:-1], 0.0)
    p, q = p / p.sum(), q / q.sum()
    gap = float((p @ m).max() - (m @ q).min())
    if gap > tol and not improving.size:
        raise ValueError(f"simplex reached an optimal basis but its certified gap "
                         f"{gap:.3e} exceeds tol {tol:.3e}")
    return MinimaxSolution(value_w=float(p @ m @ q), row_mix=p, col_mix=q,
                           br_gap=gap, iterations=pivots)


def summarize(sweep: SweepResult, reference_w: Optional[float] = None) -> SweepSummary:
    """Distribution facts of converged worker payoffs across the sweep.

    Proportions compare each cell's payoff with the worker's initial threshold
    on that cell's column (None on a ``uniform`` worker axis) and with the
    worker's reference action; both use a 1e-9 slack so grid-exact equalities
    count as "at least".
    """
    converged = sweep.converged_mask()
    if not converged.any():
        raise ValueError("sweep has no converged cells to summarize")
    u = sweep.payoff_matrix()
    uws = u[converged]
    prop_init = None
    if "uniform" not in sweep.worker_axis:
        # worker axis entries are thresholds (one-shot) or (threshold, counter)
        thr = np.array([e[0] if isinstance(e, tuple) else e for e in sweep.worker_axis])
        prop_init = float(np.mean((u >= thr - 1e-9)[converged]))
    prop_ref = None
    if reference_w is not None:
        prop_ref = float(np.mean(uws >= float(reference_w) - 1e-9))
    return SweepSummary(min_uw=float(uws.min()), max_uw=float(uws.max()),
                        prop_ge_init=prop_init, prop_ge_ref=prop_ref)
