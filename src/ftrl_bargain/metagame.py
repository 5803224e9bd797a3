"""Initial-strategy sweeps and the constant-sum meta-game over their outcomes.

A sweep runs the learning dynamics from every initial profile on its axes and
records the worker's converged payoff per cell.  Float sweeps stack all cells
into the learner's lockstep kernel, split into ``parallelism`` contiguous
chunks (one process each); exact sweeps run cell by cell in this process.
The resulting matrix is treated as a zero-sum game (worker maximizes, firm
minimizes) and solved approximately by multiplicative-weights self-play with
an explicit duality-gap certificate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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

    def payoff_matrix(self) -> np.ndarray:
        """Worker payoffs per cell; non-converged cells carry NaN."""
        rows, cols = self.shape
        m = np.full((rows, cols), np.nan)
        for i in range(rows):
            for j in range(cols):
                c = self.cells[i][j]
                if c.converged:
                    m[i, j] = c.u_w
        return m

    def all_converged(self) -> bool:
        return all(c.converged for row in self.cells for c in row)

    def worker_init_thresholds(self) -> Optional[np.ndarray]:
        """Worker's initial acceptance threshold per column (None for a mixture)."""
        vals = []
        for entry in self.worker_axis:
            if entry == "uniform":
                return None
            vals.append(entry[0] if isinstance(entry, tuple) else entry)
        return np.asarray(vals, dtype=float)


@dataclass(frozen=True)
class SweepSummary:
    min_uw: float
    max_uw: float
    prop_ge_init: Optional[float]
    prop_ge_ref: Optional[float]


@dataclass(frozen=True)
class MinimaxSolution:
    """Approximate minimax of the worker-payoff matrix with a gap certificate."""

    value_w: float
    row_mix: np.ndarray     # firm (minimizer) mixture over its initial strategies
    col_mix: np.ndarray     # worker (maximizer) mixture
    br_gap: float
    iterations: int


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


def _initial(game, agent: str, entry) -> np.ndarray:
    if isinstance(game, UltimatumGame):
        if entry == "uniform":
            return games.uniform_strategy(game.grid)
        return games.pure_strategy(game.grid, entry)
    if entry == "uniform":
        return games.build_treeplex(game, agent).uniform_plan()
    first, second = entry
    if agent == FIRM:
        return games.firm_vertex_plan(game, offer=first, threshold=second)
    # worker axis entries are (threshold, counter)
    return games.worker_vertex_plan(game, threshold=first, counter=second)


def _cell_result(cfg: LearnerConfig, final_f: np.ndarray, final_w: np.ndarray,
                 cum_util_f: Optional[np.ndarray], converged_at: Optional[int]) -> CellResult:
    game = cfg.game
    profile = (final_f, final_w)
    if isinstance(game, UltimatumGame):
        fb_w = games.ultimatum_feedback(WORKER, final_f, game.grid)
        threat = None
    else:
        fb_w = games.two_round_feedback(WORKER, final_f, game)
        threat = analysis.detect_threats(profile, game, firm_cum_util=cum_util_f)
    cert = analysis.certify_epsilon_ne(profile, game)
    return CellResult(
        u_w=float(final_w @ fb_w),
        eps=cert.eps,
        gap_f=cert.gap_f,
        gap_w=cert.gap_w,
        converged_at=converged_at,
        status="converged" if converged_at else "max_steps",
        final_f=final_f,
        final_w=final_w,
        threat=threat,
    )


def _sweep_chunk(cfg: LearnerConfig, init_f: np.ndarray, init_w: np.ndarray) -> list[CellResult]:
    """Cell results of one contiguous chunk of a sweep, in cell order."""
    if cfg.arithmetic == "exact":
        cells = []
        for f, w in zip(init_f, init_w):
            traj = learner.run_dynamics(cfg, f, w)
            cells.append(_cell_result(cfg, np.asarray(traj.final_f, dtype=float),
                                      np.asarray(traj.final_w, dtype=float),
                                      None, traj.converged_at))
        return cells
    run = learner.run_lockstep(cfg, init_f, init_w)
    return [_cell_result(cfg, run.final_f[i], run.final_w[i], run.cum_util_f[i],
                         int(run.converged_at[i]) or None)
            for i in range(len(init_f))]


def sweep_initials(
    cfg: LearnerConfig,
    axis_f: str = "pure",
    axis_w: str = "pure",
    parallelism: int = 1,
) -> SweepResult:
    """Run the dynamics from every initial profile on the requested axes.

    ``parallelism`` (an integer >= 1) is the number of processes a float
    sweep is split over, one contiguous chunk of cells each; exact sweeps run
    in this process.  Results never depend on it.  Individual non-converged
    cells are recorded in place and never abort the sweep.
    """
    if isinstance(parallelism, bool) or not isinstance(parallelism, int) or parallelism < 1:
        raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
    game = cfg.game
    firm_axis, worker_axis = _axis(game, axis_f), _axis(game, axis_w)
    rows, cols = len(firm_axis), len(worker_axis)
    init_f = np.repeat([_initial(game, FIRM, e) for e in firm_axis], cols, axis=0)
    init_w = np.tile([_initial(game, WORKER, e) for e in worker_axis], (rows, 1))
    chunks = 1 if cfg.arithmetic == "exact" else min(parallelism, rows * cols)
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


def minimax_solve(
    m: np.ndarray,
    tol: float = 1e-4,
    max_iters: int = 2_000_000,
    check_every: int = 200,
) -> MinimaxSolution:
    """Multiplicative-weights self-play on the worker-payoff matrix.

    The row player drives the payoff down, the column player up; time-averaged
    mixtures are certified by explicit best responses.  Hitting the iteration
    cap returns the solution with its actual gap (the caller decides).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("payoff matrix must be a finite 2-D array")
    nr, nc = m.shape
    G_row = np.zeros(nr)   # cumulative payoffs for the minimizer (negated matrix)
    G_col = np.zeros(nc)
    p_sum = np.zeros(nr)
    q_sum = np.zeros(nc)
    lr_r = np.sqrt(8.0 * np.log(max(nr, 2)))
    lr_c = np.sqrt(8.0 * np.log(max(nc, 2)))

    def _mix(g, lr, t):
        z = g * (lr / np.sqrt(t))
        z -= z.max()
        w = np.exp(z)
        return w / w.sum()

    iterations = 0
    for t in range(1, max_iters + 1):
        p = _mix(G_row, lr_r, t)
        q = _mix(G_col, lr_c, t)
        mq = m @ q
        pm = p @ m
        G_row -= mq
        G_col += pm
        p_sum += p
        q_sum += q
        iterations = t
        if t % check_every == 0 or t == max_iters:
            pbar = p_sum / t
            qbar = q_sum / t
            gap = float((pbar @ m).max() - (m @ qbar).min())
            if gap <= tol:
                break
    pbar = p_sum / iterations
    qbar = q_sum / iterations
    gap = float((pbar @ m).max() - (m @ qbar).min())
    return MinimaxSolution(
        value_w=float(pbar @ m @ qbar),
        row_mix=pbar,
        col_mix=qbar,
        br_gap=gap,
        iterations=iterations,
    )


def summarize(sweep: SweepResult, reference_w: Optional[float] = None) -> SweepSummary:
    """Distribution facts of converged worker payoffs across the sweep.

    Proportions compare each cell's payoff with the worker's initial threshold
    on that cell's column and with the worker's reference action; both use a
    1e-9 slack so grid-exact equalities count as "at least".
    """
    uws = []
    thresholds = sweep.worker_init_thresholds()
    per_cell_threshold = []
    rows, cols = sweep.shape
    for i in range(rows):
        for j in range(cols):
            c = sweep.cells[i][j]
            if not c.converged:
                continue
            uws.append(c.u_w)
            if thresholds is not None:
                per_cell_threshold.append(thresholds[j])
    if not uws:
        raise ValueError("sweep has no converged cells to summarize")
    uws_arr = np.asarray(uws)
    prop_init = None
    if thresholds is not None:
        thr = np.asarray(per_cell_threshold)
        prop_init = float(np.mean(uws_arr >= thr - 1e-9))
    prop_ref = None
    if reference_w is not None:
        prop_ref = float(np.mean(uws_arr >= float(reference_w) - 1e-9))
    return SweepSummary(
        min_uw=float(uws_arr.min()),
        max_uw=float(uws_arr.max()),
        prop_ge_init=prop_init,
        prop_ge_ref=prop_ref,
    )
