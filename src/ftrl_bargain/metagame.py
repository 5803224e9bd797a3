"""Initial-strategy sweeps and the constant-sum meta-game over their outcomes.

A sweep runs the learning dynamics from every pure initial profile and records
the worker's converged payoff per cell; the resulting matrix is treated as a
zero-sum game (worker maximizes, firm minimizes) and solved approximately by
multiplicative-weights self-play with an explicit duality-gap certificate.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, games, geometry, learner
from .games import FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame
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


def _ultimatum_axis(grid: ActionGrid, kind: str):
    if kind == "pure":
        return tuple(float(a) for a in grid.actions)
    if kind == "uniform":
        return ("uniform",)
    raise ValueError(f"unknown axis kind {kind!r}")


def _two_round_axis(grid: ActionGrid, kind: str):
    if kind == "pure":
        # (proposer offer, responder threshold), offer-major
        return tuple(
            (float(grid.actions[p]), float(grid.actions[r]))
            for p in range(grid.size)
            for r in range(grid.size)
        )
    if kind == "uniform":
        return ("uniform",)
    raise ValueError(f"unknown axis kind {kind!r}")


def _ultimatum_initial(grid: ActionGrid, entry) -> np.ndarray:
    if entry == "uniform":
        return games.uniform_strategy(grid)
    return games.pure_strategy(grid, float(entry))


def _two_round_initial(game: TwoRoundGame, agent: str, entry) -> np.ndarray:
    if entry == "uniform":
        tp = games.build_treeplex(game, agent)
        return tp.uniform_plan()
    first, second = entry
    if agent == FIRM:
        return games.firm_vertex_plan(game, offer=first, threshold=second)
    # worker axis entries are (threshold, counter)
    return games.worker_vertex_plan(game, threshold=first, counter=second)


def _cell_from_trajectory(cfg: LearnerConfig, traj: learner.Trajectory) -> CellResult:
    game = cfg.game
    if isinstance(game, UltimatumGame):
        fb_w = games.ultimatum_feedback(WORKER, traj.final_f, game.grid)
        u_w = float(np.asarray(traj.final_w, dtype=float) @ fb_w)
        threat = None
    else:
        fb_w = games.two_round_feedback(WORKER, traj.final_f, game)
        u_w = float(np.asarray(traj.final_w) @ fb_w)
        threat = analysis.detect_threats(
            (traj.final_f, traj.final_w), game, firm_cum_util=traj.cum_util_f
        )
    cert = analysis.certify_epsilon_ne((traj.final_f, traj.final_w), game)
    return CellResult(
        u_w=u_w,
        eps=cert.eps,
        gap_f=cert.gap_f,
        gap_w=cert.gap_w,
        converged_at=traj.converged_at,
        status="converged" if traj.converged else "max_steps",
        final_f=np.asarray(traj.final_f, dtype=float),
        final_w=np.asarray(traj.final_w, dtype=float),
        threat=threat,
    )


def _sweep_ultimatum_batched(cfg: LearnerConfig, firm_axis, worker_axis) -> list[list[CellResult]]:
    """Lockstep evaluation of every cell; numerically identical to per-cell runs."""
    grid = cfg.grid
    n = grid.size
    rows, cols = len(firm_axis), len(worker_axis)
    ncells = rows * cols
    X_f = np.empty((ncells, n))
    X_w = np.empty((ncells, n))
    for i, fe in enumerate(firm_axis):
        for j, we in enumerate(worker_axis):
            X_f[i * cols + j] = _ultimatum_initial(grid, fe)
            X_w[i * cols + j] = _ultimatum_initial(grid, we)

    eta = float(cfg.eta)
    acts = grid.actions
    ref_f = cfg.reference_vector(FIRM)
    ref_w = cfg.reference_vector(WORKER)
    U_f = np.zeros((ncells, n))
    U_w = np.zeros((ncells, n))
    converged_at = np.zeros(ncells, dtype=np.int64)
    active = np.arange(ncells)

    for t in range(2, cfg.steps_cap + 1):
        if active.size == 0:
            break
        xf = X_f[active]
        xw = X_w[active]
        xf_eff = np.where(xf > games.NEGLIGIBLE_MASS, xf, 0.0)
        xw_eff = np.where(xw > games.NEGLIGIBLE_MASS, xw, 0.0)
        fb_f = np.cumsum(xw_eff, axis=1) * (1.0 - acts)
        fb_w = np.cumsum((xf_eff * acts)[:, ::-1], axis=1)[:, ::-1]
        uf = U_f[active] + fb_f
        uw = U_w[active] + fb_w
        uf -= uf.max(axis=1, keepdims=True)
        uw -= uw.max(axis=1, keepdims=True)
        U_f[active] = uf
        U_w[active] = uw
        new_f = geometry.project_simplex_batch(ref_f + eta * uf)
        new_w = geometry.project_simplex_batch(ref_w + eta * uw)
        delta = np.maximum(
            np.abs(new_f - xf).max(axis=1),
            np.abs(new_w - xw).max(axis=1),
        )
        X_f[active] = new_f
        X_w[active] = new_w
        done = delta <= cfg.threshold
        if cfg.stop_eps is not None and np.any(done):
            for pos in np.nonzero(done)[0]:
                if not learner._certified_stop(cfg, new_f[pos], new_w[pos]):
                    done[pos] = False
        converged_at[active[done]] = t
        active = active[~done]

    cells: list[list[CellResult]] = []
    for i in range(rows):
        row = []
        for j in range(cols):
            idx = i * cols + j
            conv = int(converged_at[idx]) or None
            x_f, x_w = X_f[idx], X_w[idx]
            fb_w = games.ultimatum_feedback(WORKER, x_f, grid)
            cert = analysis.certify_epsilon_ne((x_f, x_w), cfg.game)
            row.append(
                CellResult(
                    u_w=float(x_w @ fb_w),
                    eps=cert.eps,
                    gap_f=cert.gap_f,
                    gap_w=cert.gap_w,
                    converged_at=conv,
                    status="converged" if conv else "max_steps",
                    final_f=x_f,
                    final_w=x_w,
                )
            )
        cells.append(row)
    return cells


_POOL_STATE: dict = {}


def _pool_init(cfg: LearnerConfig):
    _POOL_STATE["cfg"] = cfg


def _pool_run_cell(args):
    i, j, fe, we = args
    cfg: LearnerConfig = _POOL_STATE["cfg"]
    game = cfg.game
    if isinstance(game, UltimatumGame):
        init_f = _ultimatum_initial(game.grid, fe)
        init_w = _ultimatum_initial(game.grid, we)
    else:
        init_f = _two_round_initial(game, FIRM, fe)
        init_w = _two_round_initial(game, WORKER, we)
    traj = learner.run_dynamics(cfg, init_f, init_w)
    return i, j, _cell_from_trajectory(cfg, traj)


def sweep_initials(
    cfg: LearnerConfig,
    axis_f: str = "pure",
    axis_w: str = "pure",
    parallelism: Optional[int] = None,
) -> SweepResult:
    """Run the dynamics from every initial profile on the requested axes.

    Cells are independent; execution order never affects results.  Individual
    non-converged cells are recorded in place and never abort the sweep.
    """
    game = cfg.game
    if isinstance(game, UltimatumGame):
        firm_axis = _ultimatum_axis(game.grid, axis_f)
        worker_axis = _ultimatum_axis(game.grid, axis_w)
        if cfg.arithmetic == "float":
            cells = _sweep_ultimatum_batched(cfg, firm_axis, worker_axis)
            return SweepResult(cfg, firm_axis, worker_axis, tuple(map(tuple, cells)))
    else:
        firm_axis = _two_round_axis(game.grid, axis_f)
        worker_axis = _two_round_axis(game.grid, axis_w)

    rows, cols = len(firm_axis), len(worker_axis)
    tasks = [
        (i, j, firm_axis[i], worker_axis[j]) for i in range(rows) for j in range(cols)
    ]
    workers = parallelism if parallelism is not None else (os.cpu_count() or 1)
    grid_cells: list[list[Optional[CellResult]]] = [[None] * cols for _ in range(rows)]
    if workers <= 1 or len(tasks) <= 1:
        _pool_init(cfg)
        for task in tasks:
            i, j, cell = _pool_run_cell(task)
            grid_cells[i][j] = cell
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(cfg,)) as pool:
            chunk = max(1, len(tasks) // (8 * workers))
            for i, j, cell in pool.map(_pool_run_cell, tasks, chunksize=chunk):
                grid_cells[i][j] = cell
    return SweepResult(cfg, firm_axis, worker_axis, tuple(map(tuple, grid_cells)))


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
