"""Initial-strategy sweeps and the constant-sum meta-game over their outcomes.

A sweep runs the learning dynamics from every initial profile on its axes and
records the worker's converged payoff per cell.  Sweeps of either arithmetic
stack each distinct initial profile once into the learner's lockstep kernel,
split into ``parallelism`` contiguous chunks (the calling process runs the
first, one process per extra chunk the rest); cells whose profiles are equal
take that row's outcome.
The resulting matrix is treated as a zero-sum game (worker maximizes, firm
minimizes) and solved exactly by a dense tableau simplex, whose mixtures are
certified by an explicit duality gap.
"""

from __future__ import annotations

import traceback
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from multiprocessing import Pipe, Process
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
    final_f: np.ndarray
    final_w: np.ndarray
    threat: Optional[analysis.ThreatReport] = None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def status(self) -> str:
        return "converged" if self.converged else "max_steps"


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


def _initial(game, agent: str, entry) -> np.ndarray:
    """Initial strategy of one axis entry, as exact values that the kernel's arithmetic
    rounds: a one-shot ``uniform`` entry is ``Fraction(1, n)`` entries (``1.0 / n`` in float)."""
    if isinstance(game, UltimatumGame):
        if entry == "uniform":
            return np.full(game.grid.size, Fraction(1, game.grid.size), dtype=object)
        return games.pure_strategy(game.grid, entry)
    if entry == "uniform":
        return games.build_treeplex(game, agent).uniform_plan()
    first, second = entry
    if agent == FIRM:
        return games.firm_vertex_plan(game, offer=first, threshold=second)
    # worker axis entries are (threshold, counter)
    return games.worker_vertex_plan(game, threshold=first, counter=second)


def _distinct(plans: list) -> tuple[list, list[int]]:
    """The distinct plans in first-seen order, and each plan's index among them.

    Plans, ``Fraction`` entries included, compare by their values.
    """
    index, first, picks = {}, [], []
    for plan in plans:
        key = tuple(plan.tolist())
        if key not in index:
            index[key] = len(first)
            first.append(plan)
        picks.append(index[key])
    return first, picks


def _sweep_chunk(cfg: LearnerConfig, init_f: np.ndarray, init_w: np.ndarray) -> list[CellResult]:
    """Results of one contiguous chunk of a sweep's distinct profiles, in row order.

    The chunk's final profiles, cast to float, are certified as one stack,
    and two-round finals have their threats classified as one stack.
    """
    game = cfg.game
    run = learner.run_lockstep(cfg, init_f, init_w)
    final_f, final_w = np.asarray(run.final_f, dtype=float), np.asarray(run.final_w, dtype=float)
    converged_at = [int(t) or None for t in run.converged_at]
    gap_f, gap_w, _, u_w = analysis._gap_rows(game, final_f, final_w)
    eps = np.maximum(gap_f, gap_w).tolist()
    gap_f, gap_w, u_w = gap_f.tolist(), gap_w.tolist(), u_w.tolist()
    threats = [None] * len(converged_at)
    if not isinstance(game, UltimatumGame):
        threats = analysis.detect_threats((final_f, final_w), game, firm_cum_util=run.cum_util_f)
    return [CellResult(u_w=u_w[i], eps=eps[i], gap_f=gap_f[i], gap_w=gap_w[i], converged_at=t,
                       final_f=final_f[i], final_w=final_w[i], threat=threats[i])
            for i, t in enumerate(converged_at)]


def _check_parallelism(parallelism) -> int:
    """``parallelism`` as an ``int`` by the integer rule, and at least 1."""
    if (n := games._integer("parallelism", parallelism)) >= 1:
        return n
    raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a chunk process."""


def _chunk_worker(conn, cfg: LearnerConfig, init_f: np.ndarray, init_w: np.ndarray) -> None:
    """Body of a chunk process: sends ``(True, cells)`` or ``(False, (exception,
    formatted traceback))`` over ``conn``, the write end of a one-way pipe."""
    try:
        message = (True, _sweep_chunk(cfg, init_f, init_w))
    except Exception as exc:
        message = (False, (exc, traceback.format_exc()))
    with conn:
        conn.send(message)


def _chunk_cells(proc: Process, conn) -> list[CellResult]:
    """The cells a chunk process sends; its exception re-raises here."""
    try:
        ok, payload = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{proc.name} exited with code {proc.exitcode} "
                           f"without a result") from None
    finally:
        conn.close()
    if not ok:
        exc, formatted = payload
        raise exc from _ChildTraceback(formatted)
    return payload


def _run_chunks(cfg: LearnerConfig, parts_f: list, parts_w: list) -> list[CellResult]:
    """Cells of every chunk in order: one process per chunk after the first,
    started before the calling process runs the first chunk itself.

    Each process sends its cells over its own pipe.  A child also holds the
    read ends of its own pipe and of every earlier one, so closing the
    caller's read end would not release a child blocked writing a message
    larger than the pipe's buffer: on every path each child's message is
    received or drained before the child is joined.
    """
    links = []
    try:
        for k in range(1, len(parts_f)):
            conn, child_conn = Pipe(duplex=False)
            proc = Process(target=_chunk_worker, name=f"sweep chunk {k}",
                           args=(child_conn, cfg, parts_f[k], parts_w[k]))
            with child_conn:
                proc.start()
            links.append((proc, conn))
        results = _sweep_chunk(cfg, parts_f[0], parts_w[0])
        for proc, conn in links:
            results += _chunk_cells(proc, conn)
        return results
    finally:
        for proc, conn in links:
            if not conn.closed:
                with conn, suppress(EOFError):
                    conn.recv_bytes()
            proc.join()


def sweep_initials(
    cfg: LearnerConfig,
    axis_f: str = "pure",
    axis_w: str = "pure",
    parallelism: int = 1,
) -> SweepResult:
    """Run the dynamics from every initial profile on the requested axes.

    Each distinct initial profile runs once: the distinct firm and worker
    plans of the axes (``(0, b)`` is one worker plan for every counter ``b``,
    as threshold 0 never counters) give one kernel row per pair, and every
    cell takes its profile's result, with its own copies of the final plans.
    A row runs exactly as it would alone, so no cell depends on the merging.
    ``parallelism`` (an integer >= 1, any type ``operator.index`` accepts
    but ``bool``) is the number of processes the sweep is split over, one
    contiguous chunk of distinct profiles each, in either arithmetic: the
    calling process runs the first chunk while one process per extra chunk
    (``chunks - 1``, started before it) runs the rest, and every such process
    is joined before the sweep returns or raises.  An exception in a chunk
    process re-raises in the caller with its type and message, chained to
    its formatted traceback; a chunk process that exits without a result
    raises ``RuntimeError`` naming the chunk and its exit code.  Results
    never depend on ``parallelism``.
    Individual non-converged cells are recorded in place and never abort
    the sweep.
    """
    parallelism = _check_parallelism(parallelism)
    game = cfg.game
    firm_axis, worker_axis = _axis(game, axis_f), _axis(game, axis_w)
    plans_f, pick_f = _distinct([_initial(game, FIRM, e) for e in firm_axis])
    plans_w, pick_w = _distinct([_initial(game, WORKER, e) for e in worker_axis])
    init_f = np.repeat(plans_f, len(plans_w), axis=0)
    init_w = np.tile(plans_w, (len(plans_f), 1))
    chunks = min(parallelism, len(init_f))
    results = _run_chunks(cfg, np.array_split(init_f, chunks), np.array_split(init_w, chunks))
    taken = set()   # rows whose own result a cell already holds

    def cell(i: int, j: int) -> CellResult:
        row = pick_f[i] * len(plans_w) + pick_w[j]
        out = results[row]
        if row in taken:
            return replace(out, final_f=out.final_f.copy(), final_w=out.final_w.copy())
        taken.add(row)
        return out

    grid_cells = tuple(tuple(cell(i, j) for j in range(len(worker_axis)))
                       for i in range(len(firm_axis)))
    return SweepResult(cfg, firm_axis, worker_axis, grid_cells)


# ---------------------------------------------------------------------------
# Meta-game solution
# ---------------------------------------------------------------------------


_PIVOT_EPS = 1e-12   # tableau entries within this of zero count as zero
_MAX_PIVOTS = 10_000  # pivot cap of one solve


def minimax_solve(m: np.ndarray, tol: float = 1e-4) -> MinimaxSolution:
    """Exact minimax of the worker-payoff matrix by a dense tableau simplex.

    With ``a = 1 + (m - min m) / span`` (entries in [1, 2]) the firm's LP is
    ``max 1'x  s.t.  a'x <= 1, x >= 0``: its primal scaled to sum one is the
    firm's mixture and the reduced costs of its slacks, scaled alike, the
    worker's.  Bland's rule keeps degenerate pivots on tie-heavy heatmaps from
    cycling.  Both mixtures are certified by explicit best responses; an
    optimal basis whose gap exceeds ``tol`` (float breakdown) raises, while
    hitting the ``_MAX_PIVOTS`` cap returns the solution with its actual
    gap (the caller decides).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError("payoff matrix must be a finite 2-D array")
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    nr, nc = m.shape
    lo = m.min()
    a = 1.0 + (m - lo) / ((m.max() - lo) or 1.0)
    # one row per worker strategy: [a' | slacks | rhs]; obj holds z_j - c_j
    t = np.hstack([a.T, np.eye(nc), np.ones((nc, 1))])
    obj = np.concatenate([-np.ones(nr), np.zeros(nc + 1)])
    basis = np.arange(nr, nr + nc)
    pivots = 0
    while (improving := np.flatnonzero(obj[:-1] < -_PIVOT_EPS)).size and pivots < _MAX_PIVOTS:
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
