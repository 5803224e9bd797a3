"""Two-agent FTRL dynamics with last-iterate convergence detection.

Both agents accumulate full-feedback expected-utility vectors and apply the
Euclidean-regularized update (a nearest-point projection of
``reference + eta * cumulative_utility``) simultaneously each step.  The
cumulative vectors are shifted by their running maximum every step; the
projection is translation invariant, so iterates are unchanged while the
float path stays well conditioned (an explicit offset restores true values).

One kernel, :func:`run_lockstep`, advances a stack of independent runs of
either game in lockstep, one row per run, each row exactly as it would run
alone; :func:`run_dynamics` is its one-row case.  Exact-rational one-shot runs
go through the same kernel on object stacks of ``Fraction``s: only the
feedback and the projection differ, and the certificate guard sees float casts.

A :class:`MonitorSuite` passed to :func:`run_dynamics` buffers each step's
projection inputs and new strategies and checks the structural laws on
blocks of ``BLOCK`` steps at once, plus the remainder when the run ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import analysis, games, geometry
from .games import FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame
from .geometry import StructuralError

__all__ = [
    "LearnerConfig",
    "Trajectory",
    "MonitorSuite",
    "MONITORS",
    "Lockstep",
    "run_dynamics",
    "run_lockstep",
]

GAME_DEFAULTS = {
    UltimatumGame: dict(conv_threshold=1e-7, max_steps=8000),
    TwoRoundGame: dict(conv_threshold=1e-6, max_steps=15000),
}

MONITOR_TOL = 1e-10   # slack for the structural monitors
BLOCK = 128           # steps the monitors buffer between checks

# A small-step profile only counts as converged once it certifies as an
# approximate equilibrium at this gap; exact dynamics hit step-size-zero
# plateaus that later move, which a bare step-size test mistakes for
# convergence.
STOP_EPS = 1e-7

# The structural monitors' names, in report order.
MONITORS = (
    "lemma1_worker_sorted", "lemma2_firm_unimodal", "lemma3_worker_stationary",
    "lemma4_wmax_mass_decays", "lemma5_wmax_monotone",
    "claim1_mass_difference", "claim2_order",
)

# Test seam: monitors' negative control replaces this with a faulty update.
_project_simplex = geometry.project_simplex


@dataclass(frozen=True)
class LearnerConfig:
    """Parameters of one two-agent learning run."""

    game: Union[UltimatumGame, TwoRoundGame]
    eta: float
    reference_f: Optional[float] = None   # pure action value, or None for the zero vector
    reference_w: Optional[float] = None
    conv_threshold: Optional[float] = None
    max_steps: Optional[int] = None
    arithmetic: str = "float"             # "float" | "exact"

    def __post_init__(self):
        if not 0 < float(self.eta) < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta!r}")
        if self.arithmetic not in ("float", "exact"):
            raise ValueError(f"unknown arithmetic mode {self.arithmetic!r}")
        if self.arithmetic == "exact" and not isinstance(self.game, UltimatumGame):
            raise ValueError("exact-rational mode supports the ultimatum game only")
        if isinstance(self.game, TwoRoundGame):
            if self.reference_f is not None or self.reference_w is not None:
                raise ValueError("two-round runs use the zero reference only")
        else:
            for ref in (self.reference_f, self.reference_w):
                if ref is not None:
                    self.grid.index_of(ref)
        if not 0 < self.threshold < math.inf:  # also rejects NaN
            raise ValueError(f"conv_threshold must be positive and finite, got {self.threshold!r}")
        if self.steps_cap < 1:
            raise ValueError("max_steps must be at least 1")

    @property
    def grid(self) -> ActionGrid:
        return self.game.grid

    @property
    def threshold(self) -> float:
        if self.conv_threshold is not None:
            return self.conv_threshold
        return GAME_DEFAULTS[type(self.game)]["conv_threshold"]

    @property
    def steps_cap(self) -> int:
        if self.max_steps is not None:
            return self.max_steps
        return GAME_DEFAULTS[type(self.game)]["max_steps"]

    def reference_vector(self, agent: str) -> np.ndarray:
        """The agent's reference as 0/1 integers, which add exactly in both arithmetics."""
        ref = self.reference_f if agent == FIRM else self.reference_w
        out = np.zeros(self.grid.size, dtype=int)
        if ref is not None:
            out[self.grid.index_of(ref)] = 1
        return out


@dataclass
class Trajectory:
    """History and endpoint of one run; ``converged_at`` unset means the cap hit.

    ``regret_*`` (one-shot runs with ``keep_history`` only) is the cumulative
    regret against the best fixed action in hindsight after each step.  Both
    arithmetics fill the same fields with the same shapes; exact runs hold
    ``Fraction``s (object arrays and lists).
    """

    converged_at: Optional[int]
    steps: int
    final_f: np.ndarray
    final_w: np.ndarray
    cum_util_f: np.ndarray
    cum_util_w: np.ndarray
    history: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    regret_f: Optional[list[float]] = None
    regret_w: Optional[list[float]] = None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None


@dataclass
class Lockstep:
    """Endpoints of a stack of runs, one row each; ``converged_at`` 0 means the cap hit."""

    converged_at: np.ndarray
    final_f: np.ndarray
    final_w: np.ndarray
    cum_util_f: np.ndarray
    cum_util_w: np.ndarray


def _certified_rows(cfg: LearnerConfig, x_f: np.ndarray, x_w: np.ndarray) -> np.ndarray:
    """Equilibrium guard, applied when the step-size test fires: a row mask.

    A row of the ``(k, n)`` profile stacks passes when both its best-response
    gaps, certified on float casts, are within ``STOP_EPS``.
    """
    x_f, x_w = np.asarray(x_f, dtype=float), np.asarray(x_w, dtype=float)
    gap_f, gap_w, _, _ = analysis._gap_rows(cfg.game, x_f, x_w)
    return np.maximum(gap_f, gap_w) <= STOP_EPS


# Unused by the package; kept because perfbench/tracer.py wraps it by name.
def _certified_stop(cfg: LearnerConfig, x_f, x_w) -> bool:
    """The guard on one profile."""
    x_f, x_w = (np.asarray(v, dtype=float)[None] for v in (x_f, x_w))
    return bool(_certified_rows(cfg, x_f, x_w)[0])


def _updater(cfg: LearnerConfig, agent: str):
    """The agent's update: cumulative utility -> (projection input, strategy).

    Acts on one vector or row-wise on a stack of them.
    """
    if cfg.arithmetic == "exact":
        eta, ref = Fraction(cfg.eta), cfg.reference_vector(agent)

        def update(U):
            v = ref + eta * U
            return v, geometry.project_simplex_exact(v)
    elif isinstance(cfg.game, UltimatumGame):
        eta, ref = float(cfg.eta), cfg.reference_vector(agent).astype(float)

        def update(U):
            v = ref + eta * U
            return v, _project_simplex(v)
    else:
        eta, tp = float(cfg.eta), games.build_treeplex(cfg.game, agent)
        projector = geometry.TreeplexProjector(tp)

        def update(U):
            v = eta * tp.normalize_backward(U)
            return v, projector.project(v)
    return update


class MonitorSuite:
    """Runtime checks of the one-shot game's structural laws, on blocks of steps.

    Armed by the audit: worker vectors stay sorted, firm vectors stay unimodal,
    the top worker threshold never gains support, stationarity when the firm
    offers at or above it, strict decay otherwise, plus the projection
    identities (mass differences track input differences on the support, and
    output order follows input order).

    ``run_dynamics`` starts the suite on a run's initial strategies and
    appends each step's projection inputs and new strategies to a buffer.
    Every ``BLOCK`` steps, and once at the end of the run, the buffered
    ``(T, n)`` stacks are checked together against the carried previous row.
    ``violations`` lists ``(monitor, step, detail)`` in step order, and within
    a step in check order: firm then worker projection identities, the two
    shape laws, then the transition laws.  It accumulates across runs.
    """

    def __init__(self):
        self.violations: list[tuple[str, int, str]] = []
        self._buffer: list = []

    def _start(self, x_f: np.ndarray, x_w: np.ndarray) -> None:
        """Reset the per-run state on a run's initial strategies."""
        self._buffer = []
        self._prev_f, self._prev_w = x_f, x_w
        self._fresh = True   # the run's first transition is still to come

    def _record(self, t: int, v, new) -> None:
        """Buffer step ``t``: (firm, worker) projection inputs and outputs, one row each."""
        self._buffer.append((t, v, new))
        if len(self._buffer) == BLOCK:
            self._check()

    def _check(self) -> None:
        """Check the buffered steps as ``(T, n)`` stacks and empty the buffer."""
        if not self._buffer:
            return
        v_f, x_f, v_w, x_w = (np.concatenate(col) for col in
                              zip(*((v[0], new[0], v[1], new[1]) for _, v, new in self._buffer)))
        prev_f = np.concatenate((self._prev_f[None], x_f[:-1]))
        prev_w = np.concatenate((self._prev_w[None], x_w[:-1]))
        t0, skip = self._buffer[0][0], self._fresh
        self._buffer, self._prev_f, self._prev_w, self._fresh = [], x_f[-1], x_w[-1], False
        sorted_w, unimodal_f, stationary_w, decays_w, monotone_w, mass_diff, order_kept = MONITORS
        tol, n = analysis.SUPPORT_TOL, x_f.shape[1]
        cols = np.arange(n)
        rows = np.arange(len(x_f))
        checks = []
        for agent, v, x in ((FIRM, v_f, x_f), (WORKER, v_w, x_w)):
            # residuals off the support count as 0, so an empty support (where
            # argmax picks column 0) or a support of one entry is never flagged
            pos = x > tol
            first = pos.argmax(axis=1)
            x0, v0 = x[rows, first][:, None], v[rows, first][:, None]
            resid = np.where(pos, np.abs((x - x0) - (v - v0)), 0.0).max(axis=1)
            # order preservation wherever at least one side keeps support
            xs = np.take_along_axis(x, np.argsort(-v, axis=1, kind="stable"), axis=1)
            checks += [
                (resid > 1e-12, mass_diff,
                 lambda r, agent=agent, resid=resid: f"{agent}: residual {resid[r]:.3e}"),
                ((np.diff(xs, axis=1) > 1e-12).any(axis=1), order_kept,
                 lambda r, agent=agent: f"{agent}: output order breaks input order"),
            ]
        df = np.diff(x_f, axis=1)
        # a rise is never also a fall, so "fell at or before j" is "fell before j"
        fell = np.logical_or.accumulate(df < -MONITOR_TOL, axis=1)
        checks += [
            ((np.diff(x_w, axis=1) > MONITOR_TOL).any(axis=1), sorted_w,
             lambda r: "worker masses increase with threshold"),
            (((df > MONITOR_TOL) & fell).any(axis=1), unimodal_f,
             lambda r: "firm masses rise after a fall"),
        ]
        # The transition laws condition on the time-t profile being an update
        # output (its mass differences track utility differences), which the
        # arbitrary initial profile is not; skip the run's first transition.
        w_sup, new_w_sup, f_sup = prev_w > tol, x_w > tol, prev_f > tol
        wmax = np.where(w_sup.any(axis=1), n - 1 - w_sup[:, ::-1].argmax(axis=1), -1)
        new_wmax = np.where(new_w_sup.any(axis=1), n - 1 - new_w_sup[:, ::-1].argmax(axis=1), -1)
        fmin = np.where(f_sup.any(axis=1), f_sup.argmax(axis=1), -1)
        law = (wmax >= 0) & (new_wmax >= 0) & (fmin >= 0)
        law[0] &= not skip
        moved = np.abs(x_w - prev_w).max(axis=1)
        # decay needs firm mass on a strictly positive offer below the top
        # threshold; mass on offer 0 pays the worker nothing and leaves it
        # exactly indifferent
        paid = (f_sup & (cols >= 1) & (cols < wmax[:, None])).any(axis=1)
        old, now = prev_w[rows, wmax], x_w[rows, wmax]
        checks += [
            (law & (new_wmax > wmax), monotone_w,
             lambda r: "top worker threshold gained support"),
            (law & (wmax <= fmin) & (moved > MONITOR_TOL), stationary_w,
             lambda r: f"worker moved {moved[r]:.3e}"),
            (law & (wmax > fmin) & paid & (now > tol) & ~(now < old), decays_w,
             lambda r: f"mass {old[r]:.3e} -> {now[r]:.3e}"),
        ]
        hits = sorted((int(r), order, name, detail(r))
                      for order, (mask, name, detail) in enumerate(checks)
                      for r in np.flatnonzero(mask))
        self.violations += [(name, t0 + r, detail) for r, _, name, detail in hits]


_fractions = np.frompyfunc(Fraction, 1, 1)


def _state(cfg: LearnerConfig, x) -> np.ndarray:
    """A copy of ``x`` in the run's arithmetic: floats, or ``Fraction``s entry by entry."""
    if cfg.arithmetic == "exact":
        return _fractions(np.array(x, dtype=object))
    return np.array(x, dtype=float)


def _check_initial(cfg: LearnerConfig, x_f: np.ndarray, x_w: np.ndarray) -> None:
    game = cfg.game
    for agent, x in ((FIRM, x_f), (WORKER, x_w)):
        if cfg.arithmetic == "exact":
            if x.shape != (game.grid.size,) or sum(x) != 1 or min(x) < 0:
                raise StructuralError(f"initial {agent} strategy is not an exact simplex point")
            continue
        if isinstance(game, UltimatumGame):
            ok = x.shape == (game.grid.size,) and geometry.check_simplex(x)
        else:
            ok = geometry.validate_plan(x, games.build_treeplex(game, agent))
        if not ok:
            raise StructuralError(f"initial {agent} strategy is not on its polytope")


def run_dynamics(
    cfg: LearnerConfig,
    init_f,
    init_w,
    keep_history: bool = False,
    monitors: Optional[MonitorSuite] = None,
) -> Trajectory:
    """Simultaneous FTRL self-play until convergence or the step cap.

    Non-convergence is reported through an unset ``converged_at``, never an
    exception.  Identical inputs produce bitwise-identical trajectories.
    Monitors watch float one-shot runs only; passing them to any other run
    raises ``ValueError``.
    """
    one_shot = isinstance(cfg.game, UltimatumGame)
    if monitors is not None and not (one_shot and cfg.arithmetic == "float"):
        raise ValueError("monitors apply to float one-shot runs only")
    x_f, x_w = _state(cfg, init_f), _state(cfg, init_w)
    _check_initial(cfg, x_f, x_w)
    history = [(x_f.copy(), x_w.copy())] if keep_history else None
    regret = ([], []) if keep_history and one_shot else None
    # exact regrets stay Fractions; float ones are Python floats
    scalar = Fraction if cfg.arithmetic == "exact" else float
    realized = [scalar(0), scalar(0)]

    if monitors is not None:
        monitors._start(x_f, x_w)

    def on_step(t, prev, fb, off, v, new):
        if monitors is not None:
            monitors._record(t, v, new)
        if keep_history:
            history.append((new[0][0].copy(), new[1][0].copy()))
        if regret is not None:
            for i in (0, 1):
                realized[i] += scalar(prev[i][0] @ fb[i][0])
                regret[i].append(scalar(off[i][0, 0]) - realized[i])

    hook = on_step if keep_history or monitors is not None else None
    run = run_lockstep(cfg, x_f[None], x_w[None], hook)
    if monitors is not None:
        monitors._check()
    converged_at = int(run.converged_at[0]) or None
    return Trajectory(
        converged_at=converged_at,
        steps=converged_at or cfg.steps_cap,
        final_f=run.final_f[0],
        final_w=run.final_w[0],
        cum_util_f=run.cum_util_f[0],
        cum_util_w=run.cum_util_w[0],
        history=history,
        regret_f=regret[0] if regret else None,
        regret_w=regret[1] if regret else None,
    )


def run_lockstep(cfg: LearnerConfig, init_f: np.ndarray, init_w: np.ndarray,
                 on_step=None) -> Lockstep:
    """Self-play of a stack of runs, one row of ``init_f``/``init_w`` each.

    All rows step together through one feedback, shift, update and projection
    per agent on the whole stack; every row does exactly the arithmetic it
    would do alone.  Exact runs hold object stacks of ``Fraction``s.  A row
    whose step moves no entry by more than the threshold and that passes the
    certificate guard (one stacked certificate per step over all such rows)
    leaves the stack; the rest run to the step cap.  Initial strategies are
    not checked here.
    ``on_step(t, prev, fb, off, v, new)`` sees each step of the live rows, as
    (firm, worker) pairs of stacks: strategies before the step, feedback,
    running offsets, projection inputs and new strategies.
    """
    game = cfg.game
    if cfg.arithmetic == "exact":
        def feedback(agent, opponent):
            return games.ultimatum_feedback_exact(agent, opponent, game.grid)
    elif isinstance(game, UltimatumGame):
        def feedback(agent, opponent):
            return games.ultimatum_feedback(agent, opponent, game.grid)
    else:
        def feedback(agent, opponent):
            return games.two_round_feedback(agent, opponent, game)
    update_f, update_w = _updater(cfg, FIRM), _updater(cfg, WORKER)
    threshold = cfg.threshold
    x_f, x_w = _state(cfg, init_f), _state(cfg, init_w)
    out = Lockstep(np.zeros(len(x_f), dtype=np.int64), np.empty_like(x_f), np.empty_like(x_w),
                   np.empty_like(x_f), np.empty_like(x_w))
    rows = np.arange(len(x_f))
    # float zeros, or Fraction zeros that keep the exact sums Fractions
    U_f, U_w, off_f, off_w = (_state(cfg, np.zeros(shape)) for shape in
                              (x_f.shape, x_w.shape, (len(x_f), 1), (len(x_w), 1)))

    def retire(mask):
        out.final_f[rows[mask]] = x_f[mask]
        out.final_w[rows[mask]] = x_w[mask]
        out.cum_util_f[rows[mask]] = U_f[mask] + off_f[mask]
        out.cum_util_w[rows[mask]] = U_w[mask] + off_w[mask]

    for t in range(2, cfg.steps_cap + 1):
        fb_f = feedback(FIRM, x_w)
        fb_w = feedback(WORKER, x_f)
        U_f += fb_f
        U_w += fb_w
        shift_f, shift_w = U_f.max(axis=1, keepdims=True), U_w.max(axis=1, keepdims=True)
        U_f -= shift_f
        U_w -= shift_w
        off_f += shift_f
        off_w += shift_w
        v_f, new_f = update_f(U_f)
        v_w, new_w = update_w(U_w)
        delta = np.maximum(abs(new_f - x_f).max(axis=1), abs(new_w - x_w).max(axis=1))
        if on_step is not None:
            on_step(t, (x_f, x_w), (fb_f, fb_w), (off_f, off_w), (v_f, v_w), (new_f, new_w))
        x_f, x_w = new_f, new_w
        if delta.min() > threshold:
            continue
        stopped = np.flatnonzero(delta <= threshold)
        stopped = stopped[_certified_rows(cfg, x_f[stopped], x_w[stopped])]
        if stopped.size:
            done = np.zeros(rows.size, dtype=bool)
            done[stopped] = True
            out.converged_at[rows[done]] = t
            retire(done)
            live = ~done
            rows, x_f, x_w, U_f, U_w, off_f, off_w = (
                a[live] for a in (rows, x_f, x_w, U_f, U_w, off_f, off_w))
            if rows.size == 0:
                break
    retire(np.ones(rows.size, dtype=bool))
    return out

