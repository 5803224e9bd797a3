"""Two-agent FTRL dynamics with last-iterate convergence detection.

Both agents accumulate full-feedback expected-utility vectors and apply the
Euclidean-regularized update (a nearest-point projection of
``reference + eta * cumulative_utility``) simultaneously each step.  The
cumulative vectors are shifted by their running maximum every step; the
projection is translation invariant, so iterates are unchanged while the
float path stays well conditioned (an explicit offset restores true values).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import games, geometry
from .games import FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame
from .geometry import StructuralError

__all__ = [
    "LearnerConfig",
    "Trajectory",
    "MonitorSuite",
    "ftrl_step",
    "run_dynamics",
    "detect_convergence",
]

GAME_DEFAULTS = {
    UltimatumGame: dict(conv_threshold=1e-7, max_steps=8000),
    TwoRoundGame: dict(conv_threshold=1e-6, max_steps=15000),
}

SUPPORT_TOL = 1e-10   # masses below this count as zero for w_max / f_min
MONITOR_TOL = 1e-10   # slack for the structural monitors

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
    # A small-step profile only counts as converged once it certifies as an
    # approximate equilibrium at this gap; exact dynamics hit step-size-zero
    # plateaus that later move, which a bare step-size test mistakes for
    # convergence.  None disables the guard.
    stop_eps: Optional[float] = 1e-7

    def __post_init__(self):
        if float(self.eta) <= 0:
            raise ValueError("eta must be positive")
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
        if self.threshold <= 0:
            raise ValueError("conv_threshold must be positive")
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
        ref = self.reference_f if agent == FIRM else self.reference_w
        if ref is None:
            return np.zeros(self.grid.size)
        return games.pure_strategy(self.grid, ref)

    def reference_vector_exact(self, agent: str) -> list[Fraction]:
        ref = self.reference_f if agent == FIRM else self.reference_w
        out = [Fraction(0)] * self.grid.size
        if ref is not None:
            out[self.grid.index_of(ref)] = Fraction(1)
        return out


@dataclass
class Trajectory:
    """History and endpoint of one run; ``converged_at`` unset means the cap hit."""

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


def detect_convergence(prev, nxt, threshold: float) -> bool:
    """True when no strategy dimension moved by more than ``threshold``."""
    if len(prev) != len(nxt):
        raise StructuralError("strategy dimension mismatch")
    if isinstance(prev, np.ndarray) and isinstance(nxt, np.ndarray):
        return float(np.abs(nxt - prev).max()) <= threshold
    return max(abs(b - a) for a, b in zip(prev, nxt)) <= threshold


def _certified_stop(cfg: LearnerConfig, x_f, x_w) -> bool:
    """Equilibrium guard applied when the step-size test fires."""
    if cfg.stop_eps is None:
        return True
    from . import analysis

    profile = (np.asarray(x_f, dtype=float), np.asarray(x_w, dtype=float))
    return analysis.certify_epsilon_ne(profile, cfg.game).eps <= cfg.stop_eps


def ftrl_step(agent: str, cum_util: np.ndarray, cfg: LearnerConfig) -> np.ndarray:
    """One update: project reference + eta * cum_util onto the agent's polytope."""
    cum_util = np.asarray(cum_util, dtype=float)
    if not np.all(np.isfinite(cum_util)):
        raise ValueError("cumulative utility must be finite")
    if isinstance(cfg.game, UltimatumGame):
        v = cfg.reference_vector(agent) + cfg.eta * cum_util
        return _project_simplex(v)
    projector = geometry.TreeplexProjector(games.build_treeplex(cfg.game, agent))
    return projector.project(cfg.eta * cum_util)


class MonitorSuite:
    """Runtime checks of the one-shot game's structural laws.

    Armed by the audit: worker vectors stay sorted, firm vectors stay unimodal,
    the top worker threshold never gains support, stationarity when the firm
    offers at or above it, strict decay otherwise, plus the projection
    identities (mass differences track input differences on the support, and
    output order follows input order).
    """

    def __init__(self, grid: ActionGrid, support_tol: float = SUPPORT_TOL):
        self.grid = grid
        self.support_tol = support_tol
        self.violations: list[tuple[str, int, str]] = []
        self._transitions_seen = 0

    def _flag(self, monitor: str, step: int, detail: str) -> None:
        self.violations.append((monitor, step, detail))

    def observe_projection(self, agent: str, step: int, v: np.ndarray, x: np.ndarray) -> None:
        pos = x > self.support_tol
        idx = np.nonzero(pos)[0]
        if idx.size >= 2:
            dx = x[idx] - x[idx[0]]
            dv = v[idx] - v[idx[0]]
            err = float(np.abs(dx - dv).max())
            if err > 1e-12:
                self._flag("claim1_mass_difference", step, f"{agent}: residual {err:.3e}")
        # order preservation wherever at least one side keeps support
        order = np.argsort(-v, kind="stable")
        xs = x[order]
        if np.any(np.diff(xs) > 1e-12):
            self._flag("claim2_order", step, f"{agent}: output order breaks input order")

    def observe_step(
        self,
        step: int,
        x_f: np.ndarray,
        x_w: np.ndarray,
        new_f: np.ndarray,
        new_w: np.ndarray,
    ) -> None:
        tol = self.support_tol
        if np.any(np.diff(new_w) > MONITOR_TOL):
            self._flag("lemma1_worker_sorted", step, "worker masses increase with threshold")
        df = np.diff(new_f)
        decreased = False
        for step_diff in df:
            if step_diff < -MONITOR_TOL:
                decreased = True
            elif step_diff > MONITOR_TOL and decreased:
                self._flag("lemma2_firm_unimodal", step, "firm masses rise after a fall")
                break
        # The transition laws condition on the time-t profile being an update
        # output (its mass differences track utility differences), which the
        # arbitrary initial profile is not; skip the first transition.
        self._transitions_seen += 1
        if self._transitions_seen == 1:
            return
        w_sup = np.nonzero(x_w > tol)[0]
        new_w_sup = np.nonzero(new_w > tol)[0]
        f_sup = np.nonzero(x_f > tol)[0]
        if w_sup.size and new_w_sup.size and f_sup.size:
            wmax, fmin = int(w_sup[-1]), int(f_sup[0])
            if int(new_w_sup[-1]) > wmax:
                self._flag("lemma5_wmax_monotone", step, "top worker threshold gained support")
            if wmax <= fmin:
                moved = float(np.abs(new_w - x_w).max())
                if moved > MONITOR_TOL:
                    self._flag("lemma3_worker_stationary", step, f"worker moved {moved:.3e}")
            elif np.any(x_f[1:wmax] > tol):
                # decay needs firm mass on a strictly positive offer below the
                # top threshold; mass on offer 0 pays the worker nothing and
                # leaves it exactly indifferent
                if new_w[wmax] > tol and not (new_w[wmax] < x_w[wmax]):
                    self._flag("lemma4_wmax_mass_decays", step,
                               f"mass {x_w[wmax]:.3e} -> {new_w[wmax]:.3e}")


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
    float_ultimatum = cfg.arithmetic == "float" and isinstance(cfg.game, UltimatumGame)
    if monitors is not None and not float_ultimatum:
        raise ValueError("monitors apply to float one-shot runs only")
    if cfg.arithmetic == "exact":
        return _run_ultimatum_exact(cfg, init_f, init_w, keep_history)
    if float_ultimatum:
        return _run_ultimatum_float(cfg, init_f, init_w, keep_history, monitors)
    return _run_two_round(cfg, init_f, init_w, keep_history)


def _run_ultimatum_float(cfg, init_f, init_w, keep_history, monitors) -> Trajectory:
    grid = cfg.grid
    x_f = np.array(init_f, dtype=float).copy()
    x_w = np.array(init_w, dtype=float).copy()
    for name, x in ((FIRM, x_f), (WORKER, x_w)):
        if x.shape != (grid.size,) or not geometry.check_simplex(x, tol=1e-9):
            raise StructuralError(f"initial {name} strategy is not on the simplex")
    eta = float(cfg.eta)
    ref_f = cfg.reference_vector(FIRM)
    ref_w = cfg.reference_vector(WORKER)
    U_f = np.zeros(grid.size)
    U_w = np.zeros(grid.size)
    off_f = off_w = 0.0
    realized_f = realized_w = 0.0
    history = [(x_f.copy(), x_w.copy())] if keep_history else None
    regret_f: list[float] = []
    regret_w: list[float] = []

    converged_at = None
    t = 1
    for t in range(2, cfg.steps_cap + 1):
        fb_f = games.ultimatum_feedback(FIRM, x_w, grid)
        fb_w = games.ultimatum_feedback(WORKER, x_f, grid)
        if keep_history:
            realized_f += float(x_f @ fb_f)
            realized_w += float(x_w @ fb_w)
        U_f += fb_f
        U_w += fb_w
        shift_f = float(U_f.max())
        shift_w = float(U_w.max())
        U_f -= shift_f
        U_w -= shift_w
        off_f += shift_f
        off_w += shift_w
        v_f = ref_f + eta * U_f
        v_w = ref_w + eta * U_w
        new_f = _project_simplex(v_f)
        new_w = _project_simplex(v_w)
        if monitors is not None:
            monitors.observe_projection(FIRM, t, v_f, new_f)
            monitors.observe_projection(WORKER, t, v_w, new_w)
            monitors.observe_step(t, x_f, x_w, new_f, new_w)
        if keep_history:
            regret_f.append(off_f - realized_f)
            regret_w.append(off_w - realized_w)
        delta = max(
            float(np.abs(new_f - x_f).max()),
            float(np.abs(new_w - x_w).max()),
        )
        x_f, x_w = new_f, new_w
        if keep_history:
            history.append((x_f.copy(), x_w.copy()))
        if delta <= cfg.threshold and _certified_stop(cfg, x_f, x_w):
            converged_at = t
            break

    return Trajectory(
        converged_at=converged_at,
        steps=t,
        final_f=x_f,
        final_w=x_w,
        cum_util_f=U_f + off_f,
        cum_util_w=U_w + off_w,
        history=history,
        regret_f=regret_f if keep_history else None,
        regret_w=regret_w if keep_history else None,
    )


def _run_ultimatum_exact(cfg, init_f, init_w, keep_history) -> Trajectory:
    grid = cfg.grid
    x_f = [Fraction(v) for v in init_f]
    x_w = [Fraction(v) for v in init_w]
    for name, x in ((FIRM, x_f), (WORKER, x_w)):
        if len(x) != grid.size or sum(x) != 1 or min(x) < 0:
            raise StructuralError(f"initial {name} strategy is not an exact simplex point")
    eta = Fraction(cfg.eta)
    ref_f = cfg.reference_vector_exact(FIRM)
    ref_w = cfg.reference_vector_exact(WORKER)
    zero = Fraction(0)
    U_f = [zero] * grid.size
    U_w = [zero] * grid.size
    off_f = off_w = zero
    threshold = Fraction(cfg.threshold)

    history = [(list(x_f), list(x_w))] if keep_history else None
    converged_at = None
    t = 1
    for t in range(2, cfg.steps_cap + 1):
        fb_f = games.ultimatum_feedback_exact(FIRM, x_w, grid)
        fb_w = games.ultimatum_feedback_exact(WORKER, x_f, grid)
        U_f = [u + f for u, f in zip(U_f, fb_f)]
        U_w = [u + f for u, f in zip(U_w, fb_w)]
        mf, mw = max(U_f), max(U_w)
        U_f = [u - mf for u in U_f]
        U_w = [u - mw for u in U_w]
        off_f += mf
        off_w += mw
        new_f = geometry.project_simplex_exact([r + eta * u for r, u in zip(ref_f, U_f)])
        new_w = geometry.project_simplex_exact([r + eta * u for r, u in zip(ref_w, U_w)])
        delta = max(
            max(abs(b - a) for a, b in zip(x_f, new_f)),
            max(abs(b - a) for a, b in zip(x_w, new_w)),
        )
        x_f, x_w = new_f, new_w
        if keep_history:
            history.append((list(x_f), list(x_w)))
        if delta <= threshold and _certified_stop(cfg, x_f, x_w):
            converged_at = t
            break

    return Trajectory(
        converged_at=converged_at,
        steps=t,
        final_f=x_f,
        final_w=x_w,
        cum_util_f=[u + off_f for u in U_f],
        cum_util_w=[u + off_w for u in U_w],
        history=history,
    )


def _run_two_round(cfg, init_f, init_w, keep_history) -> Trajectory:
    game: TwoRoundGame = cfg.game
    tp_f = games.build_treeplex(game, FIRM)
    tp_w = games.build_treeplex(game, WORKER)
    proj_f = geometry.TreeplexProjector(tp_f)
    proj_w = geometry.TreeplexProjector(tp_w)
    r_f = np.array(init_f, dtype=float).copy()
    r_w = np.array(init_w, dtype=float).copy()
    if not geometry.validate_plan(r_f, tp_f):
        raise StructuralError("initial firm plan violates realization constraints")
    if not geometry.validate_plan(r_w, tp_w):
        raise StructuralError("initial worker plan violates realization constraints")
    eta = float(cfg.eta)
    U_f = np.zeros(tp_f.n_sequences)
    U_w = np.zeros(tp_w.n_sequences)
    off_f = off_w = 0.0
    history = [(r_f.copy(), r_w.copy())] if keep_history else None

    converged_at = None
    t = 1
    for t in range(2, cfg.steps_cap + 1):
        fb_f = games.two_round_feedback(FIRM, r_w, game)
        fb_w = games.two_round_feedback(WORKER, r_f, game)
        U_f += fb_f
        U_w += fb_w
        shift_f, shift_w = float(U_f.max()), float(U_w.max())
        U_f -= shift_f
        U_w -= shift_w
        off_f += shift_f
        off_w += shift_w
        v_f = eta * tp_f.normalize_backward(U_f)
        v_w = eta * tp_w.normalize_backward(U_w)
        new_f = proj_f.project(v_f)
        new_w = proj_w.project(v_w)
        delta = max(
            float(np.abs(new_f - r_f).max()),
            float(np.abs(new_w - r_w).max()),
        )
        r_f, r_w = new_f, new_w
        if keep_history:
            history.append((r_f.copy(), r_w.copy()))
        if delta <= cfg.threshold and _certified_stop(cfg, r_f, r_w):
            converged_at = t
            break

    return Trajectory(
        converged_at=converged_at,
        steps=t,
        final_f=r_f,
        final_w=r_w,
        cum_util_f=U_f + off_f,
        cum_util_w=U_w + off_w,
        history=history,
    )
