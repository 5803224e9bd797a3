"""Two-agent FTRL dynamics with last-iterate convergence detection.

Both agents accumulate full-feedback expected-utility vectors and apply the
Euclidean-regularized update (a nearest-point projection of
``reference + eta * cumulative_utility``) simultaneously each step.  The
cumulative vectors are shifted by their running maximum every step; the
projection is translation invariant, so iterates are unchanged while the
float path stays well conditioned (an explicit offset restores true values).

One kernel, :func:`run_lockstep`, advances a stack of independent runs of
either game in lockstep, one row per run, each row exactly as it would run
alone; :func:`run_dynamics` is its one-row case.  Each row may carry its own
learning rate, and float one-shot rows may differ in grid size (narrower rows
are padded with inert entries), so the randomized audit runs all its float
draws as one monitored stack and still reports them in run order.
Exact-rational one-shot runs go through the same step loop on Python-int
numerators over one denominator per row, reduced once per step; the
certificate guard sees correctly rounded float casts, and ``Fraction``s are
built only for the results.  The kernel reports only strategies to its
observers: regret is derived after the run from the history, by one rule in
both arithmetics.

One :class:`MonitorSuite` per float one-shot stack buffers the live rows'
previous strategies, projection inputs and new strategies each step and checks
the structural laws on blocks of ``BLOCK`` row-steps at once, plus the
remainder after the run.

The float kernel holds its state entries-major: a stack of k runs over n
entries is a C-ordered ``(n, k)`` array, one run per column, so each
reduction, scan and broadcast over a vector's entries runs across all the
runs at once rather than once per row.  The layers (feedback, normalization,
projection) take row stacks and get the ``(k, n)`` ``.T`` views of the state.
Row sums and dot products round by memory order, so the certificate guard,
the monitors and the results get C-ordered row copies: every run gets the
bits it would get on a row-major stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
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
BLOCK = 128           # row-steps the monitors buffer between checks

# A small-step profile only counts as converged once it certifies as an
# approximate equilibrium at this gap; exact dynamics hit step-size-zero
# plateaus that later move, which a bare step-size test mistakes for
# convergence.
STOP_EPS = 1e-7

# Cumulative utility of the pad entries that widen a narrower row of a
# mixed-width float stack, divided by the row's rate when that exceeds 1:
# so the projection input eta * pad stays finite at any rate, and far below
# every real entry, so a pad is never a row max and projects to 0.
PAD_UTILITY = -1e300

# The structural monitors' names, in report order.
MONITORS = (
    "lemma1_worker_sorted", "lemma2_firm_unimodal", "lemma3_worker_stationary",
    "lemma4_wmax_mass_decays", "lemma5_wmax_monotone",
    "claim1_mass_difference", "claim2_order",
)

# Test seam: monitors' negative control replaces this with a faulty update.
_project_simplex = geometry.project_simplex


def _check_eta(eta, exact: bool = False) -> None:
    """The learning-rate rule: positive and finite (which also rejects NaN).

    An exact run computes with ``Fraction(eta)``, so there a rate that is not
    a rational type must be the rational its text reads as: 0.5 is 1/2, but
    0.1 is 3602879701896397/2**55.
    """
    if not 0 < float(eta) < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if exact and not isinstance(eta, numbers.Rational) and Fraction(eta) != Fraction(repr(float(eta))):
        raise ValueError(f"exact-mode eta {eta!r} is {Fraction(eta)}, not the rational it "
                         f"reads as; pass a Fraction")


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
        _check_eta(self.eta, self.arithmetic == "exact")
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", games._integer("max_steps", self.max_steps))
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
    regret against the best fixed action in hindsight after each step,
    derived from ``history`` by :func:`_regrets`.  Both arithmetics fill the
    same fields with the same shapes; exact runs hold ``Fraction``s (object
    arrays and lists).
    """

    converged_at: Optional[int]
    steps: int
    final_f: np.ndarray
    final_w: np.ndarray
    cum_util_f: np.ndarray
    cum_util_w: np.ndarray
    history: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
    regret_f: Optional[list[Union[float, Fraction]]] = None
    regret_w: Optional[list[Union[float, Fraction]]] = None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None


@dataclass
class Lockstep:
    """Endpoints of a stack of runs, one row each; ``converged_at`` 0 means the cap hit.

    ``widths`` holds each row's grid size when the stack mixed grid sizes;
    its rows are then padded to the widest grid (see :func:`run_lockstep`).
    """

    converged_at: np.ndarray
    final_f: np.ndarray
    final_w: np.ndarray
    cum_util_f: np.ndarray
    cum_util_w: np.ndarray
    widths: Optional[np.ndarray] = None

    def trajectory(self, row: int, steps_cap: int) -> Trajectory:
        """Row ``row``'s run as a :class:`Trajectory` without history, capped at ``steps_cap``.

        A padded row is trimmed back to its own grid size.
        """
        converged_at = int(self.converged_at[row]) or None
        cut = slice(None) if self.widths is None else slice(int(self.widths[row]))
        return Trajectory(converged_at=converged_at, steps=converged_at or steps_cap,
                          final_f=self.final_f[row, cut], final_w=self.final_w[row, cut],
                          cum_util_f=self.cum_util_f[row, cut], cum_util_w=self.cum_util_w[row, cut])


def _certified_rows(cfg: LearnerConfig, x_f: np.ndarray, x_w: np.ndarray,
                    widths: Optional[np.ndarray] = None) -> np.ndarray:
    """Equilibrium guard, applied when the step-size test fires: a row mask.

    A row of the ``(k, n)`` profile stacks passes when both its best-response
    gaps, certified on float casts, are within ``STOP_EPS``.  With ``widths``
    (padded one-shot rows of mixed grid sizes), the rows of each width are
    certified together, trimmed, against their own grid's game.
    """
    x_f, x_w = np.asarray(x_f, dtype=float), np.asarray(x_w, dtype=float)
    if widths is None:
        gap_f, gap_w, _, _ = analysis._gap_rows(cfg.game, x_f, x_w)
        return np.maximum(gap_f, gap_w) <= STOP_EPS
    ok = np.empty(len(widths), dtype=bool)
    for w in np.unique(widths).tolist():
        pick = widths == w
        game = UltimatumGame(ActionGrid(w - 1))
        gap_f, gap_w, _, _ = analysis._gap_rows(game, x_f[pick, :w], x_w[pick, :w])
        ok[pick] = np.maximum(gap_f, gap_w) <= STOP_EPS
    return ok


# Unused by the package; kept because perfbench/tracer.py wraps it by name.
def _certified_stop(cfg: LearnerConfig, x_f, x_w) -> bool:
    """The guard on one profile."""
    x_f, x_w = (np.asarray(v, dtype=float)[None] for v in (x_f, x_w))
    return bool(_certified_rows(cfg, x_f, x_w)[0])


def _updater(cfg: LearnerConfig, agent: str):
    """The agent's float update: cumulative utility -> (projection input, strategy).

    Acts on one vector or on an entries-major ``(n, k)`` stack, one run per
    column, and returns entries-major stacks; ``eta`` is the run's rate or a
    ``(k,)`` row of per-column rates, each entry the same IEEE product either
    way.  The row functions it calls get ``.T`` views.
    """
    if isinstance(cfg.game, UltimatumGame):
        ref = cfg.reference_vector(agent).astype(float)

        def update(U, eta=float(cfg.eta)):
            v = eta * U
            np.add(ref, v.T, out=v.T)
            return v, _project_simplex(v.T).T
    else:
        tp = games.build_treeplex(cfg.game, agent)
        projector = geometry.TreeplexProjector(tp)

        def update(U, eta=float(cfg.eta)):
            v = eta * tp.normalize_backward(U.T).T
            return v, projector.project(v.T).T
    return update


class MonitorSuite:
    """Runtime checks of the one-shot game's structural laws, on blocks of row-steps.

    Armed by the audit: worker vectors stay sorted, firm vectors stay unimodal,
    the top worker threshold never gains support, stationarity when the firm
    offers at or above it, strict decay otherwise, plus the projection
    identities (mass differences track input differences on the support, and
    output order follows input order).

    One suite watches a whole :func:`run_lockstep` stack.  Each step the
    kernel hands it the live rows' indices with their previous strategies,
    projection inputs and new strategies, which the suite copies; every
    ``BLOCK`` buffered row-steps, and once after the run, it checks them
    together as ``(N, n)`` stacks in which each entry carries its own
    previous row.
    ``violations`` lists ``(monitor, row, step, detail)`` in step order, within
    a step in row order, and within a row in check order: firm then worker
    projection identities, the two shape laws, then the transition laws.  It
    accumulates across runs.
    """

    def __init__(self):
        self.violations: list[tuple[str, int, int, str]] = []
        self._buffer: list = []
        self._pending = 0

    def _record(self, t: int, rows: np.ndarray, x, v, new) -> None:
        """Buffer step ``t`` of the live ``rows``: (firm, worker) pairs of ``(k, n)`` stacks.

        The stacks may be views of any memory order; the buffer holds C-ordered copies.
        """
        self._buffer.append((np.full(len(rows), t), rows.copy(),
                             np.array((x[0], v[0], new[0], x[1], v[1], new[1]), order="C")))
        self._pending += len(rows)
        if self._pending >= BLOCK:
            self._check()

    def _check(self) -> None:
        """Check the buffered row-steps as ``(N, n)`` stacks and empty the buffer."""
        if not self._buffer:
            return
        steps, ids, stacks = zip(*self._buffer)
        steps, ids = np.concatenate(steps), np.concatenate(ids)
        prev_f, v_f, x_f, prev_w, v_w, x_w = np.concatenate(stacks, axis=1)
        self._buffer, self._pending = [], 0
        sorted_w, unimodal_f, stationary_w, decays_w, monotone_w, mass_diff, order_kept = MONITORS
        tol, n = analysis.SUPPORT_TOL, x_f.shape[1]
        cols = np.arange(n)
        entries = np.arange(len(x_f))
        checks = []
        for agent, v, x in ((FIRM, v_f, x_f), (WORKER, v_w, x_w)):
            # residuals off the support count as 0, so an empty support (where
            # argmax picks column 0) or a support of one entry is never flagged
            pos = x > tol
            first = pos.argmax(axis=1)
            x0, v0 = x[entries, first][:, None], v[entries, first][:, None]
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
        law = (wmax >= 0) & (new_wmax >= 0) & (fmin >= 0) & (steps != 2)
        moved = np.abs(x_w - prev_w).max(axis=1)
        # decay needs firm mass on a strictly positive offer below the top
        # threshold; mass on offer 0 pays the worker nothing and leaves it
        # exactly indifferent
        paid = (f_sup & (cols >= 1) & (cols < wmax[:, None])).any(axis=1)
        old, now = prev_w[entries, wmax], x_w[entries, wmax]
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
        self.violations += [(name, int(ids[r]), int(steps[r]), detail) for r, _, name, detail in hits]


class _FloatArithmetic:
    """The kernel's float arithmetic on entries-major stacks, updated in place.

    A stack of k runs over n entries is a C-ordered ``(n, k)`` array, one run
    per column, so every reduction, scan and broadcast along the entries runs
    across the rows at once; :meth:`values` gives its ``(k, n)`` rows as a
    ``.T`` view.  Running offsets and rates are ``(k,)`` rows.
    """

    dtype = float

    def __init__(self, cfg: LearnerConfig):
        self.game, self.threshold = cfg.game, cfg.threshold
        self._update = {agent: _updater(cfg, agent) for agent in (FIRM, WORKER)}

    def feedback(self, agent: str, opponent: np.ndarray, actions=None) -> np.ndarray:
        """One feedback column per opponent column; ``actions`` are padded runs' grids, as rows."""
        if isinstance(self.game, UltimatumGame):
            return games.ultimatum_feedback(agent, opponent.T, self.game.grid, actions).T
        return games.two_round_feedback(agent, opponent.T, self.game).T

    @staticmethod
    def stack(x) -> np.ndarray:
        """``(k, n)`` rows as an entries-major ``(n, k)`` stack."""
        return np.array(np.asarray(x, dtype=float).T, order="C")

    @staticmethod
    def take(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The runs a mask or an index array picks."""
        return x[:, rows]

    @staticmethod
    def rates(eta: list) -> np.ndarray:
        """Per-run learning rates as a ``(k,)`` row."""
        return np.array([float(e) for e in eta])

    @staticmethod
    def zeros(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Zero cumulative utilities and zero running offsets (a row)."""
        return np.zeros(x.shape), np.zeros(x.shape[1])

    @staticmethod
    def accumulate(U: np.ndarray, off: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``U + fb`` shifted by each run's max, which moves into the offsets ``off``."""
        U += fb
        shift = U.max(axis=0)
        U -= shift
        off += shift
        return U, off

    def update(self, agent: str, U: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._update[agent](U, eta)

    def still(self, x: tuple, new: tuple) -> np.ndarray:
        """Runs whose step moved no entry of either agent by more than the threshold."""
        moved = np.maximum(abs(new[0] - x[0]).max(axis=0), abs(new[1] - x[1]).max(axis=0))
        return moved <= self.threshold

    @staticmethod
    def values(x: np.ndarray) -> np.ndarray:
        """The runs as ``(k, n)`` rows: a view."""
        return x.T

    @staticmethod
    def cumulative(U: np.ndarray, off: np.ndarray) -> np.ndarray:
        return (U + off).T


@dataclass(frozen=True)
class _Ratios:
    """Exact rows: ``num[i]`` (Python ints) over the positive denominator ``den[i]``."""

    num: list[list[int]]
    den: list[int]

    def __getitem__(self, rows: np.ndarray) -> "_Ratios":
        """The rows a mask or an index array picks."""
        picked = np.arange(len(self.den))[rows].tolist()
        return _Ratios([self.num[i] for i in picked], [self.den[i] for i in picked])

    def __len__(self) -> int:
        return len(self.den)


class _ExactArithmetic:
    """The kernel's exact arithmetic on :class:`_Ratios` stacks (one-shot game).

    Each step reduces every row once per vector by ``math.gcd``.  The
    running offsets are numerators over their row's utility denominator, in
    an object array.  ``Fraction``s are built only for rows that retire, for
    the certificate guard's candidate rows and for the ``on_step`` hook.
    """

    dtype = object

    def __init__(self, cfg: LearnerConfig):
        self.grid, self.threshold = cfg.grid, Fraction(cfg.threshold)
        self.refs = {agent: None if ref is None else self.grid.index_of(ref)
                     for agent, ref in ((FIRM, cfg.reference_f), (WORKER, cfg.reference_w))}

    @staticmethod
    def stack(x) -> _Ratios:
        """A stack of rationals (``Fraction``s, ints or floats) as integer rows."""
        rows = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=object).tolist()]
        den = [math.lcm(*(f.denominator for f in row)) for row in rows]
        return _Ratios([[f.numerator * (d // f.denominator) for f in row]
                        for row, d in zip(rows, den)], den)

    @staticmethod
    def take(x: _Ratios, rows: np.ndarray) -> _Ratios:
        """The rows a mask or an index array picks."""
        return x[rows]

    @staticmethod
    def rates(eta: list) -> np.ndarray:
        """Per-row learning rates as an object array of ``Fraction``s of Python ints.

        ``Fraction(np.int64(2))`` keeps a numpy numerator, which would overflow
        in the kernel's integer products.
        """
        fracs = [Fraction(e) for e in eta]
        return np.array([Fraction(int(f.numerator), int(f.denominator)) for f in fracs],
                        dtype=object)

    @staticmethod
    def zeros(x: _Ratios) -> tuple[_Ratios, np.ndarray]:
        """Zero cumulative utilities and zero offset numerators."""
        return (_Ratios([[0] * len(row) for row in x.num], [1] * len(x)),
                np.zeros(len(x), dtype=object))

    def feedback(self, agent: str, opponent: _Ratios, actions=None) -> _Ratios:
        """One feedback row per opponent row; ``actions`` is None, as exact stacks never mix grids."""
        return _Ratios(*games.ultimatum_feedback_exact(agent, opponent.num, opponent.den,
                                                       self.grid))

    @staticmethod
    def accumulate(U: _Ratios, off: np.ndarray, fb: _Ratios) -> tuple[_Ratios, np.ndarray]:
        """``U + fb`` on the lcm of their denominators, shifted by its integer row max.

        The shift moves into the offset numerators ``off``, which share the
        row's denominator and its reduction.
        """
        nums, dens, offs = [], [], []
        for u_row, u_den, o, f_row, f_den in zip(U.num, U.den, off.tolist(), fb.num, fb.den):
            den = math.lcm(u_den, f_den)
            a, b = den // u_den, den // f_den
            row = [u * a + f * b for u, f in zip(u_row, f_row)]
            top = max(row)
            row = [v - top for v in row]
            o = o * a + top
            g = math.gcd(*row, o, den)
            if g > 1:
                row, o, den = [v // g for v in row], o // g, den // g
            nums.append(row)
            dens.append(den)
            offs.append(o)
        return _Ratios(nums, dens), np.array(offs, dtype=object)

    def update(self, agent: str, U: _Ratios, eta: np.ndarray) -> tuple[_Ratios, _Ratios]:
        """Project ``reference + eta * U``, numerators over ``eta``'s denominator times ``U``'s.

        ``eta`` holds each row's rate.
        """
        ref, eta = self.refs[agent], eta.tolist()
        v = _Ratios([[e.numerator * u for u in row] for row, e in zip(U.num, eta)],
                    [e.denominator * d for d, e in zip(U.den, eta)])
        if ref is not None:
            for row, den in zip(v.num, v.den):
                row[ref] += den
        return v, _reduced(*geometry.project_simplex_exact(v.num, v.den))

    def still(self, x: tuple, new: tuple) -> np.ndarray:
        """Rows whose step moved no entry by more than the threshold, cross-multiplied."""
        a, b = self.threshold.numerator, self.threshold.denominator

        def small(old: _Ratios, now: _Ratios) -> np.ndarray:
            return np.array([
                max([abs(u * d - w * e) for u, w in zip(row, old_row)]) * b <= a * d * e
                for row, e, old_row, d in zip(now.num, now.den, old.num, old.den)])

        return small(x[0], new[0]) & small(x[1], new[1])

    @staticmethod
    def values(x: _Ratios) -> np.ndarray:
        """The rows as an object array of ``Fraction``s."""
        return np.array([[Fraction(u, d) for u in row] for row, d in zip(x.num, x.den)],
                        dtype=object)

    @staticmethod
    def cumulative(U: _Ratios, off: np.ndarray) -> np.ndarray:
        return np.array([[Fraction(u + o, d) for u in row]
                         for row, o, d in zip(U.num, off.tolist(), U.den)], dtype=object)


def _reduced(nums: list[list[int]], dens: list[int]) -> _Ratios:
    """Each row divided by the gcd of its numerators and its denominator."""
    out, scale = [], []
    for row, den in zip(nums, dens):
        g = math.gcd(*row, den)
        out.append([v // g for v in row] if g > 1 else row)
        scale.append(den // g)
    return _Ratios(out, scale)


def _arithmetic(cfg: LearnerConfig) -> Union[_FloatArithmetic, _ExactArithmetic]:
    """The kernel's arithmetic for the run's ``arithmetic`` mode."""
    return _ExactArithmetic(cfg) if cfg.arithmetic == "exact" else _FloatArithmetic(cfg)


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


def _regrets(arith, history: list) -> tuple[list, list]:
    """Each agent's cumulative regret after each step, against the best fixed action.

    Step ``t`` plays ``history[t - 2]`` against the feedback of the opponent's
    row there: regret is the best action's cumulative feedback minus the
    cumulative realized utility, in the run's arithmetic.
    """
    if len(history) < 2:
        return [], []
    played = [np.array([step[i] for step in history[:-1]]) for i in (0, 1)]
    out = []
    for agent, x, opponent in ((FIRM, *played), (WORKER, *played[::-1])):
        fb = np.ascontiguousarray(arith.values(arith.feedback(agent, arith.stack(opponent))))
        out.append((fb.cumsum(axis=0).max(axis=1) - (x * fb).sum(axis=1).cumsum()).tolist())
    return tuple(out)


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
    The initial strategies are checked here; ``monitors`` goes to the
    kernel, which accepts it on float one-shot runs only and raises
    ``ValueError`` on any other run.
    """
    one_shot = isinstance(cfg.game, UltimatumGame)
    arith = _arithmetic(cfg)
    x_f, x_w = (arith.values(arith.stack(np.asarray(x)[None]))[0] for x in (init_f, init_w))
    _check_initial(cfg, x_f, x_w)
    history = [(x_f.copy(), x_w.copy())] if keep_history else None

    def on_step(t, v, new):
        history.append((new[0][0].copy(), new[1][0].copy()))

    run = run_lockstep(cfg, x_f[None], x_w[None], on_step if keep_history else None,
                       monitors=monitors)
    regret = _regrets(arith, history) if keep_history and one_shot else None
    return replace(run.trajectory(0, cfg.steps_cap), history=history,
                   regret_f=regret[0] if regret else None,
                   regret_w=regret[1] if regret else None)


def _mixed_widths(cfg: LearnerConfig, init_f, init_w, on_step) -> Optional[np.ndarray]:
    """Each row's length when a stack's rows differ in length, else None.

    Raises ``ValueError`` where mixed grid sizes do not apply, and
    ``StructuralError`` for a row the config's grid cannot hold.
    """
    widths = [len(row) for row in init_f]
    if len(set(widths)) <= 1 and len({len(row) for row in init_w}) <= 1:
        return None
    if not (isinstance(cfg.game, UltimatumGame) and cfg.arithmetic == "float"):
        raise ValueError("mixed grid sizes apply to float one-shot runs only")
    if cfg.reference_f is not None or cfg.reference_w is not None or on_step is not None:
        raise ValueError("mixed grid sizes take no reference and no on_step hook")
    if widths != [len(row) for row in init_w]:
        raise StructuralError("a row's firm and worker strategies differ in length")
    if min(widths) < 3 or max(widths) > cfg.grid.size:
        raise StructuralError(f"row lengths must lie in [3, {cfg.grid.size}], got {widths}")
    return np.array(widths)


def _padded(rows, pad: np.ndarray) -> np.ndarray:
    """The rows as one float stack, 0 where ``pad`` marks an entry past a row's end."""
    out = np.zeros(pad.shape)
    out[~pad] = np.concatenate([np.asarray(row, dtype=float) for row in rows])
    return out


def run_lockstep(cfg: LearnerConfig, init_f, init_w,
                 on_step=None, eta=None, monitors=None) -> Lockstep:
    """Self-play of a stack of runs, one row of ``init_f``/``init_w`` each.

    All rows step together through one feedback, shift, update and projection
    per agent on the whole stack; every row does exactly the arithmetic it
    would do alone.  Exact runs hold integer numerators over one denominator
    per row (:class:`_ExactArithmetic`) and report ``Fraction``s.  A row
    whose step moves no entry by more than the threshold and that passes the
    certificate guard (one stacked certificate per step over all such rows)
    leaves the stack; the rest run to the step cap.  A stack of zero rows
    returns an empty :class:`Lockstep` before the first step.  A float stack
    holding NaN or ±inf raises ``ValueError`` naming the first such row
    before the first step; initial strategies are not otherwise checked here.
    ``eta`` gives each row its own learning rate (``cfg.eta`` for every row by
    default), checked by ``LearnerConfig``'s rule; float runs multiply by a
    ``(k,)`` row of rates and exact rows by their own ``Fraction``, so a row
    runs bit for bit as it would alone at its rate.
    A float one-shot stack may mix grid sizes: a row of d + 1 entries runs on
    ``ActionGrid(d)``, and ``cfg`` carries a grid at least as wide as every
    row.  Narrower rows are padded to that grid with inert entries: strategy
    mass 0, action 1.0 (so both feedbacks are 0 there) and cumulative utility
    ``PAD_UTILITY`` over the row's rate where that exceeds 1, which never
    becomes a row max and projects to 0.  The projection only sorts,
    cumsums, takes and clips, so a row's own entries get bit for bit its own
    grid's arithmetic; the certificate guard checks
    the rows of each width, trimmed, on their own game, and
    :meth:`Lockstep.trajectory` trims each row back.  Mixed grid sizes raise
    ``ValueError`` on exact and two-round runs, with a reference and with
    ``on_step``; a stack whose rows all have one length runs unpadded.
    ``monitors`` is one :class:`MonitorSuite` for the whole stack (float
    one-shot runs only; ``ValueError`` otherwise).  Each step the kernel hands
    it the live rows' indices with their previous strategies, projection
    inputs and new strategies, padded as the kernel holds them, and after the
    loop it checks the suite's remaining row-steps.
    ``on_step(t, v, new)`` sees each step ``t = 2, 3, ...`` of the live rows:
    the (firm, worker) pairs of stacks of projection inputs and of new
    strategies.
    """
    k = len(init_f)
    eta = [cfg.eta] * k if eta is None else list(eta)
    if len(eta) != k:
        raise ValueError(f"{len(eta)} learning rates for a stack of {k} rows")
    for e in eta:
        _check_eta(e, cfg.arithmetic == "exact")
    if monitors is not None:
        if not (isinstance(cfg.game, UltimatumGame) and cfg.arithmetic == "float"):
            raise ValueError("monitors apply to float one-shot runs only")
    widths = _mixed_widths(cfg, init_f, init_w, on_step)
    actions = None
    if widths is not None:
        pad = np.arange(cfg.grid.size) >= widths[:, None]
        init_f, init_w = _padded(init_f, pad), _padded(init_w, pad)
        actions = np.where(pad, 1.0, np.arange(cfg.grid.size) / (widths - 1)[:, None])
    arith = _arithmetic(cfg)
    value, take = arith.values, arith.take
    x_f, x_w = arith.stack(init_f), arith.stack(init_w)
    if arith.dtype is float:
        for agent, x in ((FIRM, x_f), (WORKER, x_w)):
            bad = np.flatnonzero(~np.isfinite(value(x)).all(axis=1))
            if bad.size:
                raise ValueError(f"initial {agent} row {bad[0]} is not finite")
    out = Lockstep(np.zeros(k, dtype=np.int64),
                   *(np.empty(np.shape(x), dtype=arith.dtype) for x in (init_f, init_w) * 2),
                   widths=widths)
    rows = np.arange(k)
    eta = arith.rates(eta)
    (U_f, off_f), (U_w, off_w) = arith.zeros(x_f), arith.zeros(x_w)
    if widths is not None:
        for U in (U_f, U_w):
            np.copyto(U, PAD_UTILITY / np.maximum(eta, 1.0), where=pad.T)

    def retire(mask):
        # C-ordered row copies: each output row holds its run's entries
        if not mask.any():
            return
        out.final_f[rows[mask]] = value(take(x_f, mask))
        out.final_w[rows[mask]] = value(take(x_w, mask))
        out.cum_util_f[rows[mask]] = arith.cumulative(take(U_f, mask), off_f[mask])
        out.cum_util_w[rows[mask]] = arith.cumulative(take(U_w, mask), off_w[mask])

    for t in range(2, cfg.steps_cap + 1):
        if rows.size == 0:      # every row retired, or the stack was empty
            break
        fb_f = arith.feedback(FIRM, x_w, actions)
        fb_w = arith.feedback(WORKER, x_f, actions)
        U_f, off_f = arith.accumulate(U_f, off_f, fb_f)
        U_w, off_w = arith.accumulate(U_w, off_w, fb_w)
        v_f, new_f = arith.update(FIRM, U_f, eta)
        v_w, new_w = arith.update(WORKER, U_w, eta)
        still = arith.still((x_f, x_w), (new_f, new_w))
        if on_step is not None:
            on_step(t, (value(v_f), value(v_w)), (value(new_f), value(new_w)))
        if monitors is not None:
            monitors._record(t, rows, (value(x_f), value(x_w)), (value(v_f), value(v_w)),
                             (value(new_f), value(new_w)))
        x_f, x_w = new_f, new_w
        if not still.any():
            continue
        stopped = np.flatnonzero(still)
        stopped = stopped[_certified_rows(cfg, value(take(x_f, stopped)), value(take(x_w, stopped)),
                                          None if widths is None else widths[rows[stopped]])]
        if stopped.size:
            done = np.zeros(rows.size, dtype=bool)
            done[stopped] = True
            out.converged_at[rows[done]] = t
            retire(done)
            live = ~done
            rows, off_f, off_w, eta = (a[live] for a in (rows, off_f, off_w, eta))
            x_f, x_w, U_f, U_w = (take(a, live) for a in (x_f, x_w, U_f, U_w))
            if actions is not None:
                actions = actions[live]
    retire(np.ones(rows.size, dtype=bool))
    if monitors is not None:
        monitors._check()
    return out
