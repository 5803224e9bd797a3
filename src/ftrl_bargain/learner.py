"""Two-agent FTRL dynamics with last-iterate convergence detection.

Both agents accumulate full-feedback expected-utility vectors and apply the
Euclidean-regularized update (a nearest-point projection of
``reference + eta * cumulative_utility``) simultaneously each step.  The
float path shifts each cumulative vector by its running maximum every step
into an explicit offset, which restores true values; the projection is
translation invariant, so iterates are unchanged while its input stays well
conditioned.  Exact rows need no shift.

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
observers: :func:`regret` computes a one-shot run's regret on request from its
history, by one rule in both arithmetics.

The kernel calls one observer per step with the live rows' previous
strategies, projection inputs and new strategies: :func:`run_dynamics` keeps
a history through one, and a :class:`MonitorSuite`, which checks the
structural laws on blocks of ``BLOCK`` row-steps at once, is one.

The float kernel holds its state entries-major, also after rows retire: a
stack of k runs over n entries is a C-ordered ``(n, k)`` array, one run per
column, so each reduction, scan and broadcast over a vector's entries runs
across all the runs at once; cumulative utilities carry their running-max
offsets as one more, last row.  The layers (feedback, normalization,
projection) and the certificate guard get the state's ``(k, n)`` ``.T`` views
(``tests/test_layout.py::test_certificate`` pins the guard's bits on both
layouts); the monitors and the results get C-ordered row copies.
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

    def reference_index(self, agent: str) -> Optional[int]:
        """The grid index of the agent's pure reference, or None for the zero reference."""
        ref = self.reference_f if agent == FIRM else self.reference_w
        return None if ref is None else self.grid.index_of(ref)


@dataclass
class Trajectory:
    """History and endpoint of one run; ``converged_at`` unset means the cap hit.

    Both games and both arithmetics fill the same fields with the same
    shapes; exact runs hold ``Fraction``s (object arrays).  A one-shot
    run's regret is computed on request from ``history`` by :func:`regret`.
    """

    converged_at: Optional[int]
    steps: int
    final_f: np.ndarray
    final_w: np.ndarray
    cum_util_f: np.ndarray
    cum_util_w: np.ndarray
    history: Optional[list[tuple[np.ndarray, np.ndarray]]] = None

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
    if widths is None:
        gap_f, gap_w, _, _ = analysis._gap_rows(cfg.game, x_f, x_w)
        return np.maximum(gap_f, gap_w) <= STOP_EPS
    ok = np.empty(len(widths), dtype=bool)
    for w in np.unique(widths).tolist():
        pick = widths == w
        gap_f, gap_w, _, _ = analysis._gap_rows(UltimatumGame(ActionGrid(w - 1)), x_f[pick, :w], x_w[pick, :w])
        ok[pick] = np.maximum(gap_f, gap_w) <= STOP_EPS
    return ok


# Unused by the package; kept because perfbench/tracer.py wraps it by name.
def _certified_stop(cfg: LearnerConfig, x_f, x_w) -> bool:
    """The guard on one profile."""
    x_f, x_w = (np.asarray(v, dtype=float)[None] for v in (x_f, x_w))
    return bool(_certified_rows(cfg, x_f, x_w)[0])


class MonitorSuite:
    """Runtime checks of the one-shot game's structural laws, on blocks of row-steps.

    Armed by the audit: worker vectors stay sorted, firm vectors stay unimodal,
    the top worker threshold never gains support, stationarity when the firm
    offers at or above it, strict decay otherwise, plus the projection
    identities (mass differences track input differences on the support, and
    output order follows input order).

    A suite is a :func:`run_lockstep` observer of float one-shot runs on
    ``cfg``'s grid; another config, or rows not ``cfg.grid.size`` wide, raise
    ``ValueError``.  It copies each step, and every ``BLOCK`` row-steps and
    before ``violations`` is read it checks the copies as ``(N, n)`` stacks in
    which each entry carries its own previous row.
    ``violations`` lists ``(monitor, row, step, detail)`` in step order, within
    a step in row order, and within a row in check order: firm then worker
    projection identities, the two shape laws, then the transition laws.  It
    accumulates across runs.
    """

    def __init__(self, cfg: LearnerConfig):
        if not (isinstance(cfg.game, UltimatumGame) and cfg.arithmetic == "float"):
            raise ValueError("monitors apply to float one-shot runs only")
        self._width = cfg.grid.size
        self._violations: list[tuple[str, int, int, str]] = []
        self._buffer: list = []
        self._pending = 0

    @property
    def violations(self) -> list[tuple[str, int, int, str]]:
        self._check()
        return self._violations

    def __call__(self, t: int, rows: np.ndarray, x, v, new) -> None:
        """Buffer step ``t`` of the live ``rows``: (firm, worker) pairs of ``(k, n)`` stacks.

        The stacks may be views of any memory order; the buffer holds C-ordered copies.
        """
        widths = (x[0].shape[1], x[1].shape[1])
        if widths != (self._width,) * 2:
            raise ValueError(f"monitors check rows of {self._width} entries, got {widths}")
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
        self._violations += [(name, int(ids[r]), int(steps[r]), detail) for r, _, name, detail in hits]


class _FloatArithmetic:
    """The kernel's float arithmetic on entries-major stacks, updated in place.

    A stack of k runs over n entries is a C-ordered ``(n, k)`` array, one run
    per column, so every reduction, scan and broadcast along the entries runs
    across the rows at once; :meth:`values` gives its ``(k, n)`` rows as a
    ``.T`` view.  Rates are a ``(k,)`` row.  Cumulative utilities are one
    C-ordered ``(n + 1, k)`` stack: the first n rows shifted by each run's
    running max, and the last row the offsets that restore them.
    """

    dtype = float

    def __init__(self, cfg: LearnerConfig):
        self.game, self.threshold = cfg.game, cfg.threshold
        self.refs = {agent: cfg.reference_index(agent) for agent in (FIRM, WORKER)}
        if isinstance(cfg.game, TwoRoundGame):
            self.projectors = {agent: geometry.TreeplexProjector(games.build_treeplex(cfg.game, agent))
                               for agent in (FIRM, WORKER)}

    def check(self, agent: str, x: np.ndarray) -> None:
        """Refuse the first initial row that is not finite, then the first off its polytope."""
        finite = np.isfinite(x).all(axis=0)
        if not finite.all():
            raise ValueError(f"initial {agent} row {np.argmin(finite)} is not finite")
        if isinstance(self.game, UltimatumGame):
            ok = geometry.check_simplex(x.T) & (len(x) == self.game.grid.size)
        else:
            ok = geometry.validate_plan(x.T, games.build_treeplex(self.game, agent))
        if not ok.all():
            raise StructuralError(f"initial {agent} row {np.argmin(ok)} is not on its polytope")

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
        """The runs a mask picks, as a C-ordered stack (``x[:, rows]`` would be F-ordered)."""
        return x.compress(rows, axis=1)

    @staticmethod
    def rates(eta: list) -> np.ndarray:
        """Per-run learning rates as a ``(k,)`` row."""
        return np.array([float(e) for e in eta])

    @staticmethod
    def zeros(x: np.ndarray) -> np.ndarray:
        """Zero cumulative utilities over a zero offset row."""
        return np.zeros((x.shape[0] + 1, x.shape[1]))

    @staticmethod
    def accumulate(cum: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """``U + fb`` shifted by each run's max, which moves into the offset row."""
        U = cum[:-1]
        U += fb
        shift = U.max(axis=0)
        U -= shift
        cum[-1] += shift
        return cum

    def update(self, agent: str, cum: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project ``reference + eta * U`` (offsets aside): the projection input and strategy.

        ``eta`` is one rate or a ``(k,)`` row of per-run rates: the same IEEE products.
        """
        if isinstance(self.game, UltimatumGame):
            v = eta * cum[:-1]
            if self.refs[agent] is not None:
                v[self.refs[agent]] += 1.0
            return v, _project_simplex(v.T).T
        projector = self.projectors[agent]
        v = eta * projector.treeplex.normalize_backward(cum[:-1].T).T
        return v, projector.project(v.T).T

    def still(self, x: tuple, new: tuple) -> np.ndarray:
        """Runs whose step moved no entry of either agent by more than the threshold."""
        moved = np.maximum(abs(new[0] - x[0]).max(axis=0), abs(new[1] - x[1]).max(axis=0))
        return moved <= self.threshold

    @staticmethod
    def values(x: np.ndarray) -> np.ndarray:
        """The runs as ``(k, n)`` rows: a view."""
        return x.T

    @staticmethod
    def cumulative(cum: np.ndarray) -> np.ndarray:
        return (cum[:-1] + cum[-1]).T


@dataclass(frozen=True)
class _Ratios:
    """Exact rows: ``num[i]`` (Python ints) over the positive denominator ``den[i]``."""

    num: list[list[int]]
    den: list[int]

    def __getitem__(self, rows: np.ndarray) -> "_Ratios":
        """The rows a mask picks."""
        picked = np.flatnonzero(rows).tolist()
        return _Ratios([self.num[i] for i in picked], [self.den[i] for i in picked])


class _ExactArithmetic:
    """The kernel's exact arithmetic on :class:`_Ratios` stacks (one-shot game).

    Each step reduces every row once per vector by ``math.gcd``.  Rows hold
    their true cumulative utilities, with no offsets: no translation changes an
    exact projection.  ``Fraction``s are built only for rows that retire, for
    the certificate guard's candidate rows and for the observer.
    """

    dtype = object

    def __init__(self, cfg: LearnerConfig):
        self.grid, self.threshold = cfg.grid, Fraction(cfg.threshold)
        self.refs = {agent: cfg.reference_index(agent) for agent in (FIRM, WORKER)}

    @staticmethod
    def stack(x) -> _Ratios:
        """A stack of rationals (``Fraction``s, ints or floats) as integer rows."""
        rows = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=object).tolist()]
        den = [math.lcm(*(f.denominator for f in row)) for row in rows]
        return _Ratios([[f.numerator * (d // f.denominator) for f in row]
                        for row, d in zip(rows, den)], den)

    take = staticmethod(_Ratios.__getitem__)     # the rows a mask picks

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
    def zeros(x: _Ratios) -> _Ratios:
        """Zero cumulative utilities."""
        return _Ratios([[0] * len(row) for row in x.num], [1] * len(x.den))

    def check(self, agent: str, x: _Ratios) -> None:
        """Refuse the first initial row that is not an exact point of the grid's simplex."""
        ok = [len(row) == self.grid.size and min(row) >= 0 and sum(row) == d
              for row, d in zip(x.num, x.den)]
        if not all(ok):
            raise StructuralError(f"initial {agent} row {ok.index(False)} is not an exact simplex point")

    def feedback(self, agent: str, opponent: _Ratios, actions=None) -> _Ratios:
        """One feedback row per opponent row; ``actions`` is None, as exact stacks never mix grids."""
        return _Ratios(*games.ultimatum_feedback_exact(agent, opponent.num, opponent.den,
                                                       self.grid))

    @staticmethod
    def accumulate(U: _Ratios, fb: _Ratios) -> _Ratios:
        """``U + fb`` on the lcm of their denominators, each row reduced by its gcd."""
        nums, dens = [], []
        for u_row, u_den, f_row, f_den in zip(U.num, U.den, fb.num, fb.den):
            den = math.lcm(u_den, f_den)
            a, b = den // u_den, den // f_den
            row = [u * a + f * b for u, f in zip(u_row, f_row)]
            g = math.gcd(*row, den)
            if g > 1:
                row, den = [v // g for v in row], den // g
            nums.append(row)
            dens.append(den)
        return _Ratios(nums, dens)

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

    cumulative = values     # the rows hold their true cumulative utilities


def _reduced(nums: list[list[int]], dens: list[int]) -> _Ratios:
    """Each row divided by the gcd of its numerators and its denominator."""
    out, scale = [], []
    for row, den in zip(nums, dens):
        g = math.gcd(*row, den)
        out.append([v // g for v in row] if g > 1 else row)
        scale.append(den // g)
    return _Ratios(out, scale)


class _Pair:
    """An observer's (firm, worker) pair of stacks, each made by ``value`` when first read."""

    def __init__(self, value, *stacks):
        self._value, self._stacks, self._read = value, stacks, {}

    def __getitem__(self, agent: int) -> np.ndarray:
        if agent not in self._read:
            self._read[agent] = self._value(self._stacks[agent])
        return self._read[agent]


def _arithmetic(cfg: LearnerConfig) -> Union[_FloatArithmetic, _ExactArithmetic]:
    """The kernel's arithmetic for the run's ``arithmetic`` mode."""
    return _ExactArithmetic(cfg) if cfg.arithmetic == "exact" else _FloatArithmetic(cfg)


def regret(cfg: LearnerConfig, history: list) -> tuple[list, list]:
    """Each agent's cumulative regret after each step of a one-shot run's ``history``.

    Regret is against the best fixed action in hindsight: step ``t`` plays
    ``history[t - 2]`` against the feedback of the opponent's row there, and
    regret is the best action's cumulative feedback minus the cumulative
    realized utility, in the run's arithmetic (``Fraction``s when exact).
    Returns ``(firm, worker)`` lists of ``len(history) - 1`` entries.  A
    two-round config raises ``ValueError``.
    """
    if not isinstance(cfg.game, UltimatumGame):
        raise ValueError("regret applies to one-shot runs only")
    if len(history) < 2:
        return [], []
    arith = _arithmetic(cfg)
    played = [np.array([step[i] for step in history[:-1]]) for i in (0, 1)]
    out = []
    for agent, x, opponent in ((FIRM, *played), (WORKER, *played[::-1])):
        fb = np.ascontiguousarray(arith.values(arith.feedback(agent, arith.stack(opponent))))
        out.append((fb.cumsum(axis=0).max(axis=1) - (x * fb).sum(axis=1).cumsum()).tolist())
    return tuple(out)


def run_dynamics(cfg: LearnerConfig, init_f, init_w, keep_history: bool = False) -> Trajectory:
    """Simultaneous FTRL self-play until convergence or the step cap.

    Non-convergence is reported through an unset ``converged_at``, never an
    exception.  Identical inputs produce bitwise-identical trajectories.
    The run is a one-row :func:`run_lockstep` stack, which checks the
    initial strategies; an observer keeps its history.  To monitor a run,
    call :func:`run_lockstep` with a :class:`MonitorSuite`.
    """
    history = []

    def observe(t, rows, x, v, new):
        history.append((x[0][0].copy(), x[1][0].copy()))

    run = run_lockstep(cfg, [init_f], [init_w], observe if keep_history else None)
    traj = run.trajectory(0, cfg.steps_cap)
    return replace(traj, history=history + [(traj.final_f, traj.final_w)] if keep_history else None)


def _mixed_widths(cfg: LearnerConfig, init_f, init_w) -> Optional[np.ndarray]:
    """Each row's length when a stack's rows differ in length, else None.

    Raises ``ValueError`` where mixed grid sizes do not apply, and
    ``StructuralError`` naming the first row the config's grid cannot hold.
    """
    widths = [len(row) for row in init_f]
    if len(set(widths)) <= 1 and len({len(row) for row in init_w}) <= 1:
        return None
    if not (isinstance(cfg.game, UltimatumGame) and cfg.arithmetic == "float"):
        raise ValueError("mixed grid sizes apply to float one-shot runs only")
    if cfg.reference_f is not None or cfg.reference_w is not None:
        raise ValueError("mixed grid sizes take no reference")
    for i, (n_f, n_w) in enumerate(zip(widths, map(len, init_w))):
        if n_f != n_w or not 3 <= n_f <= cfg.grid.size:
            raise StructuralError(f"initial row {i} has {n_f} firm and {n_w} worker entries; "
                                  f"both must be one length in [3, {cfg.grid.size}]")
    return np.array(widths)


def _padded(rows, pad: np.ndarray) -> np.ndarray:
    """The rows as one float stack, 0 where ``pad`` marks an entry past a row's end."""
    out = np.zeros(pad.shape)
    out[~pad] = np.concatenate([np.asarray(row, dtype=float) for row in rows])
    return out


def run_lockstep(cfg: LearnerConfig, init_f, init_w, observe=None, eta=None) -> Lockstep:
    """Self-play of a stack of runs, one row of ``init_f``/``init_w`` each.

    All rows step together through one feedback, accumulation, update and
    projection per agent on the whole stack; every row does exactly the arithmetic
    it would do alone.  Exact runs hold integer numerators over one denominator
    per row (:class:`_ExactArithmetic`) and report ``Fraction``s.  A row
    whose step moves no entry by more than the threshold and that passes the
    certificate guard (one stacked certificate per step over all such rows)
    leaves the stack; the rest run to the step cap.  A stack of zero rows
    returns an empty :class:`Lockstep` before the first step.  Before it,
    stacks of unequal row counts raise ``ValueError``; then the first float
    row holding NaN or ±inf raises ``ValueError``, then the first row off its
    polytope ``StructuralError``, each naming its agent and row.
    ``eta`` gives each row its own learning rate (``cfg.eta`` for every row by
    default), checked by ``LearnerConfig``'s rule; float runs multiply by a
    ``(k,)`` row of rates and exact rows by their own ``Fraction``, so a row
    runs bit for bit as it would alone at its rate.
    A float one-shot stack may mix grid sizes: a row of d + 1 entries runs on
    ``ActionGrid(d)``, and ``cfg`` carries a grid at least as wide as every
    row.  Narrower rows are padded to that grid with inert entries: strategy
    mass 0, action 1.0 (so both feedbacks are 0 there) and shifted cumulative
    utility ``PAD_UTILITY`` over the row's rate where that exceeds 1 (the
    offset row is not padded), which never becomes a row max and projects to
    0.  The projection only sorts, cumsums, takes and clips, so a row's own
    entries get bit for bit its own grid's arithmetic; the certificate guard
    checks the rows of each width, trimmed, on their own game, and
    :meth:`Lockstep.trajectory` trims each row back.  Mixed grid sizes raise
    ``ValueError`` on exact and two-round runs and with a reference; a stack
    whose rows all have one length runs unpadded.
    ``observe(t, rows, x, v, new)`` is called at each step ``t = 2, 3, ...``
    with the live rows' indices into the stack, in row order, and the
    (firm, worker) pairs (indexed 0 and 1) of ``(k, n)`` stacks of their
    previous strategies, projection inputs and new strategies, padded as the
    kernel holds them.  Float projection inputs take cumulative utilities
    shifted by their running max, exact ones the true sums.  Float stacks are
    views of the kernel's state and exact ones ``Fraction`` arrays, made when
    first read; an observer must not write to them, and copies what it keeps.
    A :class:`MonitorSuite` is one observer; an empty stack calls none.
    """
    k = len(init_f)
    if len(init_w) != k:
        raise ValueError(f"a stack of {k} firm rows and {len(init_w)} worker rows")
    eta = [cfg.eta] * k if eta is None else list(eta)
    if len(eta) != k:
        raise ValueError(f"{len(eta)} learning rates for a stack of {k} rows")
    for e in eta:
        _check_eta(e, cfg.arithmetic == "exact")
    widths = _mixed_widths(cfg, init_f, init_w)
    actions = None
    if widths is not None:
        pad = np.arange(cfg.grid.size) >= widths[:, None]
        init_f, init_w = _padded(init_f, pad), _padded(init_w, pad)
        actions = np.where(pad, 1.0, np.arange(cfg.grid.size) / (widths - 1)[:, None])
    arith = _arithmetic(cfg)
    value, take = arith.values, arith.take
    x_f, x_w = arith.stack(init_f), arith.stack(init_w)
    for agent, x in ((FIRM, x_f), (WORKER, x_w)):
        arith.check(agent, x)
    out = Lockstep(np.zeros(k, dtype=np.int64),
                   *(np.empty(np.shape(x), dtype=arith.dtype) for x in (init_f, init_w) * 2),
                   widths=widths)
    rows = np.arange(k)
    shown = None    # the observer's previous strategies: its last call's new ones
    eta = arith.rates(eta)
    U_f, U_w = arith.zeros(x_f), arith.zeros(x_w)
    if widths is not None:      # float: fill the pads above each stack's offset row
        for U in (U_f, U_w):
            np.copyto(U[:-1], PAD_UTILITY / np.maximum(eta, 1.0), where=pad.T)

    def retire(mask):
        # copied into the C-ordered outputs: each output row holds its run's entries
        out.final_f[rows[mask]] = value(take(x_f, mask))
        out.final_w[rows[mask]] = value(take(x_w, mask))
        out.cum_util_f[rows[mask]] = arith.cumulative(take(U_f, mask))
        out.cum_util_w[rows[mask]] = arith.cumulative(take(U_w, mask))

    for t in range(2, cfg.steps_cap + 1):
        if rows.size == 0:      # every row retired, or the stack was empty
            break
        fb_f = arith.feedback(FIRM, x_w, actions)
        fb_w = arith.feedback(WORKER, x_f, actions)
        U_f = arith.accumulate(U_f, fb_f)
        U_w = arith.accumulate(U_w, fb_w)
        v_f, new_f = arith.update(FIRM, U_f, eta)
        v_w, new_w = arith.update(WORKER, U_w, eta)
        still = arith.still((x_f, x_w), (new_f, new_w))
        if observe is not None:
            prev, shown = shown or _Pair(value, x_f, x_w), _Pair(value, new_f, new_w)
            observe(t, rows, prev, _Pair(value, v_f, v_w), shown)
        x_f, x_w = new_f, new_w
        if not still.any():
            continue
        done = still.copy()
        done[still] = _certified_rows(cfg, value(take(x_f, still)), value(take(x_w, still)),
                                      None if widths is None else widths[rows[still]])
        if done.any():
            out.converged_at[rows[done]] = t
            retire(done)
            live = ~done
            rows, eta = rows[live], eta[live]
            x_f, x_w, U_f, U_w = (take(a, live) for a in (x_f, x_w, U_f, U_w))
            shown = None
            if actions is not None:
                actions = actions[live]
    if rows.size:
        retire(np.ones(rows.size, dtype=bool))
    return out
