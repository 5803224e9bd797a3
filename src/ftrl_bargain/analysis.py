"""Equilibrium certification, structural extraction, and the recurrence oracle.

Covers best responses and epsilon-Nash certificates for both games, the
pure-firm mixed-equilibrium inequality, the continuous-action bridge via grid
refinement, the closed-form solution of the two-variable mass recurrence with its
outcome classification, and threat detection on converged two-round profiles.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from . import games, geometry
from .games import FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame

__all__ = [
    "EquilibriumCertificate",
    "RecurrenceParams",
    "RecurrenceOutcome",
    "ThreatReport",
    "best_response_firm",
    "best_response_worker",
    "certify_epsilon_ne",
    "check_eq3",
    "continuous_br_gap",
    "recurrence_params",
    "iterate_recurrence",
    "classify_recurrence",
    "detect_threats",
]

SUPPORT_TOL = 1e-10
PURE_FIRM_TOL = 1e-7    # firm counts as pure for the structural check
THREAT_TOL = 1e-3       # default mass tolerance for threat extraction
TIE_TOL = 1e-9          # cumulative-utility gaps within this are ties for the firm's limit


# ---------------------------------------------------------------------------
# One-shot game: best responses and certificates
# ---------------------------------------------------------------------------


def best_response_firm(x_w: np.ndarray, grid: ActionGrid):
    """Best offer against a worker mixture and its value, ties broken toward lower offers.

    Row-wise on a ``(k, n)`` stack of mixtures: one offer and value per row.
    """
    values = np.cumsum(np.asarray(x_w, dtype=float), axis=-1) * (1.0 - grid.actions)
    return _best_offer(grid.actions, values)


def _best_offer(acts: np.ndarray, offer_values: np.ndarray):
    """First (lowest) offer of largest value and that value, per row."""
    return acts[offer_values.argmax(axis=-1)], offer_values.max(axis=-1)


def best_response_worker(x_f: np.ndarray, grid: ActionGrid):
    """Canonical best threshold (accept everything) and its value.

    Every threshold at or below the firm's lowest supported offer ties; the
    smallest, zero, is returned as the canonical representative.  Row-wise on
    a ``(k, n)`` stack of mixtures: one value per row, threshold zero for all.
    """
    return 0.0, np.vecdot(np.asarray(x_f, dtype=float), grid.actions)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Best-response gaps of a profile; ``eps`` is the larger of the two."""

    eps: float
    gap_f: float
    gap_w: float
    br_f: Optional[float]
    br_w: Optional[float]
    structural_ne: bool


def check_eq3(a_f: float, x_w: np.ndarray, grid: ActionGrid) -> bool:
    """Pure-firm mixed-equilibrium condition.

    True iff the top supported worker threshold equals the firm's offer and no
    lower offer is worth more against the worker's acceptance mass.
    """
    x_w = np.asarray(x_w, dtype=float)
    k = grid.index_of(a_f)
    sup = np.nonzero(x_w > SUPPORT_TOL)[0]
    if sup.size == 0 or int(sup[-1]) != k:
        return False
    cum = np.cumsum(x_w)
    lower = np.arange(k)
    return bool(np.all((1.0 - grid.actions[lower]) * cum[lower] <= (1.0 - grid.actions[k]) + 1e-12))


def _clip_gap(gap):
    """``max(0, gap)`` that keeps NaN and gives +0.0 for both zeros.

    ``np.fmax`` would turn a NaN gap into 0 and ``np.maximum`` alone can
    return -0.0; adding 0.0 maps -0.0 to +0.0 and leaves everything else as is.
    """
    return np.maximum(gap, 0.0) + 0.0


def _gap_rows(game, x_f: np.ndarray, x_w: np.ndarray):
    """Best-response gaps of a stack of profiles, one per row of ``(k, n)`` stacks.

    Returns ``(gap_f, gap_w, br_offer, u_w)`` per row: both gaps, the firm's
    best offer (ties broken toward lower offers) and the worker's payoff.
    Each row gets the arithmetic it would get alone: row dot products by
    ``np.vecdot``, sums and maxes along the last axis.  For the two-round game
    best responses enumerate pure plans by backward induction against the
    opponent's fixed plan; a best response to a fixed plan always sits at a
    vertex.  A row holding NaN gets NaN gaps.
    """
    if isinstance(game, UltimatumGame):
        fb_f = games.ultimatum_feedback(FIRM, x_w, game.grid)
        fb_w = games.ultimatum_feedback(WORKER, x_f, game.grid)
        br_offer, best_f = best_response_firm(x_w, game.grid)
        _, best_w = best_response_worker(x_f, game.grid)
    else:
        assert isinstance(game, TwoRoundGame)
        acts, delta = game.grid.actions, game.delta
        fb_f = games.two_round_feedback(FIRM, x_w, game)
        fb_w = games.two_round_feedback(WORKER, x_f, game)
        # Firm: pick the offer whose subtree value is largest; in the second
        # round accepting pays delta*b*(counter mass), rejecting pays 0.
        w_accept, w_counter = games.build_treeplex(game, WORKER).views(x_w)
        offer_values = (1.0 - acts) * w_accept + delta * (w_counter * acts).sum(axis=-1)
        br_offer, best_f = _best_offer(acts, offer_values)
        # Worker: per first offer choose accept or the best counter.
        f_offer, f_pairs = games.build_treeplex(game, FIRM).views(x_f)
        counter_values = delta * (1.0 - acts) * f_pairs[..., 0]
        best_w = np.maximum(acts * f_offer, counter_values.max(axis=-1)).sum(axis=-1)
    u_w = np.vecdot(x_w, fb_w)
    return _clip_gap(best_f - np.vecdot(x_f, fb_f)), _clip_gap(best_w - u_w), br_offer, u_w


def certify_epsilon_ne(profile, game) -> EquilibriumCertificate:
    """Max best-response gap of a strategy profile, plus the structural flag.

    The one-row case of :func:`_gap_rows`.  ``br_w`` is the one-shot worker's
    canonical best threshold (see :func:`best_response_worker`), None for the
    two-round game.
    """
    x_f, x_w = (np.asarray(v, dtype=float) for v in profile)
    gap_f, gap_w, br_f, _ = (a[0] for a in _gap_rows(game, x_f[None], x_w[None]))
    br_w, structural = None, False
    if isinstance(game, UltimatumGame):
        br_w = best_response_worker(x_f, game.grid)[0]
        top = int(np.argmax(x_f))
        if x_f[top] >= 1.0 - PURE_FIRM_TOL:
            structural = check_eq3(float(game.grid.actions[top]), x_w, game.grid)
    return EquilibriumCertificate(
        eps=np.maximum(gap_f, gap_w).item(), gap_f=gap_f.item(), gap_w=gap_w.item(),
        br_f=br_f.item(), br_w=br_w, structural_ne=structural,
    )


def continuous_br_gap(profile, grid: ActionGrid, refinement: int) -> float:
    """Best-response gap over a ``refinement``-times finer offer grid.

    The one-shot game's best responses land on opponent atoms, so refining the
    grid can never raise the gap above the coarse one.
    """
    if refinement < 1:
        raise ValueError("refinement must be a positive integer")
    x_f, x_w = (np.asarray(v, dtype=float) for v in profile)
    fine = np.arange(refinement * grid.D + 1) / (refinement * grid.D)
    # Firm over the fine grid: acceptance mass is the worker cdf at each offer.
    thresholds = grid.actions
    cdf = np.cumsum(x_w)
    idx = np.searchsorted(thresholds, fine + 1e-12) - 1
    accept_mass = np.where(idx >= 0, cdf[np.maximum(idx, 0)], 0.0)
    val_f_fine = float(np.max(accept_mass * (1.0 - fine)))
    # Worker's refined best response still accepts every supported offer.
    val_w_fine = float(x_f @ thresholds)

    fb_f = games.ultimatum_feedback(FIRM, x_w, grid)
    fb_w = games.ultimatum_feedback(WORKER, x_f, grid)
    gap_f = _clip_gap(val_f_fine - float(x_f @ fb_f))
    gap_w = _clip_gap(val_w_fine - float(x_w @ fb_w))
    return float(np.maximum(gap_f, gap_w))


# ---------------------------------------------------------------------------
# Mass recurrence: closed form and outcome classification
# ---------------------------------------------------------------------------


class RecurrenceOutcome(enum.Enum):
    DECREASES = "decreases"                  # top worker mass falls below the threshold
    EXACT_CONVERGENCE = "exact"              # firm mass reaches 1 in finite time
    ASYMPTOTIC_CONVERGENCE = "asymptotic"    # firm mass approaches 1 without reaching it


@dataclass(frozen=True)
class RecurrenceParams:
    """Coefficients of the coupled mass recurrence and its closed form.

    With s = sqrt(A*B), the n-th iterate (n >= 1) is
    ``w_n = a1w*s*(1+s)^(n-1) - a2w*s*(1-s)^(n-1) + C/B`` and the firm analogue
    with fixed point 1.  All rational fields are exact.
    """

    D: int
    eta: Fraction
    k: int
    w0: Fraction
    f0: Fraction
    A: Fraction
    B: Fraction
    C: Fraction
    c_w: Fraction
    c_f: Fraction
    alpha1_w: float
    alpha2_w: float
    alpha1_f: float
    alpha2_f: float


@functools.lru_cache(maxsize=64)
def _alphas(A: Fraction, B: Fraction, c_w: Fraction, c_f: Fraction, dps: int):
    """The four mode coefficients and s = sqrt(A*B), in ``dps``-digit arithmetic.

    Cached because one oracle draw asks for the same values in
    :func:`recurrence_params` and in every :func:`closed_form_mp` call; pass
    ``dps`` positionally so those calls share one cache entry.
    """
    with mpmath.workdps(dps):
        Am, Bm = mpmath.mpf(A.numerator) / A.denominator, mpmath.mpf(B.numerator) / B.denominator
        cw = mpmath.mpf(c_w.numerator) / c_w.denominator
        cf = mpmath.mpf(c_f.numerator) / c_f.denominator
        s = mpmath.sqrt(Am * Bm)
        a1w = (cw - cf / Bm) / 2 + (cw - Am * cf) / (2 * s)
        a2w = (cw - cf / Bm) / 2 - (cw - Am * cf) / (2 * s)
        a1f = (cw / Am - cf) / 2 + (Bm * cw - cf) / (2 * s)
        a2f = (cw / Am - cf) / 2 - (Bm * cw - cf) / (2 * s)
        return a1w, a2w, a1f, a2f, s


def recurrence_params(D: int, eta, k: int, w0, f0) -> RecurrenceParams:
    """Build the recurrence coefficients for top-threshold index ``k``.

    Requires 2 <= k <= D, 0 < eta <= 1, w0 between the dominance threshold
    1/(D-k+1) and 1, and f0 in [0, 1] (the boundary f0 = 1 is the fixed point).
    """
    if not (isinstance(D, int) and D > 2):
        raise ValueError("D must be an integer greater than 2")
    if not (2 <= k <= D):
        raise ValueError("k must satisfy 2 <= k <= D")
    eta = Fraction(eta)
    w0 = Fraction(w0)
    f0 = Fraction(f0)
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0, 1]")
    thresh = Fraction(1, D - k + 1)
    if w0 < thresh or w0 > 1:
        raise ValueError(f"w0 must lie in [{thresh}, 1]")
    if not (0 <= f0 <= 1):
        raise ValueError("f0 must lie in [0, 1]")
    A = eta * (k - 1) * k / ((k + 1) * D)
    B = eta * (D - k + 1) / (2 * D)
    C = eta / (2 * D)
    c_w = w0 - thresh
    c_f = 1 - f0
    a1w, a2w, a1f, a2f, _ = _alphas(A, B, c_w, c_f, 50)  # closed_form_mp's default dps
    return RecurrenceParams(
        D=D, eta=eta, k=k, w0=w0, f0=f0, A=A, B=B, C=C, c_w=c_w, c_f=c_f,
        alpha1_w=float(a1w), alpha2_w=float(a2w),
        alpha1_f=float(a1f), alpha2_f=float(a2f),
    )


def closed_form_mp(p: RecurrenceParams, n: int, dps: int = 50):
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        with mpmath.workdps(dps):
            return (
                mpmath.mpf(p.w0.numerator) / p.w0.denominator,
                mpmath.mpf(p.f0.numerator) / p.f0.denominator,
            )
    with mpmath.workdps(dps):
        a1w, a2w, a1f, a2f, s = _alphas(p.A, p.B, p.c_w, p.c_f, dps)
        up = (1 + s) ** (n - 1)
        down = (1 - s) ** (n - 1)
        ratio = mpmath.mpf(p.C.numerator * p.B.denominator) / (p.C.denominator * p.B.numerator)
        w = a1w * s * up - a2w * s * down + ratio
        f = a1f * s * up - a2f * s * down + 1
        return w, f


def _scaled_iterates(p: RecurrenceParams):
    """Yield ``(W, F, den)`` with ``(w_n, f_n) = (W/den, F/den)`` for n = 0, 1, 2, ...

    The step w' = w - A*(1 - f), f' = f + B*w - C is done on integers: with
    Q the lcm of the denominators of A, B and C, (a, b, c) = Q*(A, B, C) and
    P the lcm of the denominators of w0 and f0, ``den = P * Q**n``.  Nothing
    is reduced, so a step costs five integer products and no gcd.
    """
    Q = math.lcm(p.A.denominator, p.B.denominator, p.C.denominator)
    a, b, c = (x.numerator * (Q // x.denominator) for x in (p.A, p.B, p.C))
    den = math.lcm(p.w0.denominator, p.f0.denominator)
    W = p.w0.numerator * (den // p.w0.denominator)
    F = p.f0.numerator * (den // p.f0.denominator)
    while True:
        yield W, F, den
        W, F = Q * W - a * (den - F), Q * F + b * W - c * den
        den *= Q


def iterate_recurrence(p: RecurrenceParams, n: int) -> tuple[Fraction, Fraction]:
    """Exact direct iteration of the coupled recurrence to step n.

    w_n and f_n are kept as integer numerators over one common denominator
    (see :func:`_scaled_iterates`) and reduced once, into two ``Fraction``
    values equal to those of plain ``Fraction`` iteration.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    W, F, den = next(itertools.islice(_scaled_iterates(p), n, None))
    return Fraction(W, den), Fraction(F, den)


def classify_recurrence(p: RecurrenceParams) -> RecurrenceOutcome:
    """Outcome by the sign of the growing mode's coefficient.

    Both growing-mode coefficients share the sign of c_w - sqrt(A/B) * c_f,
    so the sign test reduces to the exact rational discriminant
    B*c_w^2 - A*c_f^2 (c_w and c_f are non-negative in the valid range).
    A zero discriminant makes the growing mode vanish (alpha1_f = 0).
    """
    disc = p.B * p.c_w * p.c_w - p.A * p.c_f * p.c_f
    if disc > 0:
        return RecurrenceOutcome.EXACT_CONVERGENCE
    if disc < 0:
        return RecurrenceOutcome.DECREASES
    return RecurrenceOutcome.ASYMPTOTIC_CONVERGENCE


# ---------------------------------------------------------------------------
# Two-round threat detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreatReport:
    """Threat structure of a converged two-round profile."""

    status: str                                # "ok" | "undefined-equilibrium-offer"
    equilibrium_offer: Optional[float]
    worker_accepts_eq: bool
    credible_worker_threat: bool
    credible_witness_offer: Optional[float] = None
    credible_witness_counter: Optional[float] = None
    noncredible_firm_threat: bool = False
    noncredible_reject_prob: Optional[float] = None


def _firm_accept_behavior(
    r_f: np.ndarray,
    game: TwoRoundGame,
    firm_cum_util: Optional[np.ndarray],
) -> np.ndarray:
    """Firm's accept probability at every (first offer, counter) infoset.

    Reachable infosets use realization ratios.  Unreachable ones (the exact
    projection zeroes abandoned subtrees in finite time) use the limit of the
    update's tie-breaking: all mass on the larger cumulative utility, an even
    split on ties.  Without utilities the uniform placeholder applies.
    """
    tp = games.build_treeplex(game, FIRM)
    offers, pairs = tp.views(r_f)
    offers = offers[:, None]
    reach = offers > geometry.UNREACHABLE_TOL
    accept = np.full(pairs.shape[:2], 0.5)
    accept_mass = np.clip(pairs[:, :, 0], 0.0, None)
    np.divide(accept_mass, offers, out=accept, where=reach)
    if firm_cum_util is not None:
        util = tp.views(np.asarray(firm_cum_util, dtype=float))[1]
        gap = util[:, :, 0] - util[:, :, 1]
        limit = np.where(gap > TIE_TOL, 1.0, np.where(gap < -TIE_TOL, 0.0, 0.5))
        accept = np.where(reach, accept, limit)
    return accept


def detect_threats(
    profile,
    game: TwoRoundGame,
    tol: float = THREAT_TOL,
    firm_cum_util: Optional[np.ndarray] = None,
) -> ThreatReport:
    """Classify credible worker threats and non-credible firm threats.

    The equilibrium offer is the unique first-round offer with realization at
    least 1 - tol.  A worker threat at a lower offer is credible when the
    rejection happens with probability above tol and the counter-offer mass
    sits on best responses (within tol of the best counter value) against the
    firm's second-round behavior.  The firm threatens non-credibly when the
    accepted equilibrium offer is worth less than the discounted second-worst
    split and it still rejects the minimal counter with probability above tol.
    """
    r_f, r_w = (np.asarray(v, dtype=float) for v in profile)
    grid, delta = game.grid, game.delta
    acts = grid.actions

    offers = games.build_treeplex(game, FIRM).views(r_f)[0]
    eq_candidates = np.nonzero(offers >= 1.0 - tol)[0]
    if eq_candidates.size != 1:
        return ThreatReport(
            status="undefined-equilibrium-offer",
            equilibrium_offer=None,
            worker_accepts_eq=False,
            credible_worker_threat=False,
            noncredible_firm_threat=False,
        )
    eq = int(eq_candidates[0])
    eq_offer = float(acts[eq])

    accepts, counters = games.build_treeplex(game, WORKER).views(r_w)
    worker_accepts_eq = bool(accepts[eq] >= 1.0 - tol)

    firm_accept = _firm_accept_behavior(r_f, game, firm_cum_util)

    # Credible worker threats below the equilibrium offer; report the largest.
    credible = False
    witness_offer = witness_counter = None
    for a in range(eq - 1, -1, -1):
        reject_mass = float(counters[a].sum())
        if reject_mass <= tol:
            continue
        counter_dist = counters[a] / reject_mass
        values = delta * (1.0 - acts) * firm_accept[a]
        best = float(values.max())
        supported = np.nonzero(counter_dist > tol)[0]
        if supported.size and bool(np.all(values[supported] >= best - tol)):
            credible = True
            witness_offer = float(acts[a])
            witness_counter = float(acts[int(supported[np.argmax(counter_dist[supported])])])
            break

    noncredible = False
    reject_prob = None
    if worker_accepts_eq and delta * (grid.D - 1) / grid.D > eq_offer:
        reject_prob = 1.0 - float(firm_accept[eq, 1])
        noncredible = bool(reject_prob > tol)

    return ThreatReport(
        status="ok",
        equilibrium_offer=eq_offer,
        worker_accepts_eq=worker_accepts_eq,
        credible_worker_threat=credible,
        credible_witness_offer=witness_offer,
        credible_witness_counter=witness_counter,
        noncredible_firm_threat=noncredible,
        noncredible_reject_prob=reject_prob,
    )
