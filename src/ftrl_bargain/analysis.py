"""Equilibrium certification, structural extraction, and the recurrence oracle.

Covers best responses and epsilon-Nash certificates for both games, the
pure-firm mixed-equilibrium inequality, the continuous-action bridge via grid
refinement, the closed-form solution of the two-variable mass recurrence with its
outcome classification, and threat detection on converged two-round profiles.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from . import games, geometry
from .games import FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame
from .geometry import StructuralError

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
THREAT_TOL = 1e-3       # mass tolerance of threat extraction
TIE_TOL = 1e-9          # cumulative-utility gaps within this are ties for the firm's limit


# ---------------------------------------------------------------------------
# One-shot game: best responses and certificates
# ---------------------------------------------------------------------------


def best_response_firm(x_w: np.ndarray, grid: ActionGrid):
    """Best offer against a worker mixture and its value, ties broken toward lower offers.

    Row-wise on a ``(k, n)`` stack of mixtures: one offer and value per row.
    """
    return _best_offer(grid.actions, games.ultimatum_feedback(FIRM, x_w, grid))


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
    lower = games.ultimatum_feedback(FIRM, x_w, grid)[:k]
    return bool(np.all(lower <= (1.0 - grid.actions[k]) + 1e-12))


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
    vertex.  A row holding NaN gets NaN gaps.  The stacks may be of any memory
    order: the gaps are taken on C-ordered copies, whose row sums and dot
    products round the same way whatever order the caller's arrays had.
    """
    x_f, x_w = (np.ascontiguousarray(x, dtype=float) for x in (x_f, x_w))
    if isinstance(game, UltimatumGame):
        fb_f = games.ultimatum_feedback(FIRM, x_w, game.grid)
        fb_w = games.ultimatum_feedback(WORKER, x_f, game.grid)
        br_offer, best_f = _best_offer(game.grid.actions, fb_f)
        _, best_w = best_response_worker(x_f, game.grid)
    else:
        assert isinstance(game, TwoRoundGame)
        acts, delta = game.grid.actions, game.delta
        fb_f = games.two_round_feedback(FIRM, x_w, game)
        fb_w = games.two_round_feedback(WORKER, x_f, game)
        tp_f, tp_w = games.build_treeplex(game, FIRM), games.build_treeplex(game, WORKER)
        # Firm: the offer of largest subtree value, its first-round feedback plus
        # delta * sum b*w over accepted counters.  That sum keeps delta outside,
        # as tests/oracles.certify_gaps_loop rounds it: summing the feedback
        # entries (delta*b)*w moves most interior profiles' values by <= 2.2e-16.
        offer_values = tp_f.views(fb_f)[0] + delta * (tp_w.views(x_w)[1] * acts).sum(axis=-1)
        br_offer, best_f = _best_offer(acts, offer_values)
        # Worker: per first offer the better of accepting and its best counter.
        accept, counter = tp_w.views(fb_w)
        best_w = np.maximum(accept, counter.max(axis=-1)).sum(axis=-1)
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
    """Best-response gap over a ``refinement``-times finer offer grid (an integer >= 1).

    The firm's refined offer values are its feedback on ``ActionGrid(refinement * D)``
    against the worker's mass on every ``refinement``-th threshold; the worker's
    refined best response still accepts every supported offer: its coarse gap.
    """
    refinement = geometry._integer("refinement", refinement)
    if refinement < 1:
        raise ValueError("refinement must be a positive integer")
    x_f, x_w = (np.asarray(v, dtype=float)[None] for v in profile)
    _, gap_w, _, _ = _gap_rows(UltimatumGame(grid), x_f, x_w)
    fine = ActionGrid(refinement * grid.D)
    x_fine = np.zeros((1, fine.size))
    x_fine[:, ::refinement] = x_w
    best_f = games.ultimatum_feedback(FIRM, x_fine, fine).max(axis=-1)
    gap_f = _clip_gap(best_f - np.vecdot(x_f, games.ultimatum_feedback(FIRM, x_w, grid)))
    return np.maximum(gap_f, gap_w).item()


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


def _alphas(A, B, c_w, c_f):
    """The four mode coefficients and s = sqrt(A*B) of ``mpf`` inputs.

    Each coefficient is ``h +- g``; the four halves ``h`` and ``g`` are
    computed once each, at the working precision.
    """
    s = mpmath.sqrt(A * B)
    h_w, g_w = (c_w - c_f / B) / 2, (c_w - A * c_f) / (2 * s)
    h_f, g_f = (c_w / A - c_f) / 2, (B * c_w - c_f) / (2 * s)
    return h_w + g_w, h_w - g_w, h_f + g_f, h_f - g_f, s


def _draw_key(A: Fraction, B: Fraction, C: Fraction, c_w: Fraction, c_f: Fraction):
    """The numerators and denominators of one draw's rational constants."""
    return (A.numerator, A.denominator, B.numerator, B.denominator, C.numerator,
            C.denominator, c_w.numerator, c_w.denominator, c_f.numerator, c_f.denominator)


@functools.lru_cache(maxsize=64)
def _modes(key: tuple, dps: int):
    """One draw's closed-form constants in ``dps``-digit arithmetic.

    ``key`` is :func:`_draw_key` of the draw.  Returns the mode coefficients
    ``(a1w, a2w, a1f, a2f)`` and the constants of the n-th iterate:
    ``(a1w*s, a2w*s, a1f*s, a2f*s, 1 + s, 1 - s, C/B)``.  Cached because one
    oracle draw asks for them in :func:`recurrence_params` and in every
    :func:`closed_form_mp` call; it is keyed by integers because hashing a
    ``Fraction`` costs a modular inverse.  Pass ``dps`` positionally so those
    calls share one cache entry.
    """
    A_n, A_d, B_n, B_d, C_n, C_d, w_n, w_d, f_n, f_d = key
    with mpmath.workdps(dps):
        A, B = mpmath.mpf(A_n) / A_d, mpmath.mpf(B_n) / B_d
        a1w, a2w, a1f, a2f, s = _alphas(A, B, mpmath.mpf(w_n) / w_d, mpmath.mpf(f_n) / f_d)
        ratio = mpmath.mpf(C_n * B_d) / (C_d * B_n)
        return (a1w, a2w, a1f, a2f), (a1w * s, a2w * s, a1f * s, a2f * s, 1 + s, 1 - s, ratio)


def recurrence_params(D: int, eta, k: int, w0, f0) -> RecurrenceParams:
    """Build the recurrence coefficients for top-threshold index ``k``.

    Requires integers 2 <= k <= D with D > 2 (by ``games._integer``'s rule,
    stored as ``int``), 0 < eta <= 1, w0 between the dominance
    threshold 1/(D-k+1) and 1, and f0 in [0, 1] (the boundary f0 = 1 is the
    fixed point).
    """
    D, k = games._integer("D", D), games._integer("k", k)
    if D <= 2:
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
    e_n, e_d = eta.numerator, eta.denominator
    A = Fraction(e_n * (k - 1) * k, e_d * (k + 1) * D)
    B = Fraction(e_n * (D - k + 1), e_d * 2 * D)
    C = Fraction(e_n, e_d * 2 * D)
    c_w = w0 - thresh
    c_f = 1 - f0
    # closed_form_mp's default dps, so its calls find this cache entry
    (a1w, a2w, a1f, a2f), _ = _modes(_draw_key(A, B, C, c_w, c_f), 50)
    return RecurrenceParams(
        D=D, eta=eta, k=k, w0=w0, f0=f0, A=A, B=B, C=C, c_w=c_w, c_f=c_f,
        alpha1_w=float(a1w), alpha2_w=float(a2w),
        alpha1_f=float(a1f), alpha2_f=float(a2f),
    )


def closed_form_mp(p: RecurrenceParams, n: int, dps: int = 50):
    """The closed-form ``(w_n, f_n)`` as ``mpf`` values in ``dps``-digit arithmetic.

    Reads the draw's constants from the :func:`_modes` cache, so a call does
    two integer powers and the products and sums of the closed form.
    """
    n = games._integer("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        with mpmath.workdps(dps):
            return (
                mpmath.mpf(p.w0.numerator) / p.w0.denominator,
                mpmath.mpf(p.f0.numerator) / p.f0.denominator,
            )
    _, (a1ws, a2ws, a1fs, a2fs, grow, shrink, ratio) = _modes(
        _draw_key(p.A, p.B, p.C, p.c_w, p.c_f), dps)
    with mpmath.workdps(dps):
        up = grow ** (n - 1)
        down = shrink ** (n - 1)
        return a1ws * up - a2ws * down + ratio, a1fs * up - a2fs * down + 1


def _square(m):
    """``m @ m`` for the step matrix of :func:`iterate_recurrence` or a power of it.

    ``m`` is ``(m11, m12, m13, m21, m22, m23, m33)``; its bottom row is
    ``(0, 0, m33)``.
    """
    m11, m12, m13, m21, m22, m23, m33 = m
    trace = m11 + m22
    return (m11 * m11 + m12 * m21, m12 * trace, m11 * m13 + m12 * m23 + m13 * m33,
            m21 * trace, m21 * m12 + m22 * m22, m21 * m13 + m22 * m23 + m23 * m33,
            m33 * m33)


def iterate_recurrence(p: RecurrenceParams, n: int) -> tuple[Fraction, Fraction]:
    """Exact direct iteration of the coupled recurrence to step n.

    The step w' = w - A*(1 - f), f' = f + B*w - C is done on integers: with
    Q the lcm of the denominators of A, B and C, (a, b, c) = Q*(A, B, C) and
    P the lcm of the denominators of w0 and f0, ``(w_n, f_n) = (W/den, F/den)``
    for ``(W, F, den) = M^n (W0, F0, P)``, where M is the integer matrix
    ``((Q, a, -a), (b, Q, -c), (0, 0, Q))``.  M^n is applied by repeated
    squaring (O(log n) integer matrix products rather than n steps), and the
    result is reduced once, into two ``Fraction`` values equal to those of
    plain ``Fraction`` iteration.
    """
    n = games._integer("n", n)
    if n < 0:
        raise ValueError("n must be non-negative")
    Q = math.lcm(p.A.denominator, p.B.denominator, p.C.denominator)
    a, b, c = (x.numerator * (Q // x.denominator) for x in (p.A, p.B, p.C))
    den = math.lcm(p.w0.denominator, p.f0.denominator)
    W = p.w0.numerator * (den // p.w0.denominator)
    F = p.f0.numerator * (den // p.f0.denominator)
    m = (Q, a, -a, b, Q, -c, Q)
    while n:
        if n & 1:
            m11, m12, m13, m21, m22, m23, m33 = m
            W, F, den = m11 * W + m12 * F + m13 * den, m21 * W + m22 * F + m23 * den, m33 * den
        n >>= 1
        if n:
            m = _square(m)
    return Fraction(W, den), Fraction(F, den)


def classify_recurrence(p: RecurrenceParams) -> RecurrenceOutcome:
    """Outcome by the sign of the growing mode's coefficient.

    Both growing-mode coefficients share the sign of c_w - sqrt(A/B) * c_f,
    so the sign test reduces to the exact rational discriminant
    B*c_w^2 - A*c_f^2 (c_w and c_f are non-negative in the valid range),
    whose sign is that of an integer cross-product difference.
    A zero discriminant makes the growing mode vanish (alpha1_f = 0).
    """
    A, B, c_w, c_f = p.A, p.B, p.c_w, p.c_f
    # both sides times the positive A.den * B.den * (c_w.den * c_f.den)**2
    lhs = B.numerator * A.denominator * (c_w.numerator * c_f.denominator) ** 2
    rhs = A.numerator * B.denominator * (c_f.numerator * c_w.denominator) ** 2
    if lhs > rhs:
        return RecurrenceOutcome.EXACT_CONVERGENCE
    if lhs < rhs:
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


def _firm_accept_behavior(r_f: np.ndarray, game: TwoRoundGame,
                          firm_cum_util: np.ndarray) -> np.ndarray:
    """Firm's accept probability at every (first offer, counter) infoset.

    Reachable infosets use realization ratios.  Unreachable ones (the exact
    projection zeroes abandoned subtrees in finite time) use the limit of the
    update's tie-breaking on ``firm_cum_util``: all mass on the larger
    cumulative utility, an even split on ties (zero utilities tie everywhere).
    A ``(k, n_seq)`` stack of plans and of utilities gives one ``(n, m)``
    block per row, each as on its own.
    """
    tp = games.build_treeplex(game, FIRM)
    offers, pairs = tp.views(r_f)
    offers = offers[..., None]
    util = tp.views(np.asarray(firm_cum_util, dtype=float))[1]
    gap = util[..., 0] - util[..., 1]
    accept = np.where(gap > TIE_TOL, 1.0, np.where(gap < -TIE_TOL, 0.0, 0.5))
    np.divide(np.clip(pairs[..., 0], 0.0, None), offers, out=accept,
              where=offers > geometry.UNREACHABLE_TOL)
    return accept


def detect_threats(profile, game: TwoRoundGame,
                   firm_cum_util: np.ndarray) -> ThreatReport | list[ThreatReport]:
    """Classify credible worker threats and non-credible firm threats.

    With ``tol = THREAT_TOL``, the equilibrium offer is the unique first-round
    offer with realization at least 1 - tol.  A worker threat at a lower offer
    is credible when the rejection happens with probability above tol and the
    counter-offer mass sits on best responses (within tol of the best counter
    value) against the firm's second-round behavior; the largest such offer
    is the witness, with the first counter of largest mass.  The firm
    threatens non-credibly when the accepted equilibrium offer is worth less
    than the discounted second-worst split and it still rejects the minimal
    counter with probability above tol.  At infosets its plan no longer
    reaches, the firm plays by its cumulative utility ``firm_cum_util``.

    One profile gives one :class:`ThreatReport`.  ``(k, n_seq)`` stacks of
    firm and worker plans and of ``firm_cum_util`` give a list of ``k``
    reports, each equal to the report of its row on its own.
    """
    r_f, r_w = (np.asarray(v, dtype=float) for v in profile)
    tp_f, tp_w = games.build_treeplex(game, FIRM), games.build_treeplex(game, WORKER)
    if r_f.ndim not in (1, 2) or r_f.shape[-1] != tp_f.n_sequences:
        raise StructuralError("firm plan length does not match game")
    if r_w.shape != r_f.shape[:-1] + (tp_w.n_sequences,):
        raise StructuralError("worker plan length does not match game")
    if np.shape(firm_cum_util) != r_f.shape:
        raise StructuralError("firm cumulative utilities do not match the firm plan")
    grid, delta, tol = game.grid, game.delta, THREAT_TOL
    acts = grid.actions
    stack_f = np.atleast_2d(r_f)
    firm_accept = _firm_accept_behavior(stack_f, game, np.atleast_2d(firm_cum_util))
    offers = tp_f.views(stack_f)[0]
    accepts, counters = tp_w.views(np.atleast_2d(r_w))
    rows = np.arange(len(stack_f))

    at_eq = offers >= 1.0 - tol
    defined = (at_eq.sum(axis=-1) == 1).tolist()
    eq = at_eq.argmax(axis=-1)
    eq_offer = acts[eq]
    worker_accepts_eq = accepts[rows, eq] >= 1.0 - tol

    # Credible worker threats below the equilibrium offer; report the largest.
    reject_mass = counters.sum(axis=-1)
    live = (reject_mass > tol) & (np.arange(grid.size) < eq[:, None])
    counter_dist = np.divide(counters, reject_mass[..., None], out=np.zeros_like(counters),
                             where=live[..., None])
    values = delta * (1.0 - acts) * firm_accept
    best = values.max(axis=-1, keepdims=True)
    supported = counter_dist > tol
    threat = live & supported.any(axis=-1) & np.all(~supported | (values >= best - tol), axis=-1)
    credible = threat.any(axis=-1).tolist()
    witness = grid.size - 1 - threat[:, ::-1].argmax(axis=-1)
    top_counter = np.where(supported, counter_dist, -np.inf)[rows, witness].argmax(axis=-1)

    checked = worker_accepts_eq & (delta * (grid.D - 1) / grid.D > eq_offer)
    reject_prob = 1.0 - firm_accept[rows, eq, 1]
    noncredible = (checked & (reject_prob > tol)).tolist()

    undefined = ThreatReport(status="undefined-equilibrium-offer", equilibrium_offer=None,
                             worker_accepts_eq=False, credible_worker_threat=False,
                             noncredible_firm_threat=False)
    reports = [
        ThreatReport(
            status="ok",
            equilibrium_offer=offer,
            worker_accepts_eq=accepts_eq,
            credible_worker_threat=cred,
            credible_witness_offer=w_offer if cred else None,
            credible_witness_counter=w_counter if cred else None,
            noncredible_firm_threat=noncred,
            noncredible_reject_prob=prob if check else None,
        ) if ok else undefined
        for ok, offer, accepts_eq, cred, w_offer, w_counter, noncred, prob, check in zip(
            defined, eq_offer.tolist(), worker_accepts_eq.tolist(), credible,
            acts[witness].tolist(), acts[top_counter].tolist(), noncredible,
            reject_prob.tolist(), checked.tolist())
    ]
    return reports if r_f.ndim == 2 else reports[0]
