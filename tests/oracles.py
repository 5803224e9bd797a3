"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's fast paths: feedback by double loops
over the payoff function (two-round feedback by the payoff formula written
view by view), projections by lattice search or long-run
first-order iterations, the treeplex layout by naming every sequence in
order, treeplex best responses and backward passes by infoset-by-infoset
loops, threat classification by one offer-by-offer walk per profile,
sequence counts by a recursive tree walk, the recurrence by direct
rational iteration, its closed form by the full formula with every constant
and power recomputed on each call, exact one-shot FTRL runs by a plain
``Fraction`` loop, the structural monitors by checking one step at a time,
and the randomized audit by one monitored one-row ``run_lockstep`` stack per
draw.

The ``*_rows`` functions are row-major bodies of the float kernel's layers
(feedback, backward normalization, simplex and treeplex projection): each
reduces, scans and broadcasts along the last axis of a C-ordered ``(k, n)``
stack.  The package's entries-major bodies must reproduce them bit for bit
whatever the memory order of their input.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import mpmath
import numpy as np

from ftrl_bargain.analysis import SUPPORT_TOL
from ftrl_bargain.games import ActionGrid, TwoRoundGame, UltimatumGame, utility_ultimatum
from ftrl_bargain import cli, learner
from ftrl_bargain.learner import MONITOR_TOL, LearnerConfig, MonitorSuite


def feedback_bruteforce(agent: str, opponent: np.ndarray, grid: ActionGrid) -> np.ndarray:
    """Expected utility per own action via the payoff function directly."""
    acts = grid.actions
    out = np.zeros(grid.size)
    for i, own in enumerate(acts):
        total = 0.0
        for j, opp in enumerate(acts):
            if agent == "firm":
                u = utility_ultimatum(own, opp)[0]
            else:
                u = utility_ultimatum(opp, own)[1]
            total += opponent[j] * u
        out[i] = total
    return out


def simplex_lattice_best(v: np.ndarray, denom: int) -> tuple[np.ndarray, float]:
    """Best simplex point with coordinates k/denom by exhaustive search."""
    v = np.asarray(v, dtype=float)
    n = v.size
    best = None
    best_d = np.inf

    def rec(prefix, remaining):
        nonlocal best, best_d
        if len(prefix) == n - 1:
            point = prefix + [remaining]
            x = np.array(point) / denom
            d = float(((x - v) ** 2).sum())
            if d < best_d:
                best_d = d
                best = x
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k)

    rec([], denom)
    return best, best_d


def sequence_index(paired: bool, n: int, m: int) -> dict[tuple, int]:
    """Index of every sequence of a layout by name, counted in canonical order.

    Names: ``("root",)``; ``("head", a)`` (firm offer a, worker accept a);
    then per (a, b) either ``("accept", a, b)`` and ``("reject", a, b)``
    (``paired``: the firm's, with m = n) or ``("counter", a, b)`` (the
    worker's, with m = n).
    """
    names = [("root",)] + [("head", a) for a in range(n)]
    for a in range(n):
        for b in range(m):
            names += [("accept", a, b), ("reject", a, b)] if paired else [("counter", a, b)]
    return {name: i for i, name in enumerate(names)}


def infosets(t) -> list[tuple[int, list[int]]]:
    """``(parent, children)`` of every infoset of ``t``, parents before children."""
    idx = sequence_index(t.paired, t.n, t.m)
    if t.paired:
        return [(idx["root",], [idx["head", a] for a in range(t.n)])] + [
            (idx["head", a], [idx["accept", a, b], idx["reject", a, b]])
            for a in range(t.n) for b in range(t.m)]
    return [(idx["root",], [idx["head", a]] + [idx["counter", a, b] for b in range(t.m)])
            for a in range(t.n)]


def constraints(t) -> tuple[np.ndarray, np.ndarray]:
    """Dense (E, e) with E @ r == e for every realization plan r of ``t``."""
    sets = infosets(t)
    E = np.zeros((1 + len(sets), len(sequence_index(t.paired, t.n, t.m))))
    e = np.zeros(1 + len(sets))
    E[0, 0] = e[0] = 1.0
    for i, (parent, children) in enumerate(sets, start=1):
        E[i, children] = 1.0
        E[i, parent] -= 1.0
    return E, e


def plan_feasible_dense(r: np.ndarray, t, tol: float, neg_tol: float = 1e-12) -> bool:
    """Plan check by the dense residual ``E @ r - e`` and a floor on every entry."""
    E, e = constraints(t)
    return bool(r.min() >= -neg_tol and np.abs(E @ r - e).max() <= tol)


def dual_ascent_projection(v: np.ndarray, E: np.ndarray, e: np.ndarray,
                           iters: int = 1_000_000) -> np.ndarray:
    """First-order oracle for min ||x-v||^2 s.t. Ex=e, x>=0.

    Gradient ascent on the dual of the equality constraints; x(lam) is the
    closed-form non-negative minimizer of the Lagrangian.
    """
    step = 1.0 / np.linalg.norm(E, 2) ** 2
    lam = np.zeros(E.shape[0])
    for _ in range(iters):
        x = np.maximum(v - E.T @ lam, 0.0)
        lam += step * (E @ x - e)
    return np.maximum(v - E.T @ lam, 0.0)


def treeplex_best_response_value(c: np.ndarray, t) -> float:
    """max <c, z> over realization plans z of treeplex ``t``, by backward induction."""
    val = np.array(c, dtype=float)
    for parent, children in reversed(infosets(t)):
        val[parent] += max(val[children])
    return float(val[0])


def normalize_backward_loop(u: np.ndarray, t) -> np.ndarray:
    """Infoset-by-infoset reference for ``Treeplex.normalize_backward``."""
    out = np.array(u, dtype=float)
    for parent, children in reversed(infosets(t)):
        top = float(out[children].max())
        out[children] -= top
        out[parent] += top
    out[0] = 0.0
    return out


def firm_accept_behavior_loop(r_f, game: TwoRoundGame, firm_cum_util=None,
                              reach_tol: float = 1e-12, tie_tol: float = 1e-9) -> np.ndarray:
    """Pair-by-pair reference for ``analysis._firm_accept_behavior``."""
    n = game.grid.size
    idx = sequence_index(True, n, n)
    accept = np.full((n, n), 0.5)
    for a in range(n):
        parent = float(r_f[idx["head", a]])
        for b in range(n):
            ia, ir = idx["accept", a, b], idx["reject", a, b]
            if parent > reach_tol:
                accept[a, b] = float(np.clip(r_f[ia], 0.0, None)) / parent
            elif firm_cum_util is not None:
                gap = float(firm_cum_util[ia]) - float(firm_cum_util[ir])
                if gap > tie_tol:
                    accept[a, b] = 1.0
                elif gap < -tie_tol:
                    accept[a, b] = 0.0
    return accept


def threat_loop(profile, game: TwoRoundGame, firm_cum_util=None):
    """One profile's ``analysis.detect_threats`` report, offer by offer.

    The report as classified one profile at a time, with the firm's second-round
    behaviour from :func:`firm_accept_behavior_loop`: the credible-threat
    search walks down from the equilibrium offer and stops at the first
    witness.  The stacked classifier must reproduce it on every row.
    """
    from ftrl_bargain import games
    from ftrl_bargain.analysis import THREAT_TOL, ThreatReport

    r_f, r_w = (np.asarray(v, dtype=float) for v in profile)
    grid, delta, tol = game.grid, game.delta, THREAT_TOL
    acts = grid.actions

    offers = games.build_treeplex(game, "firm").views(r_f)[0]
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

    accepts, counters = games.build_treeplex(game, "worker").views(r_w)
    worker_accepts_eq = bool(accepts[eq] >= 1.0 - tol)

    firm_accept = firm_accept_behavior_loop(r_f, game, firm_cum_util)

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


def count_sequences_tree_walk(D: int) -> tuple[int, int]:
    """(firm, worker) terminal-sequence counts incl. the empty sequence."""
    offers = range(D + 1)
    firm = {()}
    worker = {()}
    for a in offers:
        firm.add((a,))
        worker.add(("A", a))
        for b in offers:
            worker.add(("R", a, b))
            firm.add((a, "A", b))
            firm.add((a, "R", b))
    return len(firm), len(worker)


def iterate_mass_recurrence(A: Fraction, B: Fraction, C: Fraction,
                            w0: Fraction, f0: Fraction, n: int):
    """Direct rational iteration of the coupled recurrence."""
    w, f = Fraction(w0), Fraction(f0)
    out = [(w, f)]
    for _ in range(n):
        w, f = w - A * (1 - f), f + B * w - C
        out.append((w, f))
    return out


@functools.lru_cache(maxsize=64)
def mode_coefficients(A: Fraction, B: Fraction, c_w: Fraction, c_f: Fraction, dps: int):
    """The four mode coefficients and s = sqrt(A*B), each coefficient written out."""
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


def closed_form_mp(p, n: int, dps: int = 50):
    """The closed-form n-th iterate, every constant and power recomputed per call."""
    if n == 0:
        with mpmath.workdps(dps):
            return (
                mpmath.mpf(p.w0.numerator) / p.w0.denominator,
                mpmath.mpf(p.f0.numerator) / p.f0.denominator,
            )
    with mpmath.workdps(dps):
        a1w, a2w, a1f, a2f, s = mode_coefficients(p.A, p.B, p.c_w, p.c_f, dps)
        up = (1 + s) ** (n - 1)
        down = (1 - s) ** (n - 1)
        ratio = mpmath.mpf(p.C.numerator * p.B.denominator) / (p.C.denominator * p.B.numerator)
        w = a1w * s * up - a2w * s * down + ratio
        f = a1f * s * up - a2f * s * down + 1
        return w, f


def iterate_to_event(A: float, B: float, C: float, w0: float, f0: float,
                     cap: int = 1_000_000) -> str:
    """Run the recurrence until the top-mass proxy crosses a boundary.

    Strictly crossing below C/B means the mass threshold broke ("decreases");
    strictly exceeding 1 means the firm mass capped ("exact"); surviving the
    cap means asymptotic approach.
    """
    ratio = C / B
    w, f = float(w0), float(f0)
    for _ in range(cap):
        w, f = w - A * (1.0 - f), f + B * w - C
        if w < ratio:
            return "decreases"
        if f > 1.0:
            return "exact"
    return "asymptotic"


def best_response_bruteforce(agent: str, opponent: np.ndarray, grid: ActionGrid):
    """Best action and value via exhaustive evaluation of the payoff table."""
    fb = feedback_bruteforce(agent, opponent, grid)
    best = int(np.argmax(fb))
    return float(grid.actions[best]), float(fb[best])


def g2_best_response_value(agent: str, opp_plan: np.ndarray, game: TwoRoundGame) -> float:
    """Value of the best pure plan by explicit enumeration of vertex plans."""
    from ftrl_bargain import games

    grid = game.grid
    n = grid.size
    best = -np.inf
    if agent == "firm":
        for off, thr in product(range(n), repeat=2):
            plan = games.firm_vertex_plan(game, grid.actions[off], grid.actions[thr])
            fb = games.two_round_feedback("firm", opp_plan, game)
            best = max(best, float(plan @ fb))
    else:
        fb = games.two_round_feedback("worker", opp_plan, game)
        idx = sequence_index(False, n, n)
        # worker vertices: per-offer accept or counter choice, enumerated per infoset
        total = 0.0
        for a in range(n):
            options = [fb[idx["head", a]]]
            options += [fb[idx["counter", a, b]] for b in range(n)]
            total += max(options)
        best = total
    return float(best)


def two_round_feedback_loop(agent: str, opponent_plan: np.ndarray, game: TwoRoundGame) -> np.ndarray:
    """Two-round feedback written view by view, as the payoff formula reads.

    Firm: ``(1 - a) * r_w(accept a)`` at offer a and ``delta * b * r_w(counter
    b after a)`` at a second-round accept.  Worker: ``a * r_f(offer a)`` at an
    accept and ``delta * (1 - b) * r_f(accept b after a)`` at a counter.
    Everything else stays 0.  A 2-D plan gives one row per plan row.
    """
    from ftrl_bargain import games

    opponent = "worker" if agent == "firm" else "firm"
    own, other = games.build_treeplex(game, agent), games.build_treeplex(game, opponent)
    acts, delta = game.grid.actions, game.delta
    r = np.asarray(opponent_plan, dtype=float)
    out = np.zeros(r.shape[:-1] + (own.n_sequences,))
    out_head, out_below = own.views(out)
    r_head, r_below = other.views(r)
    if agent == "firm":
        out_head[...] = (1.0 - acts) * r_head
        out_below[..., 0] = delta * acts * r_below
    else:
        out_head[...] = acts * r_head
        out_below[...] = delta * (1.0 - acts) * r_below[..., 0]
    return out


def certify_gaps_loop(profile, game) -> tuple[float, float, float]:
    """``(gap_f, gap_w, br_f)`` of one profile, on 1-D vectors.

    The certificate as computed one profile at a time: ``@`` dot products,
    reductions over one vector or matrix, Python ``max`` against zero.  The
    stacked certificate must reproduce it bit for bit on every row.
    """
    from ftrl_bargain import games

    x_f, x_w = (np.asarray(v, dtype=float) for v in profile)
    acts = game.grid.actions
    if isinstance(game, TwoRoundGame):
        delta = game.delta
        fb_f = games.two_round_feedback("firm", x_w, game)
        fb_w = games.two_round_feedback("worker", x_f, game)
        w_accept, w_counter = games.build_treeplex(game, "worker").views(x_w)
        offer_values = (1.0 - acts) * w_accept + delta * (w_counter * acts[None, :]).sum(axis=1)
        f_offer, f_pairs = games.build_treeplex(game, "firm").views(x_f)
        counter_values = delta * (1.0 - acts)[None, :] * f_pairs[:, :, 0]
        best_w = float(np.maximum(acts * f_offer, counter_values.max(axis=1)).sum())
    else:
        fb_f = games.ultimatum_feedback("firm", x_w, game.grid)
        fb_w = games.ultimatum_feedback("worker", x_f, game.grid)
        offer_values = np.cumsum(x_w) * (1.0 - acts)
        best_w = float(x_f @ acts)
    br = int(np.argmax(offer_values))
    gap_f = max(0.0, float(offer_values[br]) - float(x_f @ fb_f))
    gap_w = max(0.0, best_w - float(x_w @ fb_w))
    return gap_f, gap_w, float(acts[br])


def continuous_br_gap_reference(profile, grid: ActionGrid, refinement: int) -> float:
    """The refined-grid gap by its own formula, on 1-D vectors.

    The firm's acceptance mass at each fine offer is the worker's cdf at the
    last threshold at or below it, found by ``searchsorted``, times ``1 -
    offer``; the worker's refined best response accepts every supported
    offer.  ``analysis.continuous_br_gap`` must reproduce it bit for bit.
    """
    from ftrl_bargain import games

    x_f, x_w = (np.asarray(v, dtype=float) for v in profile)
    fine = np.arange(refinement * grid.D + 1) / (refinement * grid.D)
    thresholds = grid.actions
    cdf = np.cumsum(x_w)
    idx = np.searchsorted(thresholds, fine + 1e-12) - 1
    accept_mass = np.where(idx >= 0, cdf[np.maximum(idx, 0)], 0.0)
    val_f_fine = float(np.max(accept_mass * (1.0 - fine)))
    val_w_fine = float(x_f @ thresholds)
    gap_f = max(0.0, val_f_fine - float(x_f @ games.ultimatum_feedback("firm", x_w, grid)))
    gap_w = max(0.0, val_w_fine - float(x_w @ games.ultimatum_feedback("worker", x_f, grid)))
    return max(gap_f, gap_w)


def _feedback_exact_loop(agent: str, x: list, grid: ActionGrid) -> list:
    """One-shot feedback in ``Fraction``s by running sums over the grid."""
    acts = [Fraction(k, grid.D) for k in range(grid.size)]
    out, acc = [Fraction(0)] * grid.size, Fraction(0)
    if agent == "worker":
        for k in range(grid.size - 1, -1, -1):
            acc += x[k] * acts[k]
            out[k] = acc
    else:
        for k in range(grid.size):
            acc += x[k]
            out[k] = acc * (1 - acts[k])
    return out


def _project_simplex_exact_loop(v: list) -> list:
    """Simplex projection in ``Fraction``s: scan the sorted entries for the threshold."""
    order = sorted(range(len(v)), key=lambda i: (-v[i], i))
    total, theta = Fraction(0), None
    for j, i in enumerate(order, start=1):
        total += v[i]
        cand = (total - 1) / j
        if v[i] - cand > 0:
            theta = cand
        else:
            break
    return [x - theta if x > theta else Fraction(0) for x in v]


def ftrl_exact_loop(cfg, init_f, init_w, keep_history: bool = False) -> SimpleNamespace:
    """One exact one-shot FTRL run as a plain ``Fraction`` loop, one list per vector.

    The float kernel's running-max shift, which the exact kernel leaves out
    as no translation changes an exact projection, and the library kernel's
    step-size test and certificate guard (on float casts, through
    :func:`certify_gaps_loop`), written out one vector at a time.  Returns
    the ``Trajectory`` fields as lists, and with ``keep_history`` the regret
    lists that :func:`learner.regret` derives from the history
    (``regret_f``, ``regret_w``; None without it).
    """
    grid = cfg.grid
    x_f, x_w = [Fraction(v) for v in init_f], [Fraction(v) for v in init_w]
    eta = Fraction(cfg.eta)
    refs = []
    for ref in (cfg.reference_f, cfg.reference_w):
        vec = [Fraction(0)] * grid.size
        if ref is not None:
            vec[grid.index_of(ref)] = Fraction(1)
        refs.append(vec)
    U_f, U_w = [Fraction(0)] * grid.size, [Fraction(0)] * grid.size
    off_f = off_w = realized_f = realized_w = Fraction(0)
    history = [(list(x_f), list(x_w))] if keep_history else None
    regret_f, regret_w = [], []
    converged_at, t = None, 1
    for t in range(2, cfg.steps_cap + 1):
        fb_f = _feedback_exact_loop("firm", x_w, grid)
        fb_w = _feedback_exact_loop("worker", x_f, grid)
        U_f = [u + f for u, f in zip(U_f, fb_f)]
        U_w = [u + f for u, f in zip(U_w, fb_w)]
        mf, mw = max(U_f), max(U_w)
        U_f, U_w = [u - mf for u in U_f], [u - mw for u in U_w]
        off_f, off_w = off_f + mf, off_w + mw
        new_f = _project_simplex_exact_loop([r + eta * u for r, u in zip(refs[0], U_f)])
        new_w = _project_simplex_exact_loop([r + eta * u for r, u in zip(refs[1], U_w)])
        delta = max(max(abs(b - a) for a, b in zip(x_f, new_f)),
                    max(abs(b - a) for a, b in zip(x_w, new_w)))
        if keep_history:
            realized_f += sum(x * f for x, f in zip(x_f, fb_f))
            realized_w += sum(x * f for x, f in zip(x_w, fb_w))
            regret_f.append(off_f - realized_f)
            regret_w.append(off_w - realized_w)
            history.append((list(new_f), list(new_w)))
        x_f, x_w = new_f, new_w
        if delta <= Fraction(cfg.threshold):
            gap_f, gap_w, _ = certify_gaps_loop(([float(v) for v in x_f], [float(v) for v in x_w]),
                                                cfg.game)
            if max(gap_f, gap_w) <= learner.STOP_EPS:
                converged_at = t
                break
    return SimpleNamespace(
        converged_at=converged_at, steps=t, final_f=x_f, final_w=x_w,
        cum_util_f=[u + off_f for u in U_f], cum_util_w=[u + off_w for u in U_w],
        history=history, regret_f=regret_f if keep_history else None,
        regret_w=regret_w if keep_history else None,
    )


def _monitor_projection(agent: str, step: int, v: np.ndarray, x: np.ndarray, flag) -> None:
    pos = x > SUPPORT_TOL
    idx = np.nonzero(pos)[0]
    if idx.size >= 2:
        dx = x[idx] - x[idx[0]]
        dv = v[idx] - v[idx[0]]
        err = float(np.abs(dx - dv).max())
        if err > 1e-12:
            flag("claim1_mass_difference", step, f"{agent}: residual {err:.3e}")
    order = np.argsort(-v, kind="stable")
    xs = x[order]
    if np.any(np.diff(xs) > 1e-12):
        flag("claim2_order", step, f"{agent}: output order breaks input order")


def _monitor_step(step, x_f, x_w, new_f, new_w, first: bool, flag) -> None:
    tol = SUPPORT_TOL
    if np.any(np.diff(new_w) > MONITOR_TOL):
        flag("lemma1_worker_sorted", step, "worker masses increase with threshold")
    decreased = False
    for step_diff in np.diff(new_f):
        if step_diff < -MONITOR_TOL:
            decreased = True
        elif step_diff > MONITOR_TOL and decreased:
            flag("lemma2_firm_unimodal", step, "firm masses rise after a fall")
            break
    if first:
        return
    w_sup = np.nonzero(x_w > tol)[0]
    new_w_sup = np.nonzero(new_w > tol)[0]
    f_sup = np.nonzero(x_f > tol)[0]
    if w_sup.size and new_w_sup.size and f_sup.size:
        wmax, fmin = int(w_sup[-1]), int(f_sup[0])
        if int(new_w_sup[-1]) > wmax:
            flag("lemma5_wmax_monotone", step, "top worker threshold gained support")
        if wmax <= fmin:
            moved = float(np.abs(new_w - x_w).max())
            if moved > MONITOR_TOL:
                flag("lemma3_worker_stationary", step, f"worker moved {moved:.3e}")
        elif np.any(x_f[1:wmax] > tol):
            if new_w[wmax] > tol and not (new_w[wmax] < x_w[wmax]):
                flag("lemma4_wmax_mass_decays", step,
                     f"mass {x_w[wmax]:.3e} -> {new_w[wmax]:.3e}")


def monitor_loop(init_f, init_w, steps) -> list[tuple[str, int, str]]:
    """The structural monitors on one run, checked one step at a time.

    ``steps`` yields ``(t, v_f, new_f, v_w, new_w)`` per step as 1-D vectors:
    projection inputs and outputs.  Each step checks the firm's then the
    worker's projection identities, then the shape laws, then (from the run's
    second transition on) the transition laws against the previous strategies.
    Returns ``(monitor, step, detail)`` in that order.
    """
    out = []

    def flag(monitor, step, detail):
        out.append((monitor, step, detail))

    x_f, x_w = np.asarray(init_f, dtype=float), np.asarray(init_w, dtype=float)
    for i, (t, v_f, new_f, v_w, new_w) in enumerate(steps):
        _monitor_projection("firm", t, v_f, new_f, flag)
        _monitor_projection("worker", t, v_w, new_w, flag)
        _monitor_step(t, x_f, x_w, new_f, new_w, i == 0, flag)
        x_f, x_w = new_f, new_w
    return out


def audit_loop(n_runs: int, seed: int, exact_compare: int = 20):
    """The randomized audit one draw at a time: a monitored one-row
    ``run_lockstep`` stack per draw, then its exact rerun.  Returns the
    ``cli.AuditReport``.
    """
    rng = np.random.default_rng(seed)
    report = cli.AuditReport(seed=seed, n_runs=n_runs)
    for run_idx in range(n_runs):
        d, eta, wf, ww = cli._audit_draw(rng)
        total_f, total_w = int(wf.sum()), int(ww.sum())
        init_f = wf.astype(float) / total_f
        init_w = ww.astype(float) / total_w
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(d)), eta=eta)
        monitors = MonitorSuite(cfg)
        traj = learner.run_lockstep(cfg, init_f[None], init_w[None],
                                    observe=monitors).trajectory(0)
        for monitor, _, step, detail in monitors.violations:
            report.violations.append((monitor, run_idx, step, detail))

        if report.exact_compared < exact_compare and d <= 10:
            cfg_exact = LearnerConfig(game=cfg.game, eta=eta, arithmetic="exact")
            exact_init_f = [Fraction(int(v), total_f) for v in wf]
            exact_init_w = [Fraction(int(v), total_w) for v in ww]
            exact = learner.run_dynamics(cfg_exact, exact_init_f, exact_init_w)
            report.exact_compared += 1
            err = max(
                max(abs(float(a) - b) for a, b in zip(exact.final_f, traj.final_f)),
                max(abs(float(a) - b) for a, b in zip(exact.final_w, traj.final_w)),
            )
            if err > 1e-12 or exact.converged_at != traj.converged_at:
                report.violations.append(
                    ("exact_float_agreement", run_idx, traj.steps,
                     f"max deviation {err:.3e}, converged {exact.converged_at} vs {traj.converged_at}")
                )
    return report


# ---------------------------------------------------------------------------
# Row-major bodies of the float kernel's layers, on C-ordered (k, n) stacks.
# ---------------------------------------------------------------------------


def ultimatum_feedback_rows(agent: str, x: np.ndarray, grid: ActionGrid, actions=None) -> np.ndarray:
    """One-shot feedback along the last axis; ``actions`` replaces the grid per row."""
    x = np.ascontiguousarray(x, dtype=float)
    if actions is None:
        actions = grid.actions
    if agent == "worker":
        return (x * actions)[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return x.cumsum(axis=-1) * (1.0 - actions)


def two_round_feedback_rows(agent: str, r: np.ndarray, game: TwoRoundGame) -> np.ndarray:
    """Two-round feedback as one gather along the last axis through the game's table."""
    src, coef = game._feedback_tables[agent]
    out = np.ascontiguousarray(r, dtype=float).take(src, axis=-1)
    out *= coef
    return out


def normalize_backward_rows(u: np.ndarray, t) -> np.ndarray:
    """:meth:`Treeplex.normalize_backward` on the row views of a C-ordered copy."""
    out = np.array(u, dtype=float, order="C")
    rows = out.reshape(-1, t.n_sequences)
    head, below = t.views(rows)
    if t.paired:
        top = np.maximum(below[..., 0], below[..., 1])
        below -= top[..., None]
        for b in range(t.m - 1, -1, -1):
            head += top[:, :, b]
        head -= head.max(axis=1, keepdims=True)
    else:
        top = np.maximum(head, below.max(axis=2))
        head -= top
        below -= top[..., None]
    rows[:, t.root] = 0.0
    return out


def project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """Sort-and-threshold along the last axis of a C-ordered copy of ``v``."""
    v = np.ascontiguousarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    u = -rows
    u.sort(axis=1)
    u *= -1.0
    css = u.cumsum(axis=1)
    css -= 1.0
    cond = u * np.arange(1.0, u.shape[1] + 1.0) > css
    rho = u.shape[1] - 1 - cond[:, ::-1].argmax(axis=1)
    theta = css.take(rho + np.arange(0, css.size, css.shape[1])) / (rho + 1.0)
    x = rows - theta[:, None]
    np.maximum(x, 0.0, out=x)
    return x.reshape(v.shape)


def treeplex_project_rows(v: np.ndarray, t) -> np.ndarray:
    """The closed-form treeplex projection on the row views of a C-ordered copy."""
    v = np.ascontiguousarray(v, dtype=float)
    x = np.zeros(v.shape)
    rows, out = v.reshape(-1, t.n_sequences), x.reshape(-1, t.n_sequences)
    out[:, t.root] = 1.0
    head, below = t.views(rows)
    out_head, out_below = t.views(out)
    if not t.paired:
        blocks = project_simplex_rows(np.concatenate([head[:, :, None], below], axis=2))
        out_head[...] = blocks[:, :, 0]
        out_below[...] = blocks[:, :, 1:]
        return x
    slope = 1.0 + t.m - 0.5 * np.arange(t.m + 1)
    rate_steps = np.tile(np.diff(1.0 / slope, prepend=0.0), t.n)
    p, q = below[..., 0], below[..., 1]
    tt = np.zeros(p.shape[:2] + (p.shape[2] + 1,))
    gaps = tt[:, :, 1:]
    np.subtract(p, q, out=gaps)
    np.abs(gaps, out=gaps)
    gaps.sort(axis=2)
    g0 = -head - np.maximum(p, q).sum(axis=2)
    g = g0[:, :, None] + slope * tt + 0.5 * np.cumsum(tt, axis=2)
    g_flat = g.reshape(len(rows), -1)
    lam = np.sort(g_flat, axis=1)
    rate = np.cumsum(rate_steps[np.argsort(g_flat, axis=1, kind="stable")], axis=1)
    total = np.zeros(lam.shape)
    total[:, 1:] = np.cumsum(rate[:, :-1] * (lam[:, 1:] - lam[:, :-1]), axis=1)
    k = np.arange(lam.shape[1] - 1, lam.size, lam.shape[1]) - (total > 1.0).sum(axis=1)
    lam_star = lam.take(k) + (1.0 - total.take(k)) / rate.take(k)
    s = np.maximum((tt + (lam_star[:, None, None] - g) / slope).max(axis=2), 0.0)
    y = np.minimum(np.maximum((s[:, :, None] + p - q) / 2.0, 0.0), s[:, :, None])
    out_head[...] = s
    out_below[..., 0] = y
    out_below[..., 1] = s[:, :, None] - y
    return x
