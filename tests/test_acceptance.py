"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive sweeps are
computed once per session and shared across criteria.

Three sub-checks are expected to fail and are left failing deliberately; they
pin statistics of the reference experiments that this implementation does not
reproduce (README, "Known deviations", gives what is measured about each and
what is not explained).  All measured values are printed so the margins are
visible.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ftrl_bargain import analysis, games
from ftrl_bargain.analysis import (
    RecurrenceOutcome,
    classify_recurrence,
    continuous_br_gap,
    detect_threats,
    recurrence_params,
)
from ftrl_bargain.cli import run_audit
from ftrl_bargain.games import ActionGrid, TwoRoundGame, UltimatumGame
from ftrl_bargain.learner import LearnerConfig, run_dynamics
from ftrl_bargain.metagame import minimax_solve, summarize, sweep_initials

import oracles

pytestmark = pytest.mark.acceptance

G1_CONFIGS = {
    "zero": (None, None),
    "sixth_half": (1 / 6, 1 / 2),
    "half_high": (1 / 2, 29 / 30),
}

TABLE1 = {
    #                (min_uw, max_uw, prop_ge_init, prop_ge_ref)
    "zero": (0.1333, 0.3333, 0.2258, None),
    "sixth_half": (0.1667, 0.5, 0.4662, 0.7721),
    "half_high": (0.1333, 0.5, 0.2997, 0.0),
}

MINIMAX_TARGETS = {"zero": 0.2, "sixth_half": 1 / 6, "half_high": 0.2}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="session")
def g1_sweeps():
    out = {}
    for name, (ref_f, ref_w) in G1_CONFIGS.items():
        cfg = LearnerConfig(
            game=UltimatumGame(ActionGrid(30)), eta=0.5,
            reference_f=ref_f, reference_w=ref_w,
        )
        t0 = time.perf_counter()
        sweep = sweep_initials(cfg)
        out[name] = (sweep, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def g2_sweeps():
    out = {}
    for delta in (0.1, 0.55, 0.9):
        cfg = LearnerConfig(game=TwoRoundGame(ActionGrid(5), delta), eta=0.5)
        t0 = time.perf_counter()
        sweep = sweep_initials(cfg, parallelism=2)
        out[delta] = (sweep, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def threat_runs():
    game = TwoRoundGame(ActionGrid(5), 0.9)
    cfg = LearnerConfig(game=game, eta=0.5)
    runs = {}
    for name, (f_init, w_init) in {
        "all_zero": ((0.0, 0.0), (0.0, 0.0)),
        "mid_inits": ((0.6, 0.0), (0.6, 0.2)),
    }.items():
        traj = run_dynamics(
            cfg,
            games.firm_vertex_plan(game, *f_init),
            games.worker_vertex_plan(game, *w_init),
        )
        rep = detect_threats((traj.final_f, traj.final_w), game, firm_cum_util=traj.cum_util_f)
        runs[name] = (traj, rep)
    return game, runs


def test_criterion1_payoff_ranges(g1_sweeps):
    checks = []
    for name, (sweep, elapsed) in g1_sweeps.items():
        target_min, target_max = TABLE1[name][0], TABLE1[name][1]
        m = sweep.payoff_matrix()
        checks.append(abs(np.nanmin(m) - target_min) <= 6e-5)  # targets quoted to 4 decimals
        checks.append(abs(np.nanmax(m) - target_max) <= 6e-5)
        checks.append(sweep.all_converged())
        checks.append(elapsed < 600.0)
    ok = all(checks)
    detail = "; ".join(
        f"{name}: u_w in [{np.nanmin(s.payoff_matrix()):.4f}, {np.nanmax(s.payoff_matrix()):.4f}] "
        f"({t:.1f}s)" for name, (s, t) in g1_sweeps.items()
    )
    assert report("1 (payoff ranges)", ok, detail)


def test_criterion1_proportions(g1_sweeps):
    results = []
    for name, (sweep, _) in g1_sweeps.items():
        _, _, want_init, want_ref = TABLE1[name]
        ref_w = G1_CONFIGS[name][1]
        s = summarize(sweep, reference_w=ref_w)
        results.append((f"{name} init", s.prop_ge_init, want_init))
        if want_ref is not None:
            results.append((f"{name} ref", s.prop_ge_ref, want_ref))
    ok = all(abs(got - want) <= 0.03 for _, got, want in results)
    detail = "; ".join(f"{label}: {got:.4f} vs {want:.4f}" for label, got, want in results)
    assert report("1 (proportions ±0.03)", ok, detail)


@pytest.mark.parametrize("name", list(G1_CONFIGS))
def test_criterion2_metagame_value(g1_sweeps, name):
    sweep, _ = g1_sweeps[name]
    sol = minimax_solve(sweep.payoff_matrix(), tol=1e-3)
    target = MINIMAX_TARGETS[name]
    ok = sol.br_gap <= 1e-3 and abs(sol.value_w - target) <= 1e-3
    assert report(
        f"2 (minimax, {name})", ok,
        f"value_w={sol.value_w:.5f} ({Fraction(sol.value_w).limit_denominator(1000)}) "
        f"vs {target:.5f}, gap={sol.br_gap:.2e}",
    )


def test_criterion3_epsilon_certification(g1_sweeps, g2_sweeps):
    worst_g1 = max(c.eps for sweep, _ in g1_sweeps.values() for row in sweep.cells for c in row)
    worst_g2 = max(c.eps for sweep, _ in g2_sweeps.values() for row in sweep.cells for c in row)
    all_conv = all(s.all_converged() for s, _ in g1_sweeps.values()) and all(
        s.all_converged() for s, _ in g2_sweeps.values()
    )
    ok = worst_g1 <= 1e-7 and worst_g2 <= 1e-7 and all_conv
    assert report(
        "3 (eps <= 1e-7)", ok,
        f"max eps: one-shot {worst_g1:.2e}, two-round {worst_g2:.2e}, all converged: {all_conv}",
    )


def test_criterion4_credible_worker_threat(threat_runs):
    _, runs = threat_runs
    traj, rep = runs["all_zero"]
    ok = (
        traj.converged
        and rep.equilibrium_offer == 0.8
        and rep.worker_accepts_eq
        and rep.credible_worker_threat
        and rep.credible_witness_offer == 0.6
    )
    assert report(
        "4 (credible threat run)", ok,
        f"eq_offer={rep.equilibrium_offer}, credible={rep.credible_worker_threat} "
        f"at {rep.credible_witness_offer} countering {rep.credible_witness_counter}, "
        f"converged_at={traj.converged_at}",
    )


def test_criterion4_noncredible_firm_threat(threat_runs):
    game, runs = threat_runs
    traj, rep = runs["mid_inits"]
    ok = (
        traj.converged
        and rep.equilibrium_offer == 0.6
        and rep.worker_accepts_eq
        and rep.noncredible_firm_threat
    )
    assert report(
        "4 (non-credible threat run)", ok,
        f"eq_offer={rep.equilibrium_offer}, noncredible={rep.noncredible_firm_threat}, "
        f"credible={rep.credible_worker_threat}, converged_at={traj.converged_at}",
    )


def test_criterion4_noncredible_threats_reproduce(g2_sweeps):
    """The non-credible phenomenon of the reference figure: equilibrium offer
    0.6 accepted while the firm rejects the minimal counter with positive
    probability.  Checked at the sweep level."""
    sweep, _ = g2_sweeps[0.9]
    hits = [
        c for row in sweep.cells for c in row
        if c.threat and c.threat.noncredible_firm_threat and c.threat.equilibrium_offer == 0.6
    ]
    credible = sum(
        1 for row in sweep.cells for c in row if c.threat and c.threat.credible_worker_threat
    )
    ok = len(hits) > 0 and credible > 0
    assert report(
        "4 (non-credible cells exist, delta=0.9)", ok,
        f"{len(hits)} cells with eq offer 0.6 and a non-credible reject of 0.2; "
        f"{credible} cells with credible worker threats",
    )


def test_criterion5_delta_monotonicity(g2_sweeps):
    max_low = max(c.u_w for row in g2_sweeps[0.1][0].cells for c in row if c.converged)
    max_high = max(c.u_w for row in g2_sweeps[0.9][0].cells for c in row if c.converged)
    ok = max_low <= max_high + 1e-12
    assert report(
        "5 (delta monotonicity)", ok,
        f"max u_w: delta=0.1 -> {max_low:.4f} <= delta=0.9 -> {max_high:.4f}",
    )


def test_criterion6_invariant_audit():
    rep = run_audit(100, seed=42, exact_compare=20)
    ok = rep.ok and rep.exact_compared == 20
    counts = {}
    for name, *_ in rep.violations:
        counts[name] = counts.get(name, 0) + 1
    assert report(
        "6 (invariant audit)", ok,
        f"100 runs, {rep.exact_compared} exact comparisons, violations: {counts or 'none'}",
    )


def test_criterion7_recurrence_oracle():
    rng = np.random.default_rng(20240817)
    n_draws = 1000
    max_diff = 0.0
    sign_ok = True
    classify_ok = True
    for _ in range(n_draws):
        d = int(rng.integers(3, 31))
        k = int(rng.integers(2, d + 1))
        eta = Fraction(int(rng.integers(10, 1001)), 1000)
        thresh = Fraction(1, d - k + 1)
        w0 = thresh + (1 - thresh) * Fraction(int(rng.integers(0, 1001)), 1000)
        f0 = Fraction(int(rng.integers(0, 1001)), 1000)
        p = recurrence_params(d, eta, k, w0, f0)

        sign_ok &= np.sign(p.alpha1_f) == np.sign(p.alpha1_w) or (
            abs(p.alpha1_f) < 1e-12 and abs(p.alpha1_w) < 1e-12
        )

        # closed form vs exact iteration for n <= 100, evaluated in 60-digit
        # arithmetic because the growing mode amplifies float rounding
        with mpmath.workdps(60):
            Am = mpmath.mpf(p.A.numerator) / p.A.denominator
            Bm = mpmath.mpf(p.B.numerator) / p.B.denominator
            cw = mpmath.mpf(p.c_w.numerator) / p.c_w.denominator
            cf = mpmath.mpf(p.c_f.numerator) / p.c_f.denominator
            a1w, a2w, a1f, a2f, s = analysis._alphas(Am, Bm, cw, cf)
            ratio = mpmath.mpf(thresh.numerator) / thresh.denominator
            up = mpmath.mpf(1)
            down = mpmath.mpf(1)
            # the iterates as integer numerators W, F over one unreduced
            # denominator: with (a, b, c) = Q * (A, B, C) on integers, a step
            # multiplies the denominator by Q and needs no gcd
            Q = math.lcm(p.A.denominator, p.B.denominator, p.C.denominator)
            a, b, c = (x.numerator * (Q // x.denominator) for x in (p.A, p.B, p.C))
            den = math.lcm(p.w0.denominator, p.f0.denominator)
            W, F = (x.numerator * (den // x.denominator) for x in (p.w0, p.f0))
            for n in range(1, 101):
                W, F, den = Q * W - a * (den - F), Q * F + b * W - c * den, Q * den
                w_cl = a1w * s * up - a2w * s * down + ratio
                f_cl = a1f * s * up - a2f * s * down + 1
                dw = abs(w_cl - mpmath.mpf(W) / den)
                df = abs(f_cl - mpmath.mpf(F) / den)
                max_diff = max(max_diff, float(dw), float(df))
                up *= 1 + s
                down *= 1 - s

        verdict = classify_recurrence(p)
        event = oracles.iterate_to_event(float(p.A), float(p.B), float(p.C), float(w0), float(f0))
        expected = {
            "decreases": RecurrenceOutcome.DECREASES,
            "exact": RecurrenceOutcome.EXACT_CONVERGENCE,
            "asymptotic": RecurrenceOutcome.ASYMPTOTIC_CONVERGENCE,
        }[event]
        classify_ok &= verdict is expected

    ok = max_diff <= 1e-9 and sign_ok and classify_ok
    assert report(
        "7 (recurrence oracle)", ok,
        f"{n_draws} draws: max closed-vs-iterated diff {max_diff:.2e}, "
        f"signs agree: {sign_ok}, classification matches events: {classify_ok}",
    )


def test_criterion8_continuous_bridge(g1_sweeps):
    grid = ActionGrid(30)
    worst_excess = -np.inf
    for sweep, _ in g1_sweeps.values():
        for row in sweep.cells:
            for cell in row:
                fine = continuous_br_gap((cell.final_f, cell.final_w), grid, 10)
                worst_excess = max(worst_excess, fine - cell.eps)
    ok = worst_excess <= 1e-12
    assert report(
        "8 (refined-grid bridge)", ok,
        f"max(refined gap - coarse gap) = {worst_excess:.2e} over 2883 profiles",
    )


def test_criterion9_convergence_budgets(g1_sweeps, g2_sweeps):
    worst_g1 = max(
        c.converged_at or 10**9 for sweep, _ in g1_sweeps.values() for row in sweep.cells for c in row
    )
    worst_g2 = max(
        c.converged_at or 10**9 for sweep, _ in g2_sweeps.values() for row in sweep.cells for c in row
    )
    ok = worst_g1 <= 8000 and worst_g2 <= 15000
    assert report(
        "9 (empirical budgets)", ok,
        f"one-shot worst convergence {worst_g1} <= 8000; two-round worst {worst_g2} <= 15000",
    )
