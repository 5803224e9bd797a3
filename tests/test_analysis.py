import numpy as np
import pytest
from fractions import Fraction

import mpmath
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ftrl_bargain import analysis, games, geometry
from ftrl_bargain.analysis import (
    RecurrenceOutcome,
    best_response_firm,
    best_response_worker,
    certify_epsilon_ne,
    check_eq3,
    classify_recurrence,
    closed_form_mp,
    continuous_br_gap,
    detect_threats,
    iterate_recurrence,
    recurrence_params,
)
from ftrl_bargain.games import (
    ActionGrid,
    TwoRoundGame,
    UltimatumGame,
    firm_vertex_plan,
    pure_strategy,
    worker_vertex_plan,
)
from ftrl_bargain.geometry import StructuralError, TreeplexProjector
from ftrl_bargain.learner import LearnerConfig, run_lockstep
from ftrl_bargain.metagame import sweep_initials

import oracles


def mix(grid, masses):
    x = np.zeros(grid.size)
    for action, mass in masses.items():
        x[grid.index_of(action)] = mass
    return x


class TestBestResponses:
    def setup_method(self):
        self.grid = ActionGrid(5)

    def test_firm_vs_pure_worker(self):
        assert best_response_firm(pure_strategy(self.grid, 0.4), self.grid) == (0.4, pytest.approx(0.6))

    def test_firm_vs_mixed_worker(self):
        x_w = mix(self.grid, {0.0: 0.5, 0.6: 0.5})
        assert best_response_firm(x_w, self.grid) == (0.0, pytest.approx(0.5))

    def test_firm_vs_low_mix(self):
        x_w = mix(self.grid, {0.0: 0.5, 0.2: 0.5})
        assert best_response_firm(x_w, self.grid) == (pytest.approx(0.2), pytest.approx(0.8))

    def test_firm_matches_bruteforce(self, rng):
        g = ActionGrid(8)
        for _ in range(25):
            x = rng.exponential(size=g.size)
            x /= x.sum()
            action, value = best_response_firm(x, g)
            b_action, b_value = oracles.best_response_bruteforce("firm", x, g)
            assert value == pytest.approx(b_value, abs=1e-12)
            assert action == pytest.approx(b_action)

    def test_worker_canonical(self):
        assert best_response_worker(pure_strategy(self.grid, 0.6), self.grid) == (0.0, pytest.approx(0.6))
        x_f = mix(self.grid, {0.2: 0.5, 0.8: 0.5})
        assert best_response_worker(x_f, self.grid) == (0.0, pytest.approx(0.5))
        assert best_response_worker(pure_strategy(self.grid, 0.0), self.grid) == (0.0, pytest.approx(0.0))


class TestCertification:
    def setup_method(self):
        self.grid = ActionGrid(5)
        self.game = UltimatumGame(self.grid)

    def test_pure_equilibrium(self):
        cert = certify_epsilon_ne(
            (pure_strategy(self.grid, 0.4), pure_strategy(self.grid, 0.4)), self.game
        )
        assert cert.eps == pytest.approx(0.0, abs=1e-12)
        assert cert.structural_ne

    def test_no_deal_equilibrium(self):
        cert = certify_epsilon_ne(
            (pure_strategy(self.grid, 0.0), pure_strategy(self.grid, 1.0)), self.game
        )
        assert cert.eps == pytest.approx(0.0, abs=1e-12)
        assert not cert.structural_ne  # top worker threshold differs from the offer

    def test_exploitable_profile(self):
        x_w = mix(self.grid, {0.0: 0.9, 0.4: 0.1})
        cert = certify_epsilon_ne((pure_strategy(self.grid, 0.4), x_w), self.game)
        assert cert.gap_f == pytest.approx(0.3, abs=1e-12)
        assert cert.eps >= 0.3
        assert not cert.structural_ne

    def test_gaps_nonnegative(self, rng):
        for _ in range(30):
            x_f = rng.exponential(size=6)
            x_f /= x_f.sum()
            x_w = rng.exponential(size=6)
            x_w /= x_w.sum()
            cert = certify_epsilon_ne((x_f, x_w), self.game)
            assert cert.gap_f >= 0 and cert.gap_w >= 0
            assert cert.eps == max(cert.gap_f, cert.gap_w)

    def test_structural_iff_zero_eps_for_pure_firm(self, rng):
        # brute-force cross-validation on random worker mixtures at small D
        g = ActionGrid(7)
        game = UltimatumGame(g)
        profiles = []
        for _ in range(200):
            x_w = rng.exponential(size=g.size)
            x_w /= x_w.sum()
            profiles.append(x_w)
        for k in range(1, g.size):  # uniform prefixes: equilibrium-shaped mixtures
            x_w = np.zeros(g.size)
            x_w[: k + 1] = 1.0 / (k + 1)
            profiles.append(x_w)
        hits = 0
        for x_w in profiles:
            top = float(g.actions[int(np.nonzero(x_w > 1e-10)[0][-1])])
            x_f = pure_strategy(g, top)
            cert = certify_epsilon_ne((x_f, x_w), game)
            assert cert.structural_ne == (cert.eps <= 1e-12)
            hits += cert.structural_ne
        assert 0 < hits < len(profiles)  # both branches exercised

    def test_two_round_certificate(self):
        game = TwoRoundGame(self.grid, 0.9)
        r_f = firm_vertex_plan(game, 0.4, 0.4)
        r_w = worker_vertex_plan(game, 0.4, 0.4)
        cert = certify_epsilon_ne((r_f, r_w), game)
        fb_f = games.two_round_feedback("firm", r_w, game)
        br_firm = oracles.g2_best_response_value("firm", r_w, game)
        assert cert.gap_f == pytest.approx(br_firm - float(r_f @ fb_f), abs=1e-12)
        fb_w = games.two_round_feedback("worker", r_f, game)
        br_worker = oracles.g2_best_response_value("worker", r_f, game)
        assert cert.gap_w == pytest.approx(br_worker - float(r_w @ fb_w), abs=1e-12)

    def test_nan_profile_is_not_certified(self):
        # a NaN gap must not be clipped to 0, which would certify an exact equilibrium
        nan, uniform = np.full(self.grid.size, np.nan), games.uniform_strategy(self.grid)
        for profile in ((nan, uniform), (uniform, nan)):
            cert = certify_epsilon_ne(profile, self.game)
            assert np.isnan([cert.eps, cert.gap_f, cert.gap_w]).all()
            assert np.isnan(continuous_br_gap(profile, self.grid, 3))
        two_round = TwoRoundGame(self.grid, 0.9)
        plan = games.build_treeplex(two_round, "firm").uniform_plan()
        cert = certify_epsilon_ne((np.full_like(plan, np.nan), worker_vertex_plan(two_round, 0.4, 0.2)),
                                  two_round)
        assert np.isnan([cert.eps, cert.gap_f, cert.gap_w]).all()

    def test_nan_row_leaves_other_rows_alone(self):
        x_f = np.array([pure_strategy(self.grid, 0.4), np.full(self.grid.size, np.nan)])
        x_w = np.array([mix(self.grid, {0.0: 0.9, 0.4: 0.1})] * 2)
        gap_f, gap_w, _, _ = analysis._gap_rows(self.game, x_f, x_w)
        alone = certify_epsilon_ne((x_f[0], x_w[0]), self.game)
        assert (gap_f[0], gap_w[0]) == (alone.gap_f, alone.gap_w)
        assert np.isnan(gap_f[1]) and np.isnan(gap_w[1])

    def test_clipped_gaps_keep_nan_and_positive_zero(self):
        got = analysis._clip_gap(np.array([-0.0, 0.0, -1e-300, 2.5, np.inf, -np.inf, np.nan]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 2.5, np.inf, 0.0, np.nan])
        assert not np.signbit(got[:-1]).any()


def gap_row_profiles(game, rng, rows=961):
    """At least ``rows`` profiles: vertices, exact ties, then projected random plans."""
    acts = game.grid.actions
    if isinstance(game, UltimatumGame):
        n = game.grid.size
        pure = [pure_strategy(game.grid, a) for a in acts]
        prefixes = [np.where(np.arange(n) <= k, 1.0 / (k + 1), 0.0) for k in range(n)]
        pool = [(f, w) for f in pure for w in pure]
        # exact ties: pure offers against uniform prefixes of thresholds, uniform play
        pool += [(f, w) for f in pure for w in prefixes] + [(prefixes[-1], prefixes[-1])]

        def project(k, agent):
            return geometry.project_simplex(3.0 * rng.normal(size=(k, n)))
    else:
        firm = [firm_vertex_plan(game, a, b) for a in acts for b in acts]
        worker = [worker_vertex_plan(game, a, b) for a in acts for b in acts]
        uniform = {agent: games.build_treeplex(game, agent).uniform_plan()
                   for agent in ("firm", "worker")}
        pool = [(f, w) for f in firm[::3] for w in worker[::2]]
        pool += [(uniform["firm"], w) for w in worker] + [(f, uniform["worker"]) for f in firm]
        pool.append((uniform["firm"], uniform["worker"]))

        def project(k, agent):
            tp = games.build_treeplex(game, agent)
            return TreeplexProjector(tp).project(3.0 * rng.normal(size=(k, tp.n_sequences)))
    k = max(rows - len(pool), 64)
    pool += list(zip(project(k, "firm"), project(k, "worker")))
    return [pool[i] for i in rng.permutation(len(pool))]


@pytest.mark.parametrize("game", [
    UltimatumGame(ActionGrid(3)), UltimatumGame(ActionGrid(5)),
    UltimatumGame(ActionGrid(10)), UltimatumGame(ActionGrid(30)),
    TwoRoundGame(ActionGrid(3), 0.9), TwoRoundGame(ActionGrid(5), 0.55),
], ids=lambda g: f"{type(g).__name__}-D{g.grid.D}")
def test_gap_rows_match_per_profile_certificates(game, rng):
    # every row of a stack is certified exactly as the profile on its own
    profiles = gap_row_profiles(game, rng)
    expected = []
    for profile in profiles[:961]:
        cert = certify_epsilon_ne(profile, game)
        gap_f, gap_w, br_f = oracles.certify_gaps_loop(profile, game)
        expected.append((cert.eps, cert.gap_f, cert.gap_w, cert.br_f))
        assert expected[-1] == (max(gap_f, gap_w), gap_f, gap_w, br_f)
    assert any(e[0] == 0.0 for e in expected) and any(e[0] > 0.0 for e in expected)
    for k in (1, 7, 961):
        x_f = np.array([f for f, _ in profiles[:k]])
        x_w = np.array([w for _, w in profiles[:k]])
        gap_f, gap_w, br_f, _ = analysis._gap_rows(game, x_f, x_w)
        got = zip(np.maximum(gap_f, gap_w).tolist(), gap_f.tolist(), gap_w.tolist(), br_f.tolist())
        assert list(got) == expected[:k]


class TestEq3:
    def setup_method(self):
        self.grid = ActionGrid(5)

    def test_pure_pair(self):
        assert check_eq3(0.4, pure_strategy(self.grid, 0.4), self.grid)

    def test_balanced_mix(self):
        assert check_eq3(0.4, mix(self.grid, {0.0: 0.5, 0.4: 0.5}), self.grid)

    def test_overloaded_low_mass(self):
        assert not check_eq3(0.4, mix(self.grid, {0.0: 0.9, 0.4: 0.1}), self.grid)

    def test_requires_matching_top(self):
        assert not check_eq3(0.4, pure_strategy(self.grid, 0.2), self.grid)


class TestContinuousBridge:
    def test_zero_gap_certified_profile(self):
        g = ActionGrid(5)
        profile = (pure_strategy(g, 0.4), pure_strategy(g, 0.4))
        assert continuous_br_gap(profile, g, 10) == pytest.approx(0.0, abs=1e-12)

    def test_refined_never_exceeds_coarse(self, rng):
        g = ActionGrid(10)
        game = UltimatumGame(g)
        for _ in range(25):
            x_f = rng.exponential(size=g.size)
            x_f /= x_f.sum()
            x_w = rng.exponential(size=g.size)
            x_w /= x_w.sum()
            coarse = certify_epsilon_ne((x_f, x_w), game).eps
            fine = continuous_br_gap((x_f, x_w), g, 10)
            assert fine <= coarse + 1e-12

    def test_rejects_bad_refinement(self):
        g = ActionGrid(5)
        with pytest.raises(ValueError):
            continuous_br_gap((pure_strategy(g, 0.0), pure_strategy(g, 0.0)), g, 0)
        # a refinement that is no integer gives no grid
        with pytest.raises(ValueError, match="^refinement must be an integer, got 2.5$"):
            continuous_br_gap((pure_strategy(g, 0.0), pure_strategy(g, 0.0)), g, 2.5)

    def test_matches_refined_grid_formula(self, rng):
        # the firm's refined offer values are its feedback on the fine grid:
        # bit for bit the refined-grid formula, also with -0.0 worker entries
        # and pure firm rows
        got, want = [], []
        for D in (3, 5, 10, 30):
            grid = ActionGrid(D)
            for refinement in (1, 2, 3, 7):
                for i in range(60):
                    x_f, x_w = rng.exponential(size=(2, grid.size))
                    x_f, x_w = x_f / x_f.sum(), x_w / x_w.sum()
                    if i % 3 == 0:
                        x_w[rng.integers(grid.size, size=2)] = -0.0
                    if i % 4 == 0:
                        x_f = pure_strategy(grid, rng.choice(grid.actions))
                    if i % 5 == 0:
                        x_w = np.where(pure_strategy(grid, rng.choice(grid.actions)) > 0, 1.0, -0.0)
                    got.append(continuous_br_gap((x_f, x_w), grid, refinement))
                    want.append(oracles.continuous_br_gap_reference((x_f, x_w), grid, refinement))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_support_helpers_deleted():
    # the audit monitors compute the top worker threshold and lowest firm offer inline
    assert not {"w_max", "f_min"} & set(dir(analysis))


def recurrence_inputs(n_random: int) -> list[tuple]:
    """Criterion 7's ranges (``n_random`` draws), then the boundaries of the valid region."""
    rng = np.random.default_rng(7)
    inputs = []
    for _ in range(n_random):
        d = int(rng.integers(3, 31))
        k = int(rng.integers(2, d + 1))
        thresh = Fraction(1, d - k + 1)
        inputs.append((d, Fraction(int(rng.integers(10, 1001)), 1000), k,
                       thresh + (1 - thresh) * Fraction(int(rng.integers(0, 1001)), 1000),
                       Fraction(int(rng.integers(0, 1001)), 1000)))
    for d, k in ((3, 2), (5, 2), (5, 5), (17, 9), (30, 30)):
        for f0 in (0, 1):
            inputs.append((d, 1, k, Fraction(1, d - k + 1), f0))
            inputs.append((d, Fraction(3, 7), k, Fraction(1, d - k + 1), f0))
            inputs.append((d, 1, k, 1, f0))
    return inputs


class TestRecurrence:
    def test_constants_example(self):
        p = recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 2), Fraction(1, 2))
        assert p.A == Fraction(1, 15)
        assert p.B == Fraction(1, 5)
        assert p.C == Fraction(1, 20)
        assert p.c_w == Fraction(1, 4)
        assert p.c_f == Fraction(1, 2)

    def test_boundary_fixed_point(self):
        p = recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 4), Fraction(1))
        assert p.c_w == 0 and p.c_f == 0
        assert p.alpha1_w == p.alpha2_w == p.alpha1_f == p.alpha2_f == 0.0
        for n in (0, 1, 5, 50):
            w, f = map(float, closed_form_mp(p, n))
            assert w == pytest.approx(0.25, abs=1e-12)
            assert f == pytest.approx(1.0, abs=1e-12)
        assert classify_recurrence(p) is RecurrenceOutcome.ASYMPTOTIC_CONVERGENCE

    def test_n_zero_returns_initials(self):
        p = recurrence_params(7, Fraction(3, 4), 3, Fraction(1, 2), Fraction(1, 3))
        assert tuple(map(float, closed_form_mp(p, 0))) == (pytest.approx(0.5), pytest.approx(1 / 3))

    def test_closed_form_matches_iteration(self):
        p = recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 2), Fraction(1, 2))
        steps = oracles.iterate_mass_recurrence(p.A, p.B, p.C, p.w0, p.f0, 100)
        with mpmath.workdps(60):
            for n, (w_exact, f_exact) in enumerate(steps):
                w_cl, f_cl = closed_form_mp(p, n, dps=60)
                assert abs(w_cl - mpmath.mpf(w_exact.numerator) / w_exact.denominator) < 1e-30
                assert abs(f_cl - mpmath.mpf(f_exact.numerator) / f_exact.denominator) < 1e-30

    def test_product_iteration_matches_oracle(self):
        p = recurrence_params(11, Fraction(7, 10), 4, Fraction(1, 2), Fraction(1, 4))
        ours = iterate_recurrence(p, 40)
        oracle = oracles.iterate_mass_recurrence(p.A, p.B, p.C, p.w0, p.f0, 40)[-1]
        assert ours == oracle

        inputs = recurrence_inputs(200)
        for args in inputs:
            p = recurrence_params(*args)
            steps = oracles.iterate_mass_recurrence(p.A, p.B, p.C, p.w0, p.f0, 100)
            for n in (0, 1, 2, 10, 100):
                w, f = iterate_recurrence(p, n)
                assert type(w) is type(f) is Fraction
                assert (w, f) == steps[n], (args, n)

        # every bit pattern of n up to 130, and the powers of two around 256
        for args in inputs[:3] + [(5, Fraction(1, 2), 2, Fraction(1, 2), Fraction(1, 2)),
                                  (30, 1, 30, 1, 0)]:
            p = recurrence_params(*args)
            steps = oracles.iterate_mass_recurrence(p.A, p.B, p.C, p.w0, p.f0, 257)
            for n in list(range(131)) + [255, 256, 257]:
                assert iterate_recurrence(p, n) == steps[n], (args, n)

    def test_closed_form_bits_match_oracle(self):
        # the cached constants must give the bits of evaluating everything per call
        for args in recurrence_inputs(20):
            p = recurrence_params(*args)
            for dps in (50, 60):
                for n in range(101):
                    ours = closed_form_mp(p, n, dps)
                    ref = oracles.closed_form_mp(p, n, dps)
                    assert [x._mpf_ for x in ours] == [x._mpf_ for x in ref], (args, dps, n)

    def test_iteration_rejects_negative_n(self):
        p = recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 2), Fraction(1, 2))
        for n in (-1, -5, 2.5, 2.0):
            with pytest.raises(ValueError):
                iterate_recurrence(p, n)
            with pytest.raises(ValueError):
                closed_form_mp(p, n)

    def test_cached_alphas_match_uncached(self):
        p = recurrence_params(11, Fraction(7, 10), 4, Fraction(1, 2), Fraction(1, 4))
        key = analysis._draw_key(p.A, p.B, p.C, p.c_w, p.c_f)
        for dps in (50, 60):
            cached = analysis._modes(key, dps)
            fresh = analysis._modes.__wrapped__(key, dps)
            assert [len(part) for part in cached] == [4, 7]
            for c, u in zip(cached[0] + cached[1], fresh[0] + fresh[1]):
                assert isinstance(c, mpmath.mpf) and c._mpf_ == u._mpf_
        # the benchmark repeats its 1000 draws every pass: no cache may hold them all
        caches = [f for f in vars(analysis).values() if hasattr(f, "cache_info")]
        assert analysis._modes in caches
        assert all(f.cache_info().maxsize < 1000 for f in caches)

    def test_classification_examples(self):
        # large c_w, tiny c_f: the growing mode pushes the firm mass to 1
        p = recurrence_params(5, Fraction(1, 2), 2, Fraction(1), Fraction(999999, 1000000))
        assert p.alpha1_f > 0
        assert classify_recurrence(p) is RecurrenceOutcome.EXACT_CONVERGENCE
        assert oracles.iterate_to_event(float(p.A), float(p.B), float(p.C), 1.0, 0.999999) == "exact"
        # tiny c_w, large c_f: the top worker mass crosses the threshold
        q = recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 4) + Fraction(1, 10**6), Fraction(0))
        assert q.alpha1_f < 0
        assert classify_recurrence(q) is RecurrenceOutcome.DECREASES
        assert oracles.iterate_to_event(float(q.A), float(q.B), float(q.C), float(q.w0), 0.0) == "decreases"
        # B*c_w^2 == A*c_f^2 == 3*eta/32 with c_w, c_f > 0: the growing mode vanishes
        for eta in (Fraction(1, 2), Fraction(7, 10), Fraction(1)):
            z = recurrence_params(4, eta, 2, Fraction(5, 6), Fraction(1, 4))
            assert z.c_w > 0 and z.c_f > 0
            assert z.B * z.c_w ** 2 == z.A * z.c_f ** 2 == 3 * eta / 32
            assert classify_recurrence(z) is RecurrenceOutcome.ASYMPTOTIC_CONVERGENCE

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            recurrence_params(5, Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            recurrence_params(5, Fraction(3, 2), 2, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 10), Fraction(1, 2))  # w0 below threshold
        with pytest.raises(ValueError):
            recurrence_params(2, Fraction(1, 2), 2, Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("D, k", [(np.int64(5), 2), (5, np.int64(2))], ids=["D", "k"])
    def test_numpy_integers_accepted(self, D, k):
        p = recurrence_params(D, Fraction(1, 2), k, Fraction(1, 2), Fraction(1, 2))
        assert type(p.D) is int and type(p.k) is int
        assert p == recurrence_params(5, Fraction(1, 2), 2, Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("name, D, k", [("D", 5.0, 2), ("k", 5, 2.0), ("k", 5, 2.5)])
    def test_non_integers_rejected(self, name, D, k):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            recurrence_params(D, Fraction(1, 2), k, Fraction(1, 2), Fraction(1, 2))

    def test_sign_agreement_random(self, rng):
        for _ in range(200):
            d = int(rng.integers(3, 31))
            k = int(rng.integers(2, d + 1))
            eta = Fraction(int(rng.integers(10, 1001)), 1000)
            thresh = Fraction(1, d - k + 1)
            w0 = thresh + (1 - thresh) * Fraction(int(rng.integers(0, 1001)), 1000)
            f0 = Fraction(int(rng.integers(0, 1001)), 1000)
            p = recurrence_params(d, eta, k, w0, f0)
            a1f, a1w = p.alpha1_f, p.alpha1_w
            assert np.sign(a1f) == np.sign(a1w) or (abs(a1f) < 1e-12 and abs(a1w) < 1e-12)


def make_fig_profile(game, eq_offer, reject_offer=None, counter=None, firm_reject_eqcounter=False):
    """Hand-built converged-style profiles for the threat taxonomy tests."""
    grid = game.grid
    n = grid.size
    firm, worker = oracles.sequence_index(True, n, n), oracles.sequence_index(False, n, n)
    r_f = np.zeros(len(firm))
    r_f[0] = 1.0
    eq = grid.index_of(eq_offer)
    r_f[firm["head", eq]] = 1.0
    for b in range(n):
        if firm_reject_eqcounter and b == 1:
            r_f[firm["accept", eq, b]] = 0.5
            r_f[firm["reject", eq, b]] = 0.5
        else:
            r_f[firm["accept", eq, b]] = 1.0
    r_w = np.zeros(len(worker))
    r_w[0] = 1.0
    for a in range(n):
        if reject_offer is not None and a == grid.index_of(reject_offer):
            r_w[worker["counter", a, grid.index_of(counter)]] = 1.0
        else:
            r_w[worker["head", a]] = 1.0
    return r_f, r_w


@st.composite
def threat_stacks(draw):
    """A two-round game and ``(k, n_seq)`` stacks of firm plans, worker plans
    and firm cumulative utilities (or zeros) that reach every branch of the
    threat classifier: rows with no, one or two first-round offers near 1,
    reachable and unreachable firm infosets, utility gaps at and beyond the
    tie tolerance, and counter masses with ties."""
    D = draw(st.integers(3, 10))
    game = TwoRoundGame(ActionGrid(D), draw(st.sampled_from([0.1, 0.55, 0.9, 0.99])))
    n, k = D + 1, draw(st.integers(1, 5))
    tp_f, tp_w = games.build_treeplex(game, "firm"), games.build_treeplex(game, "worker")
    r_f, r_w = np.zeros((k, tp_f.n_sequences)), np.zeros((k, tp_w.n_sequences))
    r_f[:, 0] = r_w[:, 0] = 1.0
    offers, pairs = tp_f.views(r_f)
    accepts, counters = tp_w.views(r_w)
    offers[...] = draw(arrays(float, (k, n), elements=st.sampled_from([0.0, 1e-13, 1e-4, 0.3])))
    for i in range(k):
        near_one = draw(st.sampled_from([1, 1, 2, 0]))
        for a in draw(st.lists(st.integers(0, D), min_size=near_one, max_size=near_one, unique=True)):
            offers[i, a] = draw(st.sampled_from([1.0, 1.0 - 1e-3, 1.0 - 1e-4]))
    accept_share = draw(arrays(float, (k, n, n), elements=st.sampled_from([1.0, 0.5, 0.0, 0.9995])))
    # offers whose counters all tie, or are worth less than the tolerance apart
    accept_share[draw(arrays(bool, (k, n)))] = draw(st.sampled_from([0.0, 1e-4]))
    pairs[..., 0] = offers[..., None] * accept_share
    pairs[..., 1] = offers[..., None] - pairs[..., 0]
    reject = draw(arrays(float, (k, n), elements=st.sampled_from([0.0, 1.0, 5e-4, 1e-3, 0.5])))
    accepts[...] = 1.0 - reject
    weights = draw(arrays(float, (k, n, n), elements=st.sampled_from([0.0, 0.0, 1.0, 2.0])))
    weights[..., 0] += weights.sum(axis=-1) == 0
    counters[...] = reject[..., None] * weights / weights.sum(axis=-1, keepdims=True)
    util = draw(st.just(np.zeros_like(r_f)) | arrays(float, r_f.shape, elements=st.sampled_from(
        [0.0, 1e-9, -1e-9, 2e-9, -2e-9, 1.0, -1.0])))
    return game, r_f, r_w, util


class TestThreats:
    def setup_method(self):
        self.game = TwoRoundGame(ActionGrid(5), 0.9)
        self.grid = self.game.grid
        self.firm = oracles.sequence_index(True, 6, 6)

    def test_no_threats_when_everyone_accepts(self):
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.4)
        rep = detect_threats((r_f, r_w), self.game, np.zeros_like(r_f))
        assert rep.status == "ok"
        assert rep.equilibrium_offer == 0.4
        assert rep.worker_accepts_eq
        assert not rep.credible_worker_threat
        assert not rep.noncredible_firm_threat

    def test_noncredible_firm_threat(self):
        # worker accepts the 0.6 equilibrium offer; firm rejects the minimal
        # counter half the time although 0.9 * 0.8 beats 0.6
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.6, firm_reject_eqcounter=True)
        rep = detect_threats((r_f, r_w), self.game, np.zeros_like(r_f))
        assert rep.noncredible_firm_threat
        assert rep.noncredible_reject_prob == pytest.approx(0.5, abs=1e-9)
        assert rep.worker_accepts_eq

    def test_noncredible_needs_discount_margin(self):
        # equilibrium offer 0.8 exceeds 0.9 * 0.8, so rejecting 0.2 is not flagged
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.8, firm_reject_eqcounter=True)
        rep = detect_threats((r_f, r_w), self.game, np.zeros_like(r_f))
        assert not rep.noncredible_firm_threat

    def test_credible_worker_threat_with_limit_behavior(self):
        # eq offer 0.8; worker rejects 0.6 and counters 0.2; the firm's 0.6
        # subtree is dead, but its utilities say it would accept 0.2
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.8, reject_offer=0.6, counter=0.2)
        tp_f = games.build_treeplex(self.game, "firm")
        U = np.zeros(tp_f.n_sequences)
        a6 = self.grid.index_of(0.6)
        U[self.firm["accept", a6, 1]] = 100.0  # accepting 0.2 learned
        rep = detect_threats((r_f, r_w), self.game, firm_cum_util=U)
        assert rep.credible_worker_threat
        assert rep.credible_witness_offer == 0.6
        assert rep.credible_witness_counter == pytest.approx(0.2)

    def test_non_best_response_counter_not_credible(self):
        # same rejection but the worker counters 0.8, far below the best reply
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.8, reject_offer=0.6, counter=0.8)
        tp_f = games.build_treeplex(self.game, "firm")
        U = np.zeros(tp_f.n_sequences)
        a6 = self.grid.index_of(0.6)
        U[self.firm["accept", a6, 1]] = 100.0
        rep = detect_threats((r_f, r_w), self.game, firm_cum_util=U)
        assert not rep.credible_worker_threat

    def test_undefined_equilibrium_offer(self):
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.4)
        r_f[self.firm["head", 2]] = 0.5
        r_f[self.firm["head", 3]] = 0.5
        rep = detect_threats((r_f, r_w), self.game, np.zeros_like(r_f))
        assert rep.status == "undefined-equilibrium-offer"
        assert not rep.credible_worker_threat and not rep.noncredible_firm_threat

    def test_firm_accept_behavior_matches_loop(self, rng):
        for D in (3, 5, 8):
            game = TwoRoundGame(ActionGrid(D), 0.9)
            tp = games.build_treeplex(game, "firm")
            n = game.grid.size
            for i in range(400):
                r_f = TreeplexProjector(tp).project(rng.normal(size=tp.n_sequences) * (1 + i % 4 * 10))
                r_f[1 + rng.integers(n)] = rng.choice([0.0, 1e-12, 2e-12])  # unreachable offers
                U = rng.normal(size=tp.n_sequences)
                if i % 2:  # gaps exactly at the tie tolerance, beyond it, and exact ties
                    pairs = U[1 + n:].reshape(n, n, 2)
                    pairs[..., 0] = rng.choice([0.0, 1e-9, -1e-9, 2e-9, -2e-9], size=(n, n))
                    pairs[..., 1] = 0.0
                # zero utilities give the reference's placeholder, 0.5, at every dead infoset
                for util, reference in ((U, U), (np.zeros_like(U), None)):
                    expected = oracles.firm_accept_behavior_loop(r_f, game, reference)
                    assert np.array_equal(analysis._firm_accept_behavior(r_f, game, util), expected)

    @given(threat_stacks())
    def test_stack_matches_per_profile_loop(self, case):
        game, r_f, r_w, util = case
        reports = detect_threats((r_f, r_w), game, firm_cum_util=util)
        expected = [oracles.threat_loop((f, w), game, u) for f, w, u in zip(r_f, r_w, util)]
        assert reports == expected
        # one profile keeps its single report, a stack of one is a list of one
        assert detect_threats((r_f[0], r_w[0]), game, util[0]) == expected[0]
        assert detect_threats((r_f[:1], r_w[:1]), game, util[:1]) == expected[:1]
        accept = analysis._firm_accept_behavior(r_f, game, util)
        for f, u, block in zip(r_f, util, accept):
            assert np.array_equal(analysis._firm_accept_behavior(f, game, u), block)

    @pytest.mark.parametrize("delta", [0.1, 0.55, 0.9])
    def test_sweep_stacks_match_per_profile_loop(self, delta):
        # every cell of a D=3 pure x pure sweep: the finals of all 256 profiles
        # classified as one stack equal the per-profile loop, and the sweep's
        # chunk-by-chunk reports equal both
        game = TwoRoundGame(ActionGrid(3), delta)
        cfg = LearnerConfig(game=game, eta=0.5)
        sweep = sweep_initials(cfg, parallelism=2)
        cells = [(i, j) for i in range(sweep.shape[0]) for j in range(sweep.shape[1])]
        init_f = np.array([firm_vertex_plan(game, *sweep.firm_axis[i]) for i, _ in cells])
        init_w = np.array([worker_vertex_plan(game, *sweep.worker_axis[j]) for _, j in cells])
        run = run_lockstep(cfg, init_f, init_w)
        reports = detect_threats((run.final_f, run.final_w), game, firm_cum_util=run.cum_util_f)
        assert reports == [oracles.threat_loop((f, w), game, u)
                           for f, w, u in zip(run.final_f, run.final_w, run.cum_util_f)]
        assert reports == [sweep.cells[i][j].threat for i, j in cells]

    def test_row_length_must_match_treeplex(self):
        r_f, r_w = make_fig_profile(self.game, eq_offer=0.4)
        stack_f, stack_w = np.stack([r_f, r_f]), np.stack([r_w, r_w])
        zeros = np.zeros_like(stack_f)
        cases = [
            ((stack_f[:, :-1], stack_w), zeros, "firm plan"),
            ((stack_f, stack_w[:, 1:]), zeros, "worker plan"),
            ((stack_f, stack_w[:1]), zeros, "worker plan"),
            ((stack_f[None], stack_w[None]), zeros, "firm plan"),
            ((stack_f, stack_w), np.zeros(r_f.size), "cumulative utilities"),
            ((r_f, r_w[:-1]), np.zeros_like(r_f), "worker plan"),
        ]
        for profile, util, message in cases:
            with pytest.raises(StructuralError, match=message):
                detect_threats(profile, self.game, firm_cum_util=util)

    def test_report_invariant(self):
        for kwargs in (
            dict(eq_offer=0.6, firm_reject_eqcounter=True),
            dict(eq_offer=0.4),
            dict(eq_offer=0.8, reject_offer=0.6, counter=0.2),
        ):
            r_f, r_w = make_fig_profile(self.game, **kwargs)
            rep = detect_threats((r_f, r_w), self.game, np.zeros_like(r_f))
            if rep.noncredible_firm_threat:
                assert rep.worker_accepts_eq
                assert self.game.delta * (self.grid.D - 1) / self.grid.D > rep.equilibrium_offer
