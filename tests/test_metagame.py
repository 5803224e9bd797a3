import multiprocessing
import os
import pickle
import signal
from fractions import Fraction

import numpy as np
import pytest

from ftrl_bargain import analysis, games, learner, metagame
from ftrl_bargain.games import ActionGrid, TwoRoundGame, UltimatumGame
from ftrl_bargain.learner import LearnerConfig
from ftrl_bargain.metagame import minimax_solve, summarize, sweep_initials


def small_sweep(eta=0.5, **kw):
    cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=eta, **kw)
    return sweep_initials(cfg)


def assert_probability(mix):
    assert np.all(mix >= 0.0)
    assert abs(mix.sum() - 1.0) <= 1e-15


def pure_initials(game, firm_entry, worker_entry):
    """Initial profile of one pure-axis sweep cell, built independently of the sweep."""
    if isinstance(game, UltimatumGame):
        return games.pure_strategy(game.grid, firm_entry), games.pure_strategy(game.grid, worker_entry)
    return games.firm_vertex_plan(game, *firm_entry), games.worker_vertex_plan(game, *worker_entry)


def assert_same_cells(a, b):
    assert a.shape == b.shape
    for ra, rb in zip(a.cells, b.cells):
        for ca, cb in zip(ra, rb):
            assert (ca.u_w, ca.eps, ca.gap_f, ca.gap_w, ca.converged_at, ca.threat) == \
                (cb.u_w, cb.eps, cb.gap_f, cb.gap_w, cb.converged_at, cb.threat)
            assert ca.final_f.tobytes() == cb.final_f.tobytes()
            assert ca.final_w.tobytes() == cb.final_w.tobytes()


JOIN_TIMEOUT_S = 120


class RecordingProcess(multiprocessing.Process):
    """A chunk process that records its start and its join in ``LOG``."""

    LOG = []   # ("start" | "join", process), in call order

    def start(self):
        super().start()
        self.LOG.append(("start", self))

    def join(self, timeout=None):
        super().join(timeout)
        self.LOG.append(("join", self))


@pytest.fixture
def chunk_processes(monkeypatch):
    """The chunk processes of each sweep that starts any, one list per sweep in order.

    A test that has not ended after ``JOIN_TIMEOUT_S`` kills its chunk
    processes and fails, so a sweep that never joins them does not hang.
    """
    RecordingProcess.LOG.clear()
    monkeypatch.setattr(metagame, "Process", RecordingProcess)

    def time_out(signum, frame):
        for _, proc in RecordingProcess.LOG:
            proc.kill()
        pytest.fail(f"the test did not end within {JOIN_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(JOIN_TIMEOUT_S)

    def per_sweep():
        sweeps = []
        for event, proc in RecordingProcess.LOG:
            if event == "start":
                if proc.name == "sweep chunk 1":
                    sweeps.append([])
                sweeps[-1].append(proc)
        return sweeps

    try:
        yield per_sweep
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_all_joined(chunk_processes):
    """Every chunk process was joined and has exited."""
    procs = [proc for sweep in chunk_processes() for proc in sweep]
    joined = [proc for event, proc in RecordingProcess.LOG if event == "join"]
    assert all(proc in joined for proc in procs)
    assert all(proc.exitcode is not None and not proc.is_alive() for proc in procs)
    assert not multiprocessing.active_children()


_real_sweep_chunk = metagame._sweep_chunk
_CALLER_PID = os.getpid()
PARENT_CHUNKS = []   # the (init_f, init_w) of every chunk run in this process


def caller_chunk_spy(cfg, init_f, init_w):
    if os.getpid() == _CALLER_PID:
        PARENT_CHUNKS.append((np.array(init_f), np.array(init_w)))
    return _real_sweep_chunk(cfg, init_f, init_w)


def failing_caller_chunk(cfg, init_f, init_w):
    if os.getpid() == _CALLER_PID:
        raise RuntimeError("caller chunk failed")
    return _real_sweep_chunk(cfg, init_f, init_w)


def failing_child_chunk(cfg, init_f, init_w):
    if os.getpid() != _CALLER_PID:
        raise KeyError(f"child chunk of {len(init_f)} rows failed")
    return _real_sweep_chunk(cfg, init_f, init_w)


def exiting_child_chunk(cfg, init_f, init_w):
    if os.getpid() != _CALLER_PID:
        os._exit(3)
    return _real_sweep_chunk(cfg, init_f, init_w)


class TestSweep:
    def test_shape_and_convergence(self):
        sweep = small_sweep()
        assert sweep.shape == (5, 5)
        assert sweep.all_converged()
        for row in sweep.cells:
            for cell in row:
                assert 0.0 <= cell.u_w <= 1.0
                assert cell.eps <= 1e-7

    def test_batched_matches_per_cell_runs(self):
        # every sweep cell, and every row of the lockstep kernel, is the run
        # the cell would make alone; the two-round check uses every 5th cell,
        # and the D=30 grid (961 rows, wide enough for the row-add scans)
        # every 40th
        for game, stride in ((UltimatumGame(ActionGrid(4)), 1), (TwoRoundGame(ActionGrid(3), 0.9), 5),
                             (UltimatumGame(ActionGrid(30)), 40)):
            cfg = LearnerConfig(game=game, eta=0.5)
            sweep = sweep_initials(cfg)
            cells = [(i, j) for i in range(sweep.shape[0]) for j in range(sweep.shape[1])]
            inits = [pure_initials(game, sweep.firm_axis[i], sweep.worker_axis[j]) for i, j in cells]
            batch = learner.run_lockstep(cfg, np.array([f for f, _ in inits]),
                                         np.array([w for _, w in inits]))
            for k in range(0, len(cells), stride):
                i, j = cells[k]
                traj = learner.run_dynamics(cfg, *inits[k])
                cell = sweep.cells[i][j]
                assert cell.converged_at == traj.converged_at == (int(batch.converged_at[k]) or None)
                assert np.array_equal(cell.final_f, traj.final_f)
                assert np.array_equal(cell.final_w, traj.final_w)
                assert np.array_equal(batch.cum_util_f[k], traj.cum_util_f)
                assert np.array_equal(batch.cum_util_w[k], traj.cum_util_w)

    def test_cells_match_standalone_certificates(self):
        # each chunk certifies its finals as one stack; every cell's payoff
        # and gaps equal certifying that cell's finals on their own
        sweeps = [
            sweep_initials(LearnerConfig(game=UltimatumGame(ActionGrid(10)), eta=0.5)),
            sweep_initials(LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.9), eta=0.5),
                           parallelism=2),
            sweep_initials(LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=Fraction(1, 2),
                                         arithmetic="exact")),
        ]
        for sweep in sweeps:
            cfg, game = sweep.config, sweep.config.game
            for i, firm_entry in enumerate(sweep.firm_axis):
                for j, worker_entry in enumerate(sweep.worker_axis):
                    cell = sweep.cells[i][j]
                    final_f, final_w = cell.final_f, cell.final_w
                    if cfg.arithmetic == "exact":
                        inits = pure_initials(game, firm_entry, worker_entry)
                        traj = learner.run_dynamics(cfg, *inits)
                        final_f = np.asarray(traj.final_f, dtype=float)
                        final_w = np.asarray(traj.final_w, dtype=float)
                        assert np.array_equal(cell.final_f, final_f)
                        assert np.array_equal(cell.final_w, final_w)
                    if isinstance(game, UltimatumGame):
                        fb_w = games.ultimatum_feedback("worker", final_f, game.grid)
                    else:
                        fb_w = games.two_round_feedback("worker", final_f, game)
                    cert = analysis.certify_epsilon_ne((final_f, final_w), game)
                    assert cell.u_w == float(final_w @ fb_w)
                    assert (cell.eps, cell.gap_f, cell.gap_w) == (cert.eps, cert.gap_f, cert.gap_w)

    def test_deterministic_rerun(self):
        a = small_sweep()
        b = small_sweep()
        for ra, rb in zip(a.cells, b.cells):
            for ca, cb in zip(ra, rb):
                assert ca.u_w == cb.u_w
                assert ca.converged_at == cb.converged_at
                assert np.array_equal(ca.final_w, cb.final_w)

    def test_constant_sum_on_accepting_cells(self):
        sweep = small_sweep()
        grid = ActionGrid(4)
        for row in sweep.cells:
            for cell in row:
                fb_f = games.ultimatum_feedback("firm", cell.final_w, grid)
                u_f = float(cell.final_f @ fb_f)
                if cell.u_w > 1e-9 or u_f > 1e-9:  # no-deal cells exempt
                    assert u_f + cell.u_w == pytest.approx(1.0, abs=1e-9)

    def test_uniform_axis(self):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        sweep = sweep_initials(cfg, axis_f="uniform")
        assert sweep.shape == (1, 5)
        assert sweep.firm_axis == ("uniform",)
        assert sweep.all_converged()

    def test_two_round_sweep_smoke(self):
        cfg = LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.55), eta=0.5)
        sweep = sweep_initials(cfg, parallelism=1)
        assert sweep.shape == (16, 16)
        assert sweep.all_converged()
        assert all(c.threat is not None for row in sweep.cells for c in row)
        assert max(c.eps for row in sweep.cells for c in row) <= 1e-7

    def test_parallel_matches_serial(self, chunk_processes):
        # the calling process runs the first chunk and one process each of the
        # others; a uniform firm against 16 pure two-round worker entries is 13
        # distinct profiles, so 16 requested processes run 13 one-row chunks,
        # 12 of them in chunk processes
        two_round = LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.9), eta=0.5)
        cases = [
            (LearnerConfig(game=UltimatumGame(ActionGrid(10)), eta=0.5), "pure", 2, 1),
            (two_round, "pure", 2, 1),
            (LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=Fraction(1, 2),
                           arithmetic="exact"), "pure", 2, 1),
            (two_round, "uniform", 16, 12),
        ]
        for cfg, axis_f, parallelism, workers in cases:
            serial = sweep_initials(cfg, axis_f, parallelism=1)
            assert_same_cells(sweep_initials(cfg, axis_f, parallelism=parallelism), serial)
        assert [len(procs) for procs in chunk_processes()] == [workers for *_, workers in cases]
        assert_all_joined(chunk_processes)

    def test_each_distinct_profile_runs_once(self, monkeypatch):
        stacks = []
        run_lockstep = learner.run_lockstep

        def spy(cfg, init_f, init_w, *args, **kwargs):
            stacks.append((np.array(init_f), np.array(init_w)))
            return run_lockstep(cfg, init_f, init_w, *args, **kwargs)

        monkeypatch.setattr(learner, "run_lockstep", spy)
        game = TwoRoundGame(ActionGrid(3), 0.9)
        cfg = LearnerConfig(game=game, eta=0.5)
        sweep = sweep_initials(cfg)
        # threshold 0 never counters, so (0, b) is one worker plan for all four b
        [(init_f, init_w)] = stacks
        assert len(init_f) == 208
        assert len({f.tobytes() + w.tobytes() for f, w in zip(init_f, init_w)}) == 208
        stacks.clear()
        sweep_initials(LearnerConfig(game=UltimatumGame(ActionGrid(30)), eta=0.5))
        assert [len(f) for f, _ in stacks] == [961]

        groups = {}
        for i, firm_entry in enumerate(sweep.firm_axis):
            for j, worker_entry in enumerate(sweep.worker_axis):
                f, w = pure_initials(game, firm_entry, worker_entry)
                groups.setdefault(f.tobytes() + w.tobytes(), []).append((i, j))
        twins = [group for group in groups.values() if len(group) > 1]
        assert len(groups) == 208 and [len(group) for group in twins] == [4] * 16
        for group in twins:
            i, j = group[0]
            traj = learner.run_dynamics(cfg, *pure_initials(game, sweep.firm_axis[i],
                                                            sweep.worker_axis[j]))
            profile = (traj.final_f, traj.final_w)
            cert = analysis.certify_epsilon_ne(profile, game)
            threat = analysis.detect_threats(profile, game, firm_cum_util=traj.cum_util_f)
            u_w = float(traj.final_w @ games.two_round_feedback("worker", traj.final_f, game))
            for i, j in group:
                cell = sweep.cells[i][j]
                assert (cell.u_w, cell.eps, cell.gap_f, cell.gap_w) == \
                    (u_w, cert.eps, cert.gap_f, cert.gap_w)
                assert cell.converged_at == traj.converged_at is not None
                assert cell.threat == threat
                assert np.array_equal(cell.final_f, traj.final_f)
                assert np.array_equal(cell.final_w, traj.final_w)
        # each cell owns its final plans: writing one leaves its twins alone
        cells = [sweep.cells[i][j] for i, j in twins[0]]
        kept = [(c.final_f.copy(), c.final_w.copy()) for c in cells[1:]]
        cells[0].final_f[:] = -1.0
        cells[0].final_w[:] = -1.0
        for c, (f, w) in zip(cells[1:], kept):
            assert np.array_equal(c.final_f, f) and np.array_equal(c.final_w, w)

    @pytest.mark.parametrize("parallelism", [0, -2, 1.5, 2.0, None, True, np.int64(0)])
    def test_parallelism_must_be_positive_integer(self, parallelism):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(3)), eta=0.5)
        with pytest.raises(ValueError, match="parallelism"):
            sweep_initials(cfg, parallelism=parallelism)

    def test_numpy_integer_parallelism(self, chunk_processes):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        assert_same_cells(sweep_initials(cfg, parallelism=np.int64(2)),
                          sweep_initials(cfg, parallelism=1))
        assert [len(procs) for procs in chunk_processes()] == [1]
        assert metagame._check_parallelism(np.int64(2)) == 2
        assert type(metagame._check_parallelism(np.int64(2))) is int

    def test_caller_runs_first_chunk(self, monkeypatch, chunk_processes):
        # the spy is a module-level function, as a chunk process may need to
        # pickle it: it records (and may fail) only in this process, not in
        # the chunk processes
        game = TwoRoundGame(ActionGrid(3), 0.55)
        cfg = LearnerConfig(game=game, eta=0.5)
        monkeypatch.setattr(metagame, "_sweep_chunk", caller_chunk_spy)
        PARENT_CHUNKS.clear()
        sweep = sweep_initials(cfg, parallelism=3)
        [(init_f, init_w)] = PARENT_CHUNKS
        plans_f = [games.firm_vertex_plan(game, *e) for e in sweep.firm_axis]
        plans_w = [games.worker_vertex_plan(game, *e) for e in sweep.worker_axis]
        distinct_w = list({w.tobytes(): w for w in plans_w}.values())
        rows = [(f, w) for f in plans_f for w in distinct_w]
        assert len(rows) == 208 and len(init_f) == len(init_w) == 70   # 70 + 69 + 69
        assert np.array_equal(init_f, np.array([f for f, _ in rows[:70]]))
        assert np.array_equal(init_w, np.array([w for _, w in rows[:70]]))
        assert [len(procs) for procs in chunk_processes()] == [2]
        assert_all_joined(chunk_processes)

    def test_failing_caller_chunk_still_joins_pool(self, monkeypatch, chunk_processes):
        # the chunk process has forked before the calling process fails its
        # chunk, and the sweep waits for it before it raises
        monkeypatch.setattr(metagame, "_sweep_chunk", failing_caller_chunk)
        cfg = LearnerConfig(game=TwoRoundGame(ActionGrid(3), 0.9), eta=0.5)
        with pytest.raises(RuntimeError, match="caller chunk failed"):
            sweep_initials(cfg, parallelism=2)
        [[proc]] = chunk_processes()
        assert proc.exitcode == 0
        assert_all_joined(chunk_processes)

    def test_exact_sweep_matches_float(self):
        grid = ActionGrid(4)
        for axes in (("pure", "pure"), ("uniform", "pure"), ("pure", "uniform")):
            exact = sweep_initials(LearnerConfig(game=UltimatumGame(grid), eta=Fraction(1, 2),
                                                 arithmetic="exact"), *axes, parallelism=2)
            fl = sweep_initials(LearnerConfig(game=UltimatumGame(grid), eta=0.5), *axes)
            assert exact.shape == fl.shape
            for re_, rf in zip(exact.cells, fl.cells):
                for ce, cf in zip(re_, rf):
                    assert ce.converged_at == cf.converged_at is not None
                    np.testing.assert_allclose(ce.final_f, cf.final_f, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(ce.final_w, cf.final_w, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("refs", [(None, None), (Fraction(1, 2), Fraction(9, 10))],
                             ids=["zero", "half_high"])
    def test_exact_sweep_agrees_with_float_d10(self, refs):
        # the exact and float dynamics stop at the same step in every cell,
        # ties included, and certify the same worker utility
        kw = dict(game=UltimatumGame(ActionGrid(10)), reference_f=refs[0], reference_w=refs[1])
        for axes in (("pure", "pure"), ("uniform", "pure"), ("pure", "uniform")):
            parallelism = 2 if axes == ("pure", "pure") and refs[0] is None else 1
            exact = sweep_initials(LearnerConfig(eta=Fraction(1, 2), arithmetic="exact", **kw),
                                   *axes, parallelism=parallelism)
            fl = sweep_initials(LearnerConfig(eta=0.5, **kw), *axes)
            assert exact.shape == fl.shape
            for re_, rf in zip(exact.cells, fl.cells):
                for ce, cf in zip(re_, rf):
                    assert ce.converged_at == cf.converged_at
                    assert abs(ce.u_w - cf.u_w) <= 1e-12

class TestChunkProcesses:
    """The failure paths of a sweep's chunk processes, at two and three processes."""

    D30 = LearnerConfig(game=UltimatumGame(ActionGrid(30)), eta=0.5)

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_child_exception_reraises_in_caller(self, monkeypatch, chunk_processes, parallelism):
        monkeypatch.setattr(metagame, "_sweep_chunk", failing_child_chunk)
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        with pytest.raises(KeyError, match=r"child chunk of \d+ rows failed") as info:
            sweep_initials(cfg, parallelism=parallelism)
        assert type(info.value) is KeyError
        cause = info.value.__cause__
        assert isinstance(cause, metagame._ChildTraceback)
        assert "in failing_child_chunk" in str(cause) and "KeyError" in str(cause)
        assert [len(procs) for procs in chunk_processes()] == [parallelism - 1]
        assert_all_joined(chunk_processes)

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_child_without_result_raises(self, monkeypatch, chunk_processes, parallelism):
        monkeypatch.setattr(metagame, "_sweep_chunk", exiting_child_chunk)
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        with pytest.raises(RuntimeError, match="sweep chunk 1 exited with code 3 without a result"):
            sweep_initials(cfg, parallelism=parallelism)
        [procs] = chunk_processes()
        assert [proc.exitcode for proc in procs] == [3] * (parallelism - 1)
        assert_all_joined(chunk_processes)

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_failing_caller_chunk_drains_children(self, monkeypatch, chunk_processes, parallelism):
        # each child's cells outgrow a pipe's buffer, so a child the caller
        # did not drain would block in its send and never exit
        monkeypatch.setattr(metagame, "_sweep_chunk", failing_caller_chunk)
        with pytest.raises(RuntimeError, match="caller chunk failed"):
            sweep_initials(self.D30, parallelism=parallelism)
        [procs] = chunk_processes()
        assert [proc.exitcode for proc in procs] == [0] * (parallelism - 1)
        assert_all_joined(chunk_processes)

    def test_large_chunks_match_serial(self, chunk_processes):
        serial = sweep_initials(self.D30, parallelism=1)
        cells = [cell for row in serial.cells for cell in row]
        assert len(pickle.dumps(cells[-len(cells) // 3:])) > 1 << 17   # a pipe holds 64 KiB
        for parallelism in (2, 3):
            assert_same_cells(sweep_initials(self.D30, parallelism=parallelism), serial)
        assert [len(procs) for procs in chunk_processes()] == [1, 2]
        assert_all_joined(chunk_processes)


class TestMinimax:
    def test_matching_pennies_value(self):
        sol = minimax_solve(np.array([[1.0, 0.0], [0.0, 1.0]]), tol=1e-12)
        assert sol.br_gap <= 1e-12
        assert sol.value_w == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sol.row_mix, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.col_mix, [0.5, 0.5], atol=1e-12)

    def test_saddle_point(self):
        m = np.array([
            [0.6, 0.5, 0.7],
            [0.4, 0.3, 0.5],
            [0.8, 0.6, 0.9],
        ])  # row 1 keeps the column player at 0.5 at most; column 1 guarantees 0.3+
        sol = minimax_solve(m, tol=1e-4)
        rowmax = m.max(axis=1).min()
        colmin = m.min(axis=0).max()
        assert rowmax == colmin == 0.5  # strict saddle at (1, 2)... sanity
        assert sol.value_w == pytest.approx(0.5, abs=1e-3)

    def test_certificate_consistency(self, rng):
        m = rng.uniform(size=(8, 6))
        sol = minimax_solve(m, tol=5e-3)
        best_col = float((sol.row_mix @ m).max())
        best_row = float((m @ sol.col_mix).min())
        assert sol.br_gap == pytest.approx(best_col - best_row, abs=1e-12)
        assert best_row - 1e-12 <= sol.value_w <= best_col + 1e-12

    def test_uniform_start_solves_symmetric_game_immediately(self):
        # matching pennies' saddle is the uniform profile
        sol = minimax_solve(np.array([[1.0, 0.0], [0.0, 1.0]]), tol=1e-12)
        assert sol.br_gap <= 1e-12 and sol.value_w == pytest.approx(0.5, abs=1e-12)
        assert sol.iterations <= 2

    def test_cap_returns_actual_gap(self, monkeypatch):
        m = np.array([[0.7, 0.2], [0.3, 0.8]])  # interior saddle: two pivots
        assert minimax_solve(m, tol=1e-12).iterations > 1
        monkeypatch.setattr(metagame, "_MAX_PIVOTS", 1)
        sol = minimax_solve(m, tol=1e-12)
        assert sol.iterations == 1
        assert sol.br_gap > 1e-12
        assert_probability(sol.row_mix)
        assert_probability(sol.col_mix)

    @pytest.mark.parametrize("kw", [{"tol": float("nan")}, {"tol": -1.0}, {"tol": -1e-300}])
    def test_rejects_bad_tol_and_cap(self, kw):
        with pytest.raises(ValueError):
            minimax_solve(np.array([[1.0, 0.0], [0.0, 1.0]]), **kw)

    def test_gap_above_tol_at_optimal_basis_raises(self, rng):
        for _ in range(100):  # find an optimum whose certificate keeps a float residue
            m = rng.uniform(size=(9, 7))
            gap = minimax_solve(m, tol=1.0).br_gap
            if gap > 0.0:
                break
        assert gap > 0.0
        with pytest.raises(ValueError, match="certified gap"):
            minimax_solve(m, tol=gap / 2)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            minimax_solve(np.array([[np.nan, 1.0]]))

    def test_security_dominates_worst_cell(self):
        sweep = small_sweep()
        m = sweep.payoff_matrix()
        sol = minimax_solve(m, tol=1e-3)
        assert sol.value_w >= np.nanmin(m) - 1e-3


def _lp_cases():
    rng = np.random.default_rng(7)
    pennies = np.array([[1.0, 0.0], [0.0, 1.0]])
    return {
        "one_row": (np.array([[0.3, 0.1, 0.7, 0.2]]), 0.7),
        "one_column": (np.array([[0.3], [0.1], [0.7]]), 0.1),
        "constant": (np.full((4, 5), 0.25), 0.25),
        "duplicates": (pennies[[0, 0, 1, 1, 0]][:, [1, 0, 0, 1]], 0.5),
        "dominated": (np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.4], [0.7, 0.6, 0.45]]), 0.5),
        "sixths": (rng.integers(0, 3, size=(12, 15)) / 6, None),
        "thirtieths": (np.round(rng.uniform(size=(31, 31)) * 30) / 30, None),
    }


class TestLpCertificate:
    @pytest.mark.parametrize("name", list(_lp_cases()))
    def test_exact_certificate(self, name):
        m, value = _lp_cases()[name]
        sol = minimax_solve(m, tol=1e-12)
        assert sol.br_gap <= 1e-12
        assert_probability(sol.row_mix)
        assert_probability(sol.col_mix)
        if value is not None:
            assert sol.value_w == pytest.approx(value, abs=1e-12)

    def test_strictly_dominated_strategies_get_no_weight(self):
        m, _ = _lp_cases()["dominated"]
        sol = minimax_solve(m, tol=1e-12)
        # a 50/50 mix of the first two rows (columns) beats the last one everywhere
        assert sol.row_mix[2] <= 1e-12 and sol.col_mix[2] <= 1e-12

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(11)
        for trial in range(300):
            nr, nc = rng.integers(1, 35, size=2)
            if trial % 3 == 0:
                m = rng.uniform(size=(nr, nc))
            elif trial % 3 == 1:
                m = rng.integers(0, 3, size=(nr, nc)) / 6
            else:
                m = np.round(rng.uniform(size=(nr, nc)) * 30) / 30
            # firm: min v  s.t.  m'p <= v, sum p = 1, p >= 0
            res = optimize.linprog(
                np.r_[np.zeros(nr), 1.0],
                A_ub=np.hstack([m.T, -np.ones((nc, 1))]), b_ub=np.zeros(nc),
                A_eq=np.r_[np.ones(nr), 0.0][None], b_eq=[1.0],
                bounds=[(0, None)] * nr + [(None, None)], method="highs",
            )
            assert res.status == 0
            assert minimax_solve(m, tol=1e-12).value_w == pytest.approx(res.fun, abs=1e-12)


class TestSummarize:
    def test_constant_sweep(self):
        sweep = small_sweep(eta=0.1, reference_f=0.25, reference_w=0.75)
        s = summarize(sweep, reference_w=0.75)
        # tiny learning rates pin the outcome at the smaller reference
        assert s.min_uw == pytest.approx(s.max_uw, abs=1e-9)
        assert s.prop_ge_ref in (0.0, 1.0)

    def test_proportions_definition(self):
        sweep = small_sweep()
        s = summarize(sweep)
        m = sweep.payoff_matrix()
        thr = np.array([float(a) for a in sweep.worker_axis])
        expected = float((m >= thr[None, :] - 1e-9).mean())
        assert s.prop_ge_init == pytest.approx(expected)
        assert s.prop_ge_ref is None

    def test_uniform_axis_has_no_init_column(self):
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=0.5)
        sweep = sweep_initials(cfg, axis_w="uniform")
        assert summarize(sweep).prop_ge_init is None
