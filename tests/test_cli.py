import csv
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ftrl_bargain import analysis, cli, games, geometry, learner, metagame
from ftrl_bargain.cli import main

import oracles


def assert_one_error_line(capsys) -> str:
    """The captured stderr is one ``error: ...`` line and no traceback; returns it."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", [["run", "--init-f", "0", "--init-w", "0"], ["sweep"],
                                     ["metagame"]])
def test_directory_as_input_file_exit_2(tmp_path, capsys, command):
    assert main([command[0], str(tmp_path), *command[1:]]) == 2
    assert str(tmp_path) in assert_one_error_line(capsys)


def write_config(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def g17(x) -> str:
    """A float as the CSV files write it: 17 significant digits, exact on reparse."""
    return f"{x:.17g}"


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def g1_config(tmp_path):
    return write_config(
        tmp_path / "g1.cfg",
        game="g1", d=5, eta=0.5,
        sweep_firm="pure", sweep_worker="pure",
        output_dir=str(tmp_path / "out"),
        parallelism=1,
    )


# Documented config key -> (file value, where load_config puts it, expected value).
KEY_ROUTES = {
    "game": ("g2", lambda c: type(c.learner.game), games.TwoRoundGame),
    "d": ("7", lambda c: c.learner.grid.D, 7),
    "eta": ("1/3", lambda c: c.learner.eta, Fraction(1, 3)),
    "delta": ("0.55", lambda c: c.learner.game.delta, 0.55),
    "reference_f": ("2/5", lambda c: c.learner.reference_f, 0.4),
    "reference_w": ("zero", lambda c: c.learner.reference_w, None),
    "conv_threshold": ("1e-5", lambda c: c.learner.threshold, 1e-5),
    "max_steps": ("123", lambda c: c.learner.steps_cap, 123),
    "arithmetic": ("exact", lambda c: c.learner.arithmetic, "exact"),
    "sweep_firm": ("uniform", lambda c: c.sweep_firm, "uniform"),
    "sweep_worker": ("pure", lambda c: c.sweep_worker, "pure"),
    "output_dir": ("elsewhere", lambda c: c.output_dir, "elsewhere"),
    "parallelism": ("3", lambda c: c.parallelism, 3),
}


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg", game="g1", d=30, eta="1/2",
            reference_f="1/6", reference_w="1/2", max_steps=8000,
        )
        cfg = cli.load_config(path).learner
        assert cfg.grid.D == 30 and cfg.eta == 0.5
        assert cfg.reference_f == pytest.approx(1 / 6)
        assert cfg.steps_cap == 8000

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5, bogus=1)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_zero_reference_keyword(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5,
                            reference_f="zero", reference_w="zero")
        cfg = cli.load_config(path).learner
        assert cfg.reference_f is None and cfg.reference_w is None

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            cli.load_config("/nonexistent/path.cfg")

    def test_delta_on_one_shot_rejected(self, tmp_path, capsys):
        # the one-shot game has no discount, so a delta would be silently dropped
        path = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5, delta=0.9)
        with pytest.raises(cli.ConfigError, match="delta"):
            cli.load_config(path)
        assert main(["run", path, "--init-f", "0", "--init-w", "0"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\ngame = g1\nd = 5\neta = 0.5\n")
        assert isinstance(cli.load_config(path).learner.game, games.UltimatumGame)

    @pytest.mark.parametrize("key", cli._KEYS)
    def test_key_routing(self, tmp_path, key):
        # every accepted key lands in the run's LearnerConfig or in the CLI settings
        text, read, expected = KEY_ROUTES[key]
        kv = dict(game="g1", d=5, eta="1/2")
        if key in ("game", "delta"):
            kv.update(game="g2", delta=0.9)
        kv[key] = text
        assert read(cli.load_config(write_config(tmp_path / "c.cfg", **kv))) == expected

    def test_parallelism_follows_the_integer_rule(self, tmp_path):
        # a config takes any integer operator.index accepts and stores an int;
        # a bool, an integral float and a value below 1 are refused
        learner_cfg = cli.load_config(write_config(tmp_path / "c.cfg", game="g1", d=3,
                                                   eta="1/2")).learner
        config = cli.ExperimentConfig(learner_cfg, parallelism=np.int64(2))
        assert config.parallelism == 2 and type(config.parallelism) is int
        for value in (True, 2.0, 0, np.int64(0)):
            with pytest.raises(ValueError, match="parallelism"):
                cli.ExperimentConfig(learner_cfg, parallelism=value)
        for text in ("2.0", "true"):
            path = write_config(tmp_path / "c.cfg", game="g1", d=3, eta="1/2", parallelism=text)
            with pytest.raises(cli.ConfigError) as exc:
                cli.load_config(path)
            assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key", ["d", "max_steps", "parallelism"])
    @pytest.mark.parametrize("text", ["3.0", "3.5", "1/2", "three", "1e3"])
    def test_integer_keys_name_themselves(self, tmp_path, capsys, key, text):
        # each integer key parses by the integer rule, and a value that is not
        # an integer's text names its key (not int()'s "invalid literal")
        kv = dict(game="g1", d=3, eta="1/2")
        kv[key] = text
        path = write_config(tmp_path / "c.cfg", **kv)
        with pytest.raises(cli.ConfigError, match=f"^{path}: {key} must be an integer, got "):
            cli.load_config(path)
        assert main(["run", path, "--init-f", "0", "--init-w", "0"]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be an integer" in err and "invalid literal" not in err
        kv[key] = "3"
        assert cli.load_config(write_config(tmp_path / "c.cfg", **kv)) is not None

    @pytest.mark.parametrize("key", ["eta", "delta", "reference_w", "conv_threshold"])
    def test_zero_denominator_names_key(self, tmp_path, capsys, key):
        # every number of a config parses by one rule, which names the key
        kv = dict(game="g2", d=3, eta="1/2", delta="0.9")
        kv[key] = "1/0"
        path = write_config(tmp_path / "c.cfg", **kv)
        message = f"{path}: {key} must be a number, got '1/0'"
        with pytest.raises(cli.ConfigError, match=f"^{message}$"):
            cli.load_config(path)
        assert main(["run", path, "--init-f", "uniform", "--init-w", "uniform"]) == 2
        assert assert_one_error_line(capsys) == f"error: {message}\n"

    def test_learner_rejection_names_file(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", game="g1", d=3, eta="1/2", reference_f=0.123)
        with pytest.raises(cli.ConfigError, match="0.123 is not on the 1/3 grid") as exc:
            cli.load_config(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("kv, message", [
        (dict(game="g2", d=2, delta=0.9), "two-round game needs D > 2, got D=2"),
        (dict(game="g1", d=3, sweep_firm="pure", sweep_worker="diagonal"),
         "unknown axis kind 'diagonal'"),
        (dict(game="g1", d=3, parallelism=0), "parallelism must be an integer >= 1, got 0"),
    ], ids=["g2_tiny_grid", "axis_kind", "parallelism"])
    def test_owner_rejection_names_file(self, tmp_path, capsys, kv, message):
        # the game constructor and the sweep's own rules run at load time
        path = write_config(tmp_path / "c.cfg", eta="1/2", **kv)
        with pytest.raises(cli.ConfigError, match=message) as exc:
            cli.load_config(path)
        assert str(exc.value).startswith(f"{path}: ")
        for argv in (["run", path, "--init-f", "uniform", "--init-w", "uniform"], ["sweep", path]):
            assert main(argv) == 2
            assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kv, argv, message", [
        (dict(d=3), ["run", "--init-f", "uniform", "--init-w", "uniform"],
         "config requires game = g1 | g2"),
        (dict(game="g1"), ["run", "--init-f", "uniform", "--init-w", "uniform"],
         "config requires d and eta"),
        (dict(game="g1", d=3), ["sweep"], "sweep requires sweep_firm and sweep_worker axes"),
        (dict(game="g2", d=3, delta=0.9), ["audit", "--runs", "1"], "audit requires a g1 config"),
    ], ids=["no_game", "no_d", "no_sweep_axes", "audit_g2"])
    def test_missing_setting_names_file(self, tmp_path, capsys, kv, argv, message):
        # settings a file lacks, or a subcommand cannot use, name the file too
        path = write_config(tmp_path / "c.cfg", eta="1/2", **kv)
        assert main([argv[0], path, *argv[1:]]) == 2
        assert f"error: {path}: {message}\n" in capsys.readouterr().err

    def test_seed_is_a_flag_not_a_key(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5, seed=7)
        with pytest.raises(cli.ConfigError, match="unknown key 'seed'"):
            cli.load_config(path)
        cfg = write_config(tmp_path / "ok.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "0"]) == 0
        assert "seed 42" in capsys.readouterr().out


class TestRunCommand:
    def test_run_writes_certificate(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=30, eta=0.5,
                           output_dir=str(tmp_path))
        code = main(["run", cfg, "--init-f", "0", "--init-w", "1"])
        assert code == 0
        with open(tmp_path / "certificate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["eps"]) <= 1e-7
        assert rows[0]["converged_at"] != ""

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg"), "--init-f", "0", "--init-w", "0"])
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_zero_denominator_initial_exit_2(self, tmp_path, capsys):
        # a bad initial strategy names its flag, in both games
        g1 = write_config(tmp_path / "g1.cfg", game="g1", d=5, eta=0.5)
        g2 = write_config(tmp_path / "g2.cfg", game="g2", d=5, eta=0.5, delta=0.9)
        for cfg, init_f, init_w, message in [
            (g1, "1/0", "0", "--init-f must be a number, got '1/0'"),
            (g1, "0", "1e400", "--init-w must be a number, got '1e400'"),  # beyond a float
            (g2, "0.6,0", "0.6,1/0", "--init-w must be a number, got '1/0'"),
            (g2, "0.6,0", "0.6", "--init-w must be 'first,second' in the two-round game, got '0.6'"),
        ]:
            assert main(["run", cfg, "--init-f", init_f, "--init-w", init_w]) == 2
            assert assert_one_error_line(capsys) == f"error: {message}\n"

    def test_out_dir_naming_a_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "g1.cfg", game="g1", d=5, eta=0.5)
        (tmp_path / "taken").write_text("")
        assert main(["run", cfg, "--init-f", "0", "--init-w", "0",
                     "--out-dir", str(tmp_path / "taken")]) == 2
        assert "taken" in assert_one_error_line(capsys)

    def test_trajectory_row_count(self, tmp_path):
        d = 5
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=d, eta=0.5,
                           max_steps=10, output_dir=str(tmp_path))
        code = main(["run", cfg, "--init-f", "0", "--init-w", "1", "--dump-trajectory"])
        assert code == 0
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10 * 2 * (d + 1)
        float_masses = [float(r["mass"]) for r in rows]
        assert all(m >= 0 for m in float_masses)

    @pytest.mark.parametrize("kv, init_f, init_w", [
        (dict(game="g1", d=5, reference_w=0.6), "0.4", "uniform"),
        (dict(game="g2", d=3, delta=0.9), "1/3,0", "2/3,1/3"),
    ], ids=["g1", "g2"])
    def test_run_rows_match_trajectory(self, tmp_path, kv, init_f, init_w):
        cfg = write_config(tmp_path / "c.cfg", eta="1/2", output_dir=str(tmp_path), **kv)
        assert main(["run", cfg, "--init-f", init_f, "--init-w", init_w, "--dump-trajectory"]) == 0
        lc = cli.load_config(cfg).learner
        if kv["game"] == "g1":
            start = (games.pure_strategy(lc.grid, 0.4), games.uniform_strategy(lc.grid))
        else:
            start = (games.firm_vertex_plan(lc.game, offer=1 / 3, threshold=0.0),
                     games.worker_vertex_plan(lc.game, threshold=2 / 3, counter=1 / 3))
        traj = learner.run_dynamics(lc, *start, keep_history=True)
        cert = analysis.certify_epsilon_ne((traj.final_f, traj.final_w), lc.game)
        (row,) = read_rows(tmp_path / "certificate.csv")
        assert row == {
            "eps": g17(cert.eps), "gap_f": g17(cert.gap_f), "gap_w": g17(cert.gap_w),
            "br_f": g17(cert.br_f), "br_w": "" if cert.br_w is None else g17(cert.br_w),
            "structural_ne": str(cert.structural_ne).lower(),
            "converged_at": str(traj.converged_at),
        }
        rows = read_rows(tmp_path / "trajectory.csv")
        expected = [(step, agent, idx, mass)
                    for step, profile in enumerate(traj.history, start=1)
                    for agent, x in zip(("firm", "worker"), profile)
                    for idx, mass in enumerate(x)]
        assert [(int(r["step"]), r["agent"], int(r["action_index"]), float(r["mass"]))
                for r in rows] == expected

    def test_exact_run_from_uniform(self, tmp_path):
        # exact uniform initials are Fractions that sum to exactly one
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=4, eta="1/2", arithmetic="exact",
                           output_dir=str(tmp_path))
        assert main(["run", cfg, "--init-f", "uniform", "--init-w", "uniform"]) == 0
        (row,) = read_rows(tmp_path / "certificate.csv")
        assert float(row["eps"]) <= 1e-7 and row["converged_at"] != ""

    def test_g2_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", game="g2", d=5, eta=0.5, delta=0.9,
                           output_dir=str(tmp_path))
        code = main(["run", cfg, "--init-f", "0.6,0", "--init-w", "0.6,0.2"])
        assert code == 0
        with open(tmp_path / "certificate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["eps"]) <= 1e-7


class TestSweepCommand:
    def test_sweep_outputs(self, g1_config, tmp_path):
        assert main(["sweep", g1_config]) == 0
        out = tmp_path / "out"
        with open(out / "heatmap.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "firm_init", "worker_init", "u_w", "eps", "converged_at",
                "status", "credible_threat", "noncredible_threat",
            ]
            rows = list(reader)
        assert len(rows) == 36  # product of axis lengths
        assert all(r["status"] == "converged" for r in rows)
        with open(out / "summary.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["min_uw", "max_uw", "prop_ge_init", "prop_ge_ref"]
            srow = next(reader)
        assert 0.0 <= float(srow["min_uw"]) <= float(srow["max_uw"]) <= 1.0

    def test_heatmap_roundtrip_exact(self, g1_config, tmp_path):
        main(["sweep", g1_config])
        table = cli.read_heatmap_csv(tmp_path / "out" / "heatmap.csv")
        assert table.u_w.shape == (6, 6)
        assert not np.any(np.isnan(table.u_w))
        # 17-significant-digit floats reparse exactly
        from ftrl_bargain.learner import LearnerConfig
        from ftrl_bargain.games import ActionGrid, UltimatumGame
        from ftrl_bargain.metagame import sweep_initials
        sweep = sweep_initials(LearnerConfig(game=UltimatumGame(ActionGrid(5)), eta=0.5))
        for i in range(6):
            for j in range(6):
                assert table.u_w[i, j] == sweep.cells[i][j].u_w

    @pytest.mark.parametrize("axes", [("pure", "uniform"), ("uniform", "pure")])
    def test_summary_row_matches_sweep(self, tmp_path, axes):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta="1/2", reference_w=0.6,
                           sweep_firm=axes[0], sweep_worker=axes[1], output_dir=str(tmp_path))
        assert main(["sweep", cfg]) == 0
        lc = cli.load_config(cfg).learner
        summary = metagame.summarize(metagame.sweep_initials(lc, *axes), reference_w=0.6)
        (row,) = read_rows(tmp_path / "summary.csv")
        assert row == {key: "" if value is None else g17(value)
                       for key, value in vars(summary).items()}
        assert (row["prop_ge_init"] == "") == (axes[1] == "uniform")

    def test_no_converged_cell_exit_1(self, tmp_path, capsys):
        # the heatmap is written, the summary of no converged payoff is not
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5, max_steps=2,
                           sweep_firm="pure", sweep_worker="pure", output_dir=str(tmp_path))
        assert main(["sweep", cfg]) == 1
        assert "0/36 cells converged" in capsys.readouterr().err
        assert {r["status"] for r in read_rows(tmp_path / "heatmap.csv")} == {"max_steps"}
        assert not (tmp_path / "summary.csv").exists()

    def test_sweep_requires_axes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["sweep", cfg]) == 2

    def test_nonpositive_parallelism_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=3, eta=0.5,
                           sweep_firm="pure", sweep_worker="pure",
                           output_dir=str(tmp_path), parallelism=0)
        assert main(["sweep", cfg]) == 2
        assert "parallelism" in capsys.readouterr().err

    def test_g2_sweep_headers(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", game="g2", d=3, eta=0.5, delta=0.55,
                           sweep_firm="pure", sweep_worker="pure",
                           output_dir=str(tmp_path), parallelism=1)
        assert main(["sweep", cfg]) == 0
        with open(tmp_path / "heatmap.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "firm_init", "worker_init", "worker_counter", "firm_threshold",
                "u_w", "eps", "converged_at", "status", "credible_threat",
                "noncredible_threat",
            ]
            rows = list(reader)
        assert len(rows) == 16 * 16


class TestMetagameCommand:
    def test_metagame_from_heatmap(self, g1_config, tmp_path):
        main(["sweep", g1_config])
        out = tmp_path / "minimax.csv"
        code = main(["metagame", str(tmp_path / "out" / "heatmap.csv"),
                     "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        fields = {r["record"]: r for r in rows if r["record"] in ("value_w", "br_gap")}
        assert float(fields["br_gap"]["value"]) <= 1e-3
        mixes = [r for r in rows if r["record"] == "mix"]
        firm_mass = sum(float(r["value"]) for r in mixes if r["player"] == "firm")
        assert firm_mass == pytest.approx(1.0, abs=1e-6)

    def test_minimax_rows_match_solution(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", game="g2", d=3, eta="1/2", delta=0.55,
                           sweep_firm="pure", sweep_worker="pure", output_dir=str(tmp_path))
        assert main(["sweep", cfg]) == 0
        out = tmp_path / "minimax.csv"
        assert main(["metagame", str(tmp_path / "heatmap.csv"), "--out", str(out)]) == 0
        table = cli.read_heatmap_csv(tmp_path / "heatmap.csv")
        sol = metagame.minimax_solve(table.u_w, tol=1e-3)
        expected = [["value_w", "", "", g17(sol.value_w)], ["br_gap", "", "", g17(sol.br_gap)]]
        for player, labels, mix in (("firm", table.firm_inits, sol.row_mix),
                                    ("worker", table.worker_inits, sol.col_mix)):
            expected += [["mix", player, label, g17(p)]
                         for label, p in zip(labels, mix) if p > 1e-9]
        with open(out) as fh:
            assert list(csv.reader(fh)) == [["record", "player", "init", "value"]] + expected

    def test_single_cell_heatmap(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "firm_init,worker_init,u_w,eps,converged_at,status,credible_threat,noncredible_threat\n"
            "0,0,0.25,0,10,converged,,\n"
        )
        out = tmp_path / "m.csv"
        assert main(["metagame", str(path), "--out", str(out)]) == 0
        rows = {r["record"]: r for r in csv.DictReader(open(out)) if r["record"] == "value_w"}
        assert float(rows["value_w"]["value"]) == pytest.approx(0.25, abs=1e-9)

    def test_partial_heatmap_refused(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text(
            "firm_init,worker_init,u_w,eps,converged_at,status,credible_threat,noncredible_threat\n"
            "0,0,0.25,0,10,converged,,\n"
            "0,1,0.5,0,,max_steps,,\n"
            "1,0,0.3,0,9,converged,,\n"
            "1,1,0.4,0,9,converged,,\n"
        )
        assert main(["metagame", str(path)]) == 2
        assert assert_one_error_line(capsys) == (
            f"error: {path}: heatmap has non-converged cells; pass --allow-partial to drop them\n")
        # allow-partial drops the incomplete row
        out = tmp_path / "m.csv"
        assert main(["metagame", str(path), "--allow-partial", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["init"] for r in rows if r["player"] == "firm"] == ["1"]
        assert float(rows[0]["value"]) == pytest.approx(0.4, abs=1e-12)

    def test_repeated_cell_refused(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text(
            "firm_init,worker_init,u_w,eps,converged_at,status,credible_threat,noncredible_threat\n"
            "0,0,0.5,0,10,converged,,\n"
            "0,1,0.5,0,10,converged,,\n"
            "1,0,0.3,0,9,converged,,\n"
            "1,1,0.4,0,9,converged,,\n"
            "0,0,0.9,0,10,converged,,\n"
        )
        assert main(["metagame", str(path), "--out", str(tmp_path / "m.csv")]) == 2
        assert f"{path}: cell (firm 0, worker 0) is listed twice" in capsys.readouterr().err
        with pytest.raises(cli.ConfigError, match=r"cell \(firm 0, worker 0\) is listed twice"):
            cli.read_heatmap_csv(path)

    def test_no_converged_row_names_file(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text(
            "firm_init,worker_init,u_w,eps,converged_at,status,credible_threat,noncredible_threat\n"
            "0,0,0.25,0,,max_steps,,\n"
        )
        assert main(["metagame", str(path), "--allow-partial"]) == 2
        assert f"{path}: no fully converged firm rows remain" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("firm_init,worker_init,worker_counter,u_w,eps,converged_at,status\n0,0,0,0.25,0,10,converged\n",
         ": heatmap lacks columns firm_threshold"),
        ("firm_init,worker_init,eps,converged_at,status\n0,0,0,10,converged\n",
         ": heatmap lacks columns u_w"),
        ("firm_init,worker_init,u_w,eps,converged_at,status\n0,0,0.25,0,10,converged\n0,1,0.5\n",
         ":3: row has fewer fields than the header"),
        ("firm_init,worker_init,u_w,eps,converged_at,status\n0,0,0.25,0,10,converged,extra\n",
         ":2: row has more fields than the header"),
        ("firm_init,worker_init,u_w,eps,converged_at,status\n0,0,0.25,0,10,converged\n0,1,abc,0,10,converged\n",
         ":3: u_w must be a number, got 'abc'"),
        ("firm_init,worker_init,u_w,eps,converged_at,status\n", ": heatmap has no cells"),
    ], ids=["no_firm_threshold", "no_u_w", "short_row", "long_row", "non_numeric_u_w", "header_only"])
    def test_malformed_heatmap_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match=message):
            cli.read_heatmap_csv(path)
        assert main(["metagame", str(path), "--out", str(tmp_path / "m.csv")]) == 2
        assert f"{path}{message}" in assert_one_error_line(capsys)

    def test_negative_tol_exit_2(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text(
            "firm_init,worker_init,u_w,eps,converged_at,status,credible_threat,noncredible_threat\n"
            "0,0,0.25,0,10,converged,,\n"
        )
        assert main(["metagame", str(path), "--tol", "-1"]) == 2
        assert "tol" in capsys.readouterr().err


class TestAuditCommand:
    def test_vacuous_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "0"]) == 0

    def test_small_audit_clean(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "10", "--seed", "42", "--exact-compare", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_negative_runs_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "-3"]) == 2
        captured = capsys.readouterr()
        assert "non-negative" in captured.err and "clean" not in captured.out

    def test_negative_exact_compare_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "1", "--exact-compare", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_run_audit_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            cli.run_audit(-1, seed=0)
        with pytest.raises(ValueError):
            cli.run_audit(0, seed=0, exact_compare=-1)

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        # the config that `run` rejects is rejected by `audit` too, before any run
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=3, eta="1/2", reference_f=0.123,
                           max_steps=1, arithmetic="exact")
        assert main(["run", cfg, "--init-f", "0", "--init-w", "0"]) == 2
        assert "0.123 is not on the 1/3 grid" in capsys.readouterr().err
        assert main(["audit", cfg, "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert "0.123 is not on the 1/3 grid" in captured.err and "clean" not in captured.out

    def test_requires_g1(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", game="g2", d=5, eta=0.5, delta=0.9)
        assert main(["audit", cfg, "--runs", "1"]) == 2

    def test_draws_are_valid_initial_strategies(self):
        # the audit's stacks are not checked before they run: every draw's
        # mixture is valid by construction from positive integer weights
        for seed in range(200):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                d, _, *weights = cli._audit_draw(rng)
                for w in weights:
                    x = cli._audit_inits(w)
                    assert x.shape == (d + 1,) and (x > 0).all() and sum(x) == 1
                    assert geometry.check_simplex(x.astype(float))

    @pytest.mark.parametrize("n_runs, seed, exact_compare", [
        (100, 42, 20), (60, 1, 10), (60, 7, 10), (60, 2024, 10),
    ])
    def test_stacks_match_one_run_per_draw(self, n_runs, seed, exact_compare):
        # one stack per grid size reports what one run per draw reports
        report = cli.run_audit(n_runs, seed, exact_compare)
        expected = oracles.audit_loop(n_runs, seed, exact_compare)
        assert report == expected
        assert report.lines() == expected.lines()

    def test_stacks_attribute_faults_to_runs(self, monkeypatch):
        # a faulty float projection that acts on each row's own entries
        # alone: violations land on the same run and step as one run per
        # draw puts them.  It reverses the first four entries, which every
        # audit grid has, so no mass moves into a narrower row's padding.
        def reversed_head(v):
            x = geometry.project_simplex(v)
            x[:, :4] = x[:, 3::-1]
            return x

        monkeypatch.setitem(learner.GAME_DEFAULTS, games.UltimatumGame,
                            dict(conv_threshold=1e-7, max_steps=150))
        monkeypatch.setattr(learner, "_project_simplex", reversed_head)
        report = cli.run_audit(30, 42, exact_compare=6)
        expected = oracles.audit_loop(30, 42, exact_compare=6)
        assert report == expected and report.lines() == expected.lines()
        names = {name for name, *_ in report.violations}
        assert {"claim2_order", "exact_float_agreement"} <= names
        assert len({run for _, run, _, _ in report.violations}) == 30


class TestOracleCommand:
    def test_table_and_verdict(self, capsys):
        assert main(["oracle", "5", "1/2", "2", "1/2", "1/2", "50"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "n,w_closed,f_closed,w_iter,f_iter,abs_diff"
        assert len(lines) == 1 + 51 + 1
        assert lines[-1].startswith("verdict: decreases")
        diffs = [float(l.split(",")[-1]) for l in lines[1:-1]]
        assert max(diffs) <= 1e-9

    def test_boundary_constant_rows(self, capsys):
        assert main(["oracle", "5", "1/2", "2", "1/4", "1", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        for line in out[1:-1]:
            _, w_cl, f_cl, w_it, f_it, _ = line.split(",")
            assert float(w_cl) == pytest.approx(0.25, abs=1e-12)
            assert float(f_cl) == pytest.approx(1.0, abs=1e-12)
        assert "asymptotic" in out[-1]

    def test_out_of_range_exit_2(self, capsys):
        assert main(["oracle", "5", "1/2", "1", "1/2", "1/2", "5"]) == 2

    def test_negative_n_exit_2(self, capsys):
        assert main(["oracle", "5", "1/2", "2", "1/2", "1/2", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-negative" in captured.err

    @pytest.mark.parametrize("argv", [["5", "1/0", "2", "1/2", "1/2", "5"],
                                      ["5", "1/2", "2", "1/0", "1/2", "5"],
                                      ["5", "1/2", "2", "1/2", "1/0", "5"]])
    def test_zero_denominator_exit_2(self, capsys, argv):
        name = ["D", "eta", "k", "w0", "f0", "n"][argv.index("1/0")]
        assert main(["oracle", *argv]) == 2
        assert assert_one_error_line(capsys) == f"error: {name} must be a number, got '1/0'\n"

    def test_table_matches_fraction_iteration(self, capsys):
        # The table as printed from plain Fraction iteration, byte for byte.
        for D, eta, k, w0, f0, n in ((5, "1/2", 2, "1/2", "1/2", 50), (5, "1/2", 2, "1/4", "1", 5)):
            assert main(["oracle", str(D), eta, str(k), w0, f0, str(n)]) == 0
            out = capsys.readouterr().out
            p = analysis.recurrence_params(D, Fraction(eta), k, Fraction(w0), Fraction(f0))
            lines = ["n,w_closed,f_closed,w_iter,f_iter,abs_diff"]
            max_diff = 0.0
            steps = oracles.iterate_mass_recurrence(p.A, p.B, p.C, p.w0, p.f0, n)
            for i, (w_it, f_it) in enumerate(steps):
                w_cl, f_cl = analysis.closed_form_mp(p, i, dps=60)
                with mpmath.workdps(60):
                    diff = float(max(
                        abs(w_cl - mpmath.mpf(w_it.numerator) / w_it.denominator),
                        abs(f_cl - mpmath.mpf(f_it.numerator) / f_it.denominator),
                    ))
                max_diff = max(max_diff, diff)
                lines.append(f"{i},{float(w_cl):.17g},{float(f_cl):.17g},"
                             f"{float(w_it):.17g},{float(f_it):.17g},{diff:.3e}")
            verdict = analysis.classify_recurrence(p).value
            lines.append(f"verdict: {verdict} (max |diff| {max_diff:.3e})")
            assert out == "\n".join(lines) + "\n"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["not-a-command"]) == 2
        assert assert_one_error_line(capsys).startswith("error: argument command: invalid choice")

    def test_no_args(self, capsys):
        assert main([]) == 2
        assert "command" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv, name, value", [
        (["oracle", "5", "1/2", "2.5", "1/2", "1/2", "5"], "k", "2.5"),
        (["metagame", "heatmap.csv", "--tol", "abc"], "--tol", "abc"),
        (["audit", "experiment.cfg", "--runs", "1.5"], "--runs", "1.5"),
    ], ids=["oracle_k", "metagame_tol", "audit_runs"])
    def test_unparsable_argument_is_one_error_line(self, capsys, argv, name, value):
        # argparse's own errors print one line naming the argument, no usage line
        assert main(argv) == 2
        err = assert_one_error_line(capsys)
        assert err.startswith(f"error: argument {name}: ") and f"'{value}'" in err

    @pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ") and captured.err == ""
