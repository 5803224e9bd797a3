import csv
import numpy as np
import pytest

from ftrl_bargain import cli
from ftrl_bargain.cli import main


def write_config(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def g1_config(tmp_path):
    return write_config(
        tmp_path / "g1.cfg",
        game="g1", d=5, eta=0.5,
        sweep_firm="pure", sweep_worker="pure",
        output_dir=str(tmp_path / "out"),
        parallelism=1,
    )


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg", game="g1", d=30, eta="1/2",
            reference_f="1/6", reference_w="1/2", max_steps=8000,
        )
        cfg = cli.load_config(path)
        assert cfg.d == 30 and cfg.eta == 0.5
        assert cfg.reference_f == pytest.approx(1 / 6)
        assert cfg.to_learner_config().steps_cap == 8000

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5, bogus=1)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_zero_reference_keyword(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5,
                            reference_f="zero", reference_w="zero")
        cfg = cli.load_config(path)
        assert cfg.reference_f is None and cfg.reference_w is None

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            cli.load_config("/nonexistent/path.cfg")

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\ngame = g1\nd = 5\neta = 0.5\n")
        assert cli.load_config(path).game == "g1"


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
        # allow-partial drops the incomplete row
        out = tmp_path / "m.csv"
        assert main(["metagame", str(path), "--allow-partial", "--out", str(out)]) == 0


class TestAuditCommand:
    def test_vacuous_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "0"]) == 0

    def test_small_audit_clean(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", game="g1", d=5, eta=0.5)
        assert main(["audit", cfg, "--runs", "10", "--seed", "42", "--exact-compare", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_requires_g1(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", game="g2", d=5, eta=0.5, delta=0.9)
        assert main(["audit", cfg, "--runs", "1"]) == 2


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


class TestExitCodes:
    def test_usage_error(self):
        assert main(["not-a-command"]) == 2

    def test_no_args(self):
        assert main([]) == 2
