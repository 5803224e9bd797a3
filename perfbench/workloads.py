"""The three workloads: inputs, the timed stages of one pass, and its outputs.

A pass runs a workload's stages in order; the results of a pass map each
stage name to what its stage returned.  Every call into the package looks
its function up on the module when the stage runs (``metagame.sweep_initials``,
not a name imported or bound earlier), so the tracer's wrappers see it.  Why
each workload exists is in README.md.
"""

from __future__ import annotations

import functools
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from ftrl_bargain import analysis, cli, games, learner, metagame
from ftrl_bargain.games import WORKER, ActionGrid, TwoRoundGame, UltimatumGame
from ftrl_bargain.learner import LearnerConfig

import check

OUT_DIR = Path(__file__).resolve().parent / "out"   # traces and scratch files

ETA = 0.5
POOL_WORKERS = 2                      # the two-round sweep's process pool

G1_D = 30
G1_REFERENCES = {"zero": (None, None), "sixth_half": (1 / 6, 1 / 2), "half_high": (1 / 2, 29 / 30)}
MINIMAX_TOL = 1e-3

G2_D = 3
G2_DELTAS = (0.1, 0.55, 0.9)

THREAT_D, THREAT_DELTA = 5, 0.9
THREAT_RUNS = {"all_zero": ((0.0, 0.0), (0.0, 0.0)), "mid_inits": ((0.6, 0.0), (0.6, 0.2))}
AUDIT_RUNS, AUDIT_EXACT = 100, 20
# The audit's cost is dominated by a few exact-Fraction reruns and ranges from
# 1.8 s to over 20 s between seeds, so its seed stays at the acceptance
# suite's value; the run's seed picks the oracle draws.
AUDIT_SEED = 42
ORACLE_DRAWS = 1000
ORACLE_N = (1, 10, 100)               # closed form vs exact iteration at these steps
ORACLE_CHUNKS = 4                     # timed stages the draws are split into


def _init_key(entry) -> str:
    if isinstance(entry, tuple):
        return "|".join(repr(float(v)) for v in entry)
    return repr(float(entry))


def _steps(sweep) -> int:
    cap = sweep.config.steps_cap
    return sum(c.converged_at or cap for row in sweep.cells for c in row)


def _cell_rows(sweep, lead: str, two_round: bool) -> dict:
    rows = {}
    for i, fe in enumerate(sweep.firm_axis):
        for j, we in enumerate(sweep.worker_axis):
            c = sweep.cells[i][j]
            row = {"u_w": c.u_w, "eps": c.eps, "converged_at": c.converged_at, "status": c.status}
            if two_round:
                t = c.threat
                row.update(eq_offer=t.equilibrium_offer, credible=t.credible_worker_threat,
                           noncredible=t.noncredible_firm_threat)
            rows[(lead, _init_key(fe), _init_key(we))] = row
    return rows


class OneshotGrid:
    """Table 1: three D=30 one-shot sweeps, each heatmap through CSV, then minimax."""

    name = "oneshot_grid"
    parallelism = 1

    def setup(self, seed: int) -> dict:
        return {
            name: LearnerConfig(game=UltimatumGame(ActionGrid(G1_D)), eta=ETA,
                                reference_f=ref_f, reference_w=ref_w)
            for name, (ref_f, ref_w) in G1_REFERENCES.items()
        }

    def stages(self, inputs: dict, parallelism: int) -> list:
        def solve(cfg, name):
            sweep = metagame.sweep_initials(cfg, parallelism=parallelism)
            OUT_DIR.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                path = Path(tmp) / f"{name}-heatmap.csv"
                cli.write_heatmap_csv(path, sweep)
                table = cli.read_heatmap_csv(path)
            return sweep, table, metagame.minimax_solve(table.u_w, tol=MINIMAX_TOL)

        return [(name, functools.partial(solve, cfg, name)) for name, cfg in inputs.items()]

    def reference(self) -> dict:
        return {"cells": check.read_table("oneshot_cells"),
                "minimax": check.read_table("oneshot_minimax")}

    def outputs(self, results: dict) -> dict:
        cells, minimax = {}, {}
        for name, (sweep, table, sol) in results.items():
            cells.update(_cell_rows(sweep, name, two_round=False))
            csv_ok = bool(np.array_equal(table.u_w, sweep.payoff_matrix(), equal_nan=True))
            minimax[(name,)] = {"value_w": sol.value_w, "br_gap": sol.br_gap,
                                "iterations": sol.iterations, "csv_ok": csv_ok}
        return {"cells": cells, "minimax": minimax}

    def check(self, tally: check.Tally, out: dict, ref: dict) -> None:
        check.check_cells(tally, out["cells"], ref["cells"], ("status", "converged_at"))
        check.check_minimax(tally, out["minimax"], ref["minimax"])

    def counts(self, results: dict) -> dict:
        return {"learner.steps": sum(_steps(s) for s, _, _ in results.values()),
                "metagame.minimax_iters": sum(sol.iterations for _, _, sol in results.values())}


class TworoundSweep:
    """Two-round pure x pure sweeps at D=3 for three discounts, on the process pool."""

    name = "tworound_sweep"
    parallelism = POOL_WORKERS

    def setup(self, seed: int) -> dict:
        return {delta: LearnerConfig(game=TwoRoundGame(ActionGrid(G2_D), delta), eta=ETA)
                for delta in G2_DELTAS}

    def stages(self, inputs: dict, parallelism: int) -> list:
        def sweep(cfg):
            return metagame.sweep_initials(cfg, parallelism=parallelism)

        return [(delta, functools.partial(sweep, cfg)) for delta, cfg in inputs.items()]

    def reference(self) -> dict:
        return {"cells": check.read_table("tworound_cells")}

    def outputs(self, results: dict) -> dict:
        cells = {}
        for delta, sweep in results.items():
            cells.update(_cell_rows(sweep, repr(delta), two_round=True))
        return {"cells": cells}

    def check(self, tally: check.Tally, out: dict, ref: dict) -> None:
        check.check_cells(tally, out["cells"], ref["cells"],
                          ("status", "converged_at", "eq_offer", "credible", "noncredible"))

    def counts(self, results: dict) -> dict:
        return {"learner.steps": sum(_steps(s) for s in results.values())}


@dataclass(frozen=True)
class VerifyInputs:
    threat_cfg: LearnerConfig
    threat_plans: dict
    draws: list                      # (pool index, D, eta, k, w0, f0)


def oracle_draw(d: int, k: int, eta_milli: int, w_milli: int, f_milli: int):
    """Recurrence inputs of one pool entry, as in acceptance criterion 7."""
    thresh = Fraction(1, d - k + 1)
    return (d, Fraction(eta_milli, 1000), k,
            thresh + (1 - thresh) * Fraction(w_milli, 1000), Fraction(f_milli, 1000))


class Verify:
    """Single runs: the monitored audit, the two criterion-4 runs, recurrence draws."""

    name = "verify"
    parallelism = 1

    def __init__(self):
        self._pool = None

    def pool(self) -> dict:
        if self._pool is None:
            self._pool = check.read_table("oracle_pool")
        return self._pool

    def setup(self, seed: int) -> VerifyInputs:
        game = TwoRoundGame(ActionGrid(THREAT_D), THREAT_DELTA)
        plans = {name: (games.firm_vertex_plan(game, *f), games.worker_vertex_plan(game, *w))
                 for name, (f, w) in THREAT_RUNS.items()}
        pool = self.pool()
        picks = np.random.default_rng(seed).choice(len(pool), size=ORACLE_DRAWS, replace=False)
        draws = []
        for idx in picks.tolist():
            p = pool[(str(idx),)]
            draws.append((idx,) + oracle_draw(p["d"], p["k"], p["eta_milli"],
                                              p["w_milli"], p["f_milli"]))
        return VerifyInputs(LearnerConfig(game=game, eta=ETA), plans, draws)

    def stages(self, inputs: VerifyInputs, parallelism: int) -> list:
        def audit():
            return cli.run_audit(AUDIT_RUNS, AUDIT_SEED, exact_compare=AUDIT_EXACT)

        def threat_runs():
            cfg = inputs.threat_cfg
            runs = {}
            for name, (init_f, init_w) in inputs.threat_plans.items():
                traj = learner.run_dynamics(cfg, init_f, init_w)
                profile = (traj.final_f, traj.final_w)
                cert = analysis.certify_epsilon_ne(profile, cfg.game)
                rep = analysis.detect_threats(profile, cfg.game, firm_cum_util=traj.cum_util_f)
                runs[name] = (traj, cert, rep)
            return runs

        def oracle(draws):
            out = []
            with mpmath.workdps(50):
                for idx, *args in draws:
                    p = analysis.recurrence_params(*args)
                    verdict = analysis.classify_recurrence(p)
                    diff = mpmath.mpf(0)
                    for n in ORACLE_N:
                        w_cl, f_cl = analysis.closed_form_mp(p, n)
                        w_it, f_it = analysis.iterate_recurrence(p, n)
                        diff = max(diff,
                                   abs(w_cl - mpmath.mpf(w_it.numerator) / w_it.denominator),
                                   abs(f_cl - mpmath.mpf(f_it.numerator) / f_it.denominator))
                    out.append((idx, verdict.value, float(diff)))
            return out

        chunk = -(-len(inputs.draws) // ORACLE_CHUNKS)
        return [("audit", audit), ("threat_runs", threat_runs)] + [
            (f"oracle{i}", functools.partial(oracle, inputs.draws[i * chunk:(i + 1) * chunk]))
            for i in range(ORACLE_CHUNKS)
        ]

    def reference(self) -> dict:
        return {"runs": check.read_table("threat_runs"), "pool": self.pool()}

    def outputs(self, results: dict) -> dict:
        runs = {}
        game = TwoRoundGame(ActionGrid(THREAT_D), THREAT_DELTA)
        for name, (traj, cert, rep) in results["threat_runs"].items():
            fb_w = games.two_round_feedback(WORKER, traj.final_f, game)
            runs[(name,)] = {
                "u_w": float(np.asarray(traj.final_w) @ fb_w), "eps": cert.eps,
                "converged_at": traj.converged_at, "eq_offer": rep.equilibrium_offer,
                "worker_accepts_eq": rep.worker_accepts_eq,
                "credible": rep.credible_worker_threat,
                "witness_offer": rep.credible_witness_offer,
                "witness_counter": rep.credible_witness_counter,
                "noncredible": rep.noncredible_firm_threat,
            }
        audit = results["audit"]
        draws = [d for i in range(ORACLE_CHUNKS) for d in results[f"oracle{i}"]]
        return {"runs": runs, "draws": draws,
                "audit_failed_runs": {v[1] for v in audit.violations},
                "audit_exact": audit.exact_compared}

    def check(self, tally: check.Tally, out: dict, ref: dict) -> None:
        check.check_audit(tally, AUDIT_RUNS, out["audit_failed_runs"], out["audit_exact"],
                          AUDIT_EXACT)
        check.check_cells(tally, out["runs"], ref["runs"],
                          ("converged_at", "eq_offer", "worker_accepts_eq", "credible",
                           "witness_offer", "witness_counter", "noncredible"))
        check.check_oracle(tally, out["draws"], ref["pool"])

    def counts(self, results: dict) -> dict:
        return {"threat_run_steps": sum(t.steps for t, _, _ in results["threat_runs"].values()),
                "audit_exact_reruns": results["audit"].exact_compared}


WORKLOADS = {w.name: w for w in (OneshotGrid(), TworoundSweep(), Verify())}


def run_untimed(wl, inputs, parallelism: int) -> dict:
    """One pass without timing: stage name -> stage result."""
    return {name: stage() for name, stage in wl.stages(inputs, parallelism)}
