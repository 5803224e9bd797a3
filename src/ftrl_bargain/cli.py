"""Experiment orchestration: config files, subcommands, and CSV persistence.

Subcommands: ``run`` (one trajectory plus certificate), ``sweep`` (heatmap and
summary over initial strategies), ``metagame`` (minimax of a heatmap),
``audit`` (randomized invariant monitors), and ``oracle`` (closed-form vs
iterated recurrence table).  Exit codes: 0 success, 1 audit violation or a
sweep in which no cell converged, 2 usage, config or file error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, learner, metagame
from .games import FIRM, WORKER, ActionGrid, TwoRoundGame, UltimatumGame
from .learner import MONITORS, LearnerConfig, MonitorSuite

__all__ = ["ExperimentConfig", "load_config", "run_audit", "AuditReport", "main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _number(name: str, text: str, kind: type = float):
    """``text`` as an ``int``, ``float`` or ``Fraction``, or a ConfigError naming ``name``.

    A float or a Fraction takes a rational's text (``0.5``, ``1e-5``, ``1/6``);
    a float is its nearest double.  NaN and infinities are refused.
    """
    try:
        if kind is float and "/" not in text and math.isfinite(value := float(text)):
            return value   # rounds as float(Fraction(text)) does, ~15x faster
        return int(text) if kind is int else kind(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {text!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A config file: the run it describes, plus the settings of the subcommands."""

    learner: LearnerConfig
    sweep_firm: Optional[str] = None
    sweep_worker: Optional[str] = None
    output_dir: str = "."
    parallelism: int = 1             # processes of a sweep

    def __post_init__(self):
        """Check the sweep settings by the sweep's own rules, so a bad file fails at load."""
        for kind in (self.sweep_firm, self.sweep_worker):
            if kind is not None:
                metagame._axis(self.learner.game, kind)
        object.__setattr__(self, "parallelism", metagame._check_parallelism(self.parallelism))


def _reference(key: str, text: str) -> Optional[float]:
    return None if text == "zero" else _number(key, text)


# Value parser per config key; keys not listed stay strings.  ``eta`` stays
# rational so that exact-mode runs share the float path's rate.
_PARSERS = {
    **{key: partial(_number, key, kind=int) for key in ("d", "max_steps", "parallelism")},
    "eta": partial(_number, "eta", kind=Fraction),
    **{key: partial(_number, key) for key in ("delta", "conv_threshold")},
    **{key: partial(_reference, key) for key in ("reference_f", "reference_w")},
}
# Config keys: the three that pick the game, then the other fields of
# LearnerConfig and of ExperimentConfig.
_LEARNER_KEYS = tuple(f.name for f in fields(LearnerConfig) if f.name != "game")
_KEYS = ("game", "d", "delta", *_LEARNER_KEYS,
         *(f.name for f in fields(ExperimentConfig) if f.name != "learner"))


def _game(kind: str, d: int, delta: Optional[float]):
    if kind == "g1":
        if delta is not None:
            raise ConfigError("delta applies only to game = g2")
        return UltimatumGame(ActionGrid(d))
    if delta is None:
        raise ConfigError("two-round config requires delta")
    return TwoRoundGame(ActionGrid(d), delta)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; any bad value raises ``ConfigError``."""
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    if raw.get("game") not in ("g1", "g2"):
        raise ConfigError(f"{path}: config requires game = g1 | g2")
    if "d" not in raw or "eta" not in raw:
        raise ConfigError(f"{path}: config requires d and eta")
    try:
        values = {k: _PARSERS.get(k, str)(v) for k, v in raw.items()}
        game = _game(values.pop("game"), values.pop("d"), values.pop("delta", None))
        learner = LearnerConfig(game=game, **{k: values.pop(k) for k in _LEARNER_KEYS
                                              if k in values})
        return ExperimentConfig(learner, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV writers / readers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_record(path: Path, record, **extra) -> None:
    """One-row CSV of a record dataclass: its fields, then ``extra``, as columns."""
    values = {**asdict(record), **extra}
    _write_csv(path, list(values), [[_fmt(v) for v in values.values()]])


def _labels(entry) -> tuple[str, str]:
    """Label columns of one axis entry: its two values, or ``uniform`` and a blank.

    A one-shot entry is a single value; its second label is blank.
    """
    if entry == "uniform":
        return "uniform", ""
    first, second = entry if isinstance(entry, tuple) else (entry, None)
    return _fmt(first), _fmt(second)


def write_heatmap_csv(path: Path, sweep: metagame.SweepResult) -> None:
    is_g2 = isinstance(sweep.config.game, TwoRoundGame)
    header = ["firm_init", "worker_init"]
    if is_g2:
        header += ["worker_counter", "firm_threshold"]
    header += ["u_w", "eps", "converged_at", "status", "credible_threat", "noncredible_threat"]
    firm = [_labels(e) for e in sweep.firm_axis]
    worker = [_labels(e) for e in sweep.worker_axis]

    def row(i, j):
        (f_first, f_second), (w_first, w_second) = firm[i], worker[j]
        lead = [f_first, w_first, w_second, f_second] if is_g2 else [f_first, w_first]
        cell = sweep.cells[i][j]
        threat = cell.threat
        return lead + [
            _fmt(cell.u_w), _fmt(cell.eps), _fmt(cell.converged_at), cell.status,
            _fmt(threat.credible_worker_threat) if threat else "",
            _fmt(threat.noncredible_firm_threat) if threat else "",
        ]

    rows, cols = sweep.shape
    _write_csv(path, header, (row(i, j) for i in range(rows) for j in range(cols)))


@dataclass
class HeatmapTable:
    """Parsed heatmap.csv: row/column init labels plus per-cell records."""

    firm_inits: list[str]
    worker_inits: list[str]
    u_w: np.ndarray
    status: list[list[str]]


def read_heatmap_csv(path: Path) -> HeatmapTable:
    firm: dict[str, int] = {}
    worker: dict[str, int] = {}
    records: dict[tuple[int, int], tuple[float, str]] = {}
    with path.open() as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "firm_init" not in reader.fieldnames:
            raise ConfigError(f"{path}: not a heatmap file")
        is_g2 = "worker_counter" in reader.fieldnames
        needed = ["worker_init", "u_w", "status"] + (["firm_threshold"] if is_g2 else [])
        missing = [name for name in needed if name not in reader.fieldnames]
        if missing:
            raise ConfigError(f"{path}: heatmap lacks columns {', '.join(missing)}")
        for row in reader:
            if None in row:   # DictReader files the extra fields under the key None
                raise ConfigError(f"{path}:{reader.line_num}: row has more fields than the header")
            if None in row.values():
                raise ConfigError(f"{path}:{reader.line_num}: row has fewer fields than the header")
            fkey = row["firm_init"] + ("|" + row["firm_threshold"] if is_g2 else "")
            wkey = row["worker_init"] + ("|" + row["worker_counter"] if is_g2 else "")
            i = firm.setdefault(fkey, len(firm))
            j = worker.setdefault(wkey, len(worker))
            if (i, j) in records:
                raise ConfigError(f"{path}: cell (firm {fkey}, worker {wkey}) is listed twice")
            records[i, j] = _number(f"{path}:{reader.line_num}: u_w", row["u_w"]), row["status"]
    if not records:
        raise ConfigError(f"{path}: heatmap has no cells")
    u = np.full((len(firm), len(worker)), np.nan)
    status = [["missing"] * len(worker) for _ in firm]
    for (i, j), (uw, st) in records.items():
        u[i, j] = uw
        status[i][j] = st
    return HeatmapTable(list(firm), list(worker), u, status)


# ---------------------------------------------------------------------------
# Invariant audit
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    seed: int
    n_runs: int
    violations: list[tuple[str, int, int, str]] = field(default_factory=list)
    exact_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"audit: {self.n_runs} runs, seed {self.seed}, "
               f"{self.exact_compared} exact-mode comparisons"]
        for name in (*MONITORS, "exact_float_agreement"):
            hits = [v for v in self.violations if v[0] == name]
            if hits:
                run, step = hits[0][1], hits[0][2]
                out.append(f"{name}: {len(hits)} violations (first: run {run}, step {step})")
            else:
                out.append(f"{name}: 0 violations")
        return out


def _audit_draw(rng: np.random.Generator):
    d = int(rng.integers(3, 31))
    eta = Fraction(int(rng.integers(10, 1001)), 1000)
    weights_f = rng.integers(1, 100, size=d + 1)
    # The firm-unimodality law conditions on the worker's whole history being
    # sorted; an unsorted initial mixture pollutes the cumulative sum at every
    # later step, so the worker draw is random but non-increasing.
    weights_w = np.sort(rng.integers(1, 100, size=d + 1))[::-1]
    return d, eta, weights_f, weights_w


def _audit_inits(weights: np.ndarray, exact: bool) -> np.ndarray:
    """A draw's integer weights as a mixture: floats, or ``Fraction``s in exact mode."""
    total = int(weights.sum())
    if exact:
        return np.array([Fraction(int(v), total) for v in weights], dtype=object)
    return weights.astype(float) / total


def _audit_stacks(draws: list, runs: list[int], arithmetic: str) -> dict:
    """The draws ``runs`` as lockstep stacks, each row at its own eta.

    Float draws of every grid size share one stack on the widest grid,
    which ``run_lockstep`` pads row by row; exact draws run as one stack
    per grid size, as the exact kernel does not pad and costs the same per
    row however its rows are stacked.  :func:`_audit_inits` makes every
    row a valid mixture.  Each float stack's observer is one
    :class:`MonitorSuite`.  Returns, by run index, the run's
    :class:`Trajectory` and its monitor violations as
    ``(monitor, run, step, detail)`` (none when exact).
    """
    exact = arithmetic == "exact"
    stacks: dict[int, list[int]] = {}
    for i in runs:
        stacks.setdefault(draws[i][0] if exact else 0, []).append(i)
    out = {}
    for idx in stacks.values():
        cfg = LearnerConfig(game=UltimatumGame(ActionGrid(max(draws[i][0] for i in idx))),
                            eta=draws[idx[0]][1], arithmetic=arithmetic)
        inits = [(_audit_inits(draws[i][2], exact), _audit_inits(draws[i][3], exact))
                 for i in idx]
        suite = None if exact else MonitorSuite(cfg)
        run = learner.run_lockstep(cfg, *([pair[a] for pair in inits] for a in (0, 1)),
                                   observe=suite, eta=[draws[i][1] for i in idx])
        found = {i: [] for i in idx}
        for name, row, step, detail in [] if exact else suite.violations:
            found[idx[row]].append((name, idx[row], step, detail))
        out.update((i, (run.trajectory(row, cfg.steps_cap), found[i])) for row, i in enumerate(idx))
    return out


def run_audit(n_runs: int, seed: int, exact_compare: int = 20) -> AuditReport:
    """Randomized trajectories with every structural monitor armed.

    Draws D in [3, 30], a rational learning rate in (0, 1], and random initial
    mixtures.  The first ``exact_compare`` draws with D <= 10 are re-run in
    exact rational arithmetic and must match the float path to 1e-12.
    All draws are drawn first; the float runs then go through one monitored
    ``run_lockstep`` stack across all grid sizes, each row padded to the
    widest grid and run at its own eta, watched by one :class:`MonitorSuite`,
    and the exact reruns through one exact stack per grid size.  The report
    lists each run's monitor violations, then its exact comparison, in run
    order, as if the runs had gone one at a time.
    Negative counts raise ``ValueError``; ``n_runs = 0`` is a vacuous pass.
    """
    if n_runs < 0 or exact_compare < 0:
        raise ValueError(f"audit counts must be non-negative, got {n_runs} runs "
                         f"and {exact_compare} exact comparisons")
    rng = np.random.default_rng(seed)
    draws = [_audit_draw(rng) for _ in range(n_runs)]
    floats = _audit_stacks(draws, list(range(n_runs)), "float")
    rerun = [i for i, (d, *_) in enumerate(draws) if d <= 10][:exact_compare]
    exacts = _audit_stacks(draws, rerun, "exact")
    report = AuditReport(seed=seed, n_runs=n_runs, exact_compared=len(rerun))
    for run_idx in range(n_runs):
        traj, violations = floats[run_idx]
        report.violations += violations
        if run_idx not in exacts:
            continue
        exact, _ = exacts[run_idx]
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
# Subcommands
# ---------------------------------------------------------------------------


def _parse_initial(cfg: LearnerConfig, text: str, agent: str):
    """Initial strategy from its CLI text, through the sweeps' axis-entry mapping."""
    flag = f"--init-{agent[0]}"
    if text == "uniform":
        entry = text
    elif isinstance(cfg.game, UltimatumGame):
        entry = _number(flag, text)
    else:
        parts = text.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{flag} must be 'first,second' in the two-round game, got {text!r}")
        entry = tuple(_number(flag, p) for p in parts)
    return metagame._initial(cfg.game, agent, entry, cfg.arithmetic == "exact")


def cmd_run(args) -> int:
    config = load_config(args.config)
    cfg = config.learner
    init_f = _parse_initial(cfg, args.init_f, FIRM)
    init_w = _parse_initial(cfg, args.init_w, WORKER)
    traj = learner.run_dynamics(cfg, init_f, init_w, keep_history=args.dump_trajectory)
    cert = analysis.certify_epsilon_ne((traj.final_f, traj.final_w), cfg.game)
    out_dir = Path(args.out_dir or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_record(out_dir / "certificate.csv", cert, converged_at=traj.converged_at)
    if args.dump_trajectory:
        _write_csv(out_dir / "trajectory.csv", ["step", "agent", "action_index", "mass"],
                   ([step, agent, idx, _fmt(mass)]
                    for step, profile in enumerate(traj.history, start=1)
                    for agent, x in zip((FIRM, WORKER), profile)
                    for idx, mass in enumerate(x)))
    status = f"converged at step {traj.converged_at}" if traj.converged else \
        f"did not converge within {traj.steps} steps"
    print(f"run: {status}; eps = {cert.eps:.3e}; wrote {out_dir / 'certificate.csv'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    if not config.sweep_firm or not config.sweep_worker:
        raise ConfigError(f"{args.config}: sweep requires sweep_firm and sweep_worker axes")
    sweep = metagame.sweep_initials(
        config.learner, axis_f=config.sweep_firm, axis_w=config.sweep_worker,
        parallelism=config.parallelism,
    )
    out_dir = Path(args.out_dir or config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_heatmap_csv(out_dir / "heatmap.csv", sweep)
    converged = sweep.converged_mask()
    if not converged.any():
        print(f"sweep: 0/{converged.size} cells converged; wrote {out_dir / 'heatmap.csv'} "
              "and no summary", file=sys.stderr)
        return EXIT_VIOLATION
    summary = metagame.summarize(sweep, reference_w=config.learner.reference_w)
    _write_record(out_dir / "summary.csv", summary)
    print(f"sweep: {converged.sum()}/{converged.size} cells converged; "
          f"u_w in [{summary.min_uw:.4f}, {summary.max_uw:.4f}]; wrote {out_dir / 'heatmap.csv'}")
    return EXIT_OK


def cmd_metagame(args) -> int:
    table = read_heatmap_csv(Path(args.heatmap))
    firm_inits, u = table.firm_inits, table.u_w
    keep = [i for i, row in enumerate(table.status) if all(st == "converged" for st in row)]
    if len(keep) < len(firm_inits):
        if not args.allow_partial:
            raise ConfigError(f"{args.heatmap}: heatmap has non-converged cells; "
                              "pass --allow-partial to drop them")
        if not keep:
            raise ConfigError(f"{args.heatmap}: no fully converged firm rows remain")
        firm_inits, u = [firm_inits[i] for i in keep], u[keep]
    sol = metagame.minimax_solve(u, tol=args.tol)
    out = Path(args.out or "minimax.csv")
    mixes = (("firm", firm_inits, sol.row_mix), ("worker", table.worker_inits, sol.col_mix))
    _write_csv(out, ["record", "player", "init", "value"],
               [["value_w", "", "", _fmt(sol.value_w)], ["br_gap", "", "", _fmt(sol.br_gap)]]
               + [["mix", player, label, _fmt(prob)]
                  for player, labels, mix in mixes
                  for label, prob in zip(labels, mix) if prob > 1e-9])
    print(f"metagame: value_w = {sol.value_w:.6f} (gap {sol.br_gap:.2e}, "
          f"{sol.iterations} pivots); wrote {out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    # the audit draws its own D and eta, but the config must still be one `run` accepts
    if not isinstance(load_config(args.config).learner.game, UltimatumGame):
        raise ConfigError(f"{args.config}: audit requires a g1 config")
    report = run_audit(args.runs, args.seed, exact_compare=args.exact_compare)
    for line in report.lines():
        print(line)
    if not report.ok:
        print(f"audit: FAILED; reproduce with seed {report.seed}", file=sys.stderr)
        return EXIT_VIOLATION
    print("audit: all monitors clean")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.n < 0:
        raise ValueError(f"n must be non-negative, got {args.n}")
    eta, w0, f0 = (_number(name, getattr(args, name), Fraction) for name in ("eta", "w0", "f0"))
    params = analysis.recurrence_params(args.D, eta, args.k, w0, f0)
    import mpmath

    print("n,w_closed,f_closed,w_iter,f_iter,abs_diff")
    max_diff = 0.0
    for n in range(args.n + 1):
        w_it, f_it = analysis.iterate_recurrence(params, n)
        w_cl, f_cl = analysis.closed_form_mp(params, n, dps=60)
        with mpmath.workdps(60):
            diff = float(max(
                abs(w_cl - mpmath.mpf(w_it.numerator) / w_it.denominator),
                abs(f_cl - mpmath.mpf(f_it.numerator) / f_it.denominator),
            ))
        max_diff = max(max_diff, diff)
        print(f"{n},{float(w_cl):.17g},{float(f_cl):.17g},"
              f"{float(w_it):.17g},{float(f_it):.17g},{diff:.3e}")
    verdict = analysis.classify_recurrence(params)
    print(f"verdict: {verdict.value} (max |diff| {max_diff:.3e})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a ``ValueError``, which :func:`main` reports as one ``error: ...`` line."""
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ftrl-bargain",
        description="Regularized-leader learning dynamics in discretized bargaining games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one trajectory plus its equilibrium certificate")
    p_run.add_argument("config")
    p_run.add_argument("--init-f", required=True,
                       help="firm initial strategy: action value, 'uniform', or 'offer,threshold'")
    p_run.add_argument("--init-w", required=True,
                       help="worker initial strategy: action value, 'uniform', or 'threshold,counter'")
    p_run.add_argument("--dump-trajectory", action="store_true")
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep initial strategies; write heatmap + summary")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_meta = sub.add_parser("metagame", help="minimax of a converged heatmap")
    p_meta.add_argument("heatmap")
    p_meta.add_argument("--tol", type=float, default=1e-3)
    p_meta.add_argument("--allow-partial", action="store_true")
    p_meta.add_argument("--out", default=None)
    p_meta.set_defaults(func=cmd_metagame)

    p_audit = sub.add_parser("audit", help="randomized invariant monitors")
    p_audit.add_argument("config")
    p_audit.add_argument("--runs", type=int, default=100)
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument("--exact-compare", type=int, default=20)
    p_audit.set_defaults(func=cmd_audit)

    p_oracle = sub.add_parser("oracle", help="closed-form vs iterated recurrence table")
    p_oracle.add_argument("D", type=int)
    p_oracle.add_argument("eta")
    p_oracle.add_argument("k", type=int)
    p_oracle.add_argument("w0")
    p_oracle.add_argument("f0")
    p_oracle.add_argument("n", type=int)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # --help
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
