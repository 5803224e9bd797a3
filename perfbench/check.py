"""Reference outputs of the workloads and the checks a pass must meet.

The reference tables in ``reference/`` hold the outputs of the commit that
defined the benchmark; ``record_reference.py`` regenerates them.  Checks use
physical tolerances, so a rewrite that agrees to 1e-12, or a meta-game solver
that is exact where the reference one stops at its gap, still passes:

* worker payoff ``u_w`` within 1e-9 of the reference;
* certified ``eps`` at most 1e-7 (criterion 3), not compared with the reference;
* minimax duality gap at most 1e-3 and value within 1e-3 of the reference;
* recurrence closed form within 1e-9 of exact iteration;
* statuses, convergence steps, threat flags, offers and oracle classes exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"

U_W_TOL = 1e-9
EPS_MAX = 1e-7
GAP_MAX = 1e-3
VALUE_TOL = 1e-3
CLOSED_FORM_TOL = 1e-9


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"bad flag {text!r}")
    return text == "1"


def _opt_float(text: str):
    return float(text) if text else None


def _opt_int(text: str):
    return int(text) if text else None


# table -> (key columns, {value column: parser})
TABLES = {
    "oneshot_cells": (
        ("config", "firm_init", "worker_init"),
        {"u_w": float, "eps": float, "converged_at": _opt_int, "status": str},
    ),
    "oneshot_minimax": (
        ("config",),
        {"value_w": float, "br_gap": float, "iterations": int},
    ),
    "tworound_cells": (
        ("delta", "firm_init", "worker_init"),
        {"u_w": float, "eps": float, "converged_at": _opt_int, "status": str,
         "eq_offer": _opt_float, "credible": _flag, "noncredible": _flag},
    ),
    "threat_runs": (
        ("run",),
        {"u_w": float, "eps": float, "converged_at": _opt_int, "eq_offer": _opt_float,
         "worker_accepts_eq": _flag, "credible": _flag, "witness_offer": _opt_float,
         "witness_counter": _opt_float, "noncredible": _flag},
    ),
    # Draw parameters as in acceptance criterion 7: eta = eta_milli/1000,
    # w0 = t + (1 - t) * w_milli/1000 with t = 1/(d - k + 1), f0 = f_milli/1000.
    "oracle_pool": (
        ("draw",),
        {"d": int, "k": int, "eta_milli": int, "w_milli": int, "f_milli": int, "outcome": str},
    ),
}


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(name: str, rows: dict) -> Path:
    keys, columns = TABLES[name]
    path = REF_DIR / f"{name}.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(keys) + list(columns))
        for key, row in rows.items():
            w.writerow(list(key) + [fmt(row[c]) for c in columns])
    return path


def read_table(name: str) -> dict:
    keys, columns = TABLES[name]
    out = {}
    with (REF_DIR / f"{name}.csv").open(newline="") as fh:
        for raw in csv.DictReader(fh):
            out[tuple(raw[k] for k in keys)] = {c: parse(raw[c]) for c, parse in columns.items()}
    return out


@dataclass
class Tally:
    """Operations checked so far and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def check_cells(tally: Tally, got: dict, ref: dict, exact: tuple[str, ...]) -> None:
    """One operation per cell or run: u_w, eps and the exactly compared fields."""
    for key in sorted(set(got) | set(ref)):
        g, r = got.get(key), ref.get(key)
        ok = (
            g is not None and r is not None
            and _close(g["u_w"], r["u_w"], U_W_TOL)
            and g["eps"] <= EPS_MAX
            and all(g[f] == r[f] for f in exact)
        )
        tally.add(ok, f"cell {key}: got {g}, reference {r}")


def check_minimax(tally: Tally, got: dict, ref: dict) -> None:
    """One operation per solve; ``csv_ok`` says the heatmap survived the CSV round trip."""
    for key in sorted(set(got) | set(ref)):
        g, r = got.get(key), ref.get(key)
        ok = (
            g is not None and r is not None and g["csv_ok"]
            and g["br_gap"] <= GAP_MAX
            and _close(g["value_w"], r["value_w"], VALUE_TOL)
        )
        tally.add(ok, f"minimax {key}: got {g}, reference {r}")


def check_audit(tally: Tally, n_runs: int, failed_runs: set, exact_compared: int,
                exact_wanted: int) -> None:
    """One operation per audit run, and one for the number of exact reruns."""
    for run in range(n_runs):
        tally.add(run not in failed_runs, f"audit run {run}: monitor violations")
    tally.add(exact_compared == exact_wanted,
              f"audit: {exact_compared} exact reruns, {exact_wanted} wanted")


def check_oracle(tally: Tally, draws: list, pool: dict) -> None:
    """One operation per draw: classification equals the reference, closed form matches."""
    for draw, outcome, diff in draws:
        want = pool[(str(draw),)]["outcome"]
        ok = outcome == want and diff <= CLOSED_FORM_TOL
        tally.add(ok, f"oracle draw {draw}: {outcome} vs {want}, closed-form diff {diff:.2e}")
