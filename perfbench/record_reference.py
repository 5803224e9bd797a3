"""Regenerate the reference tables in perfbench/reference/ from the current code.

    python3 perfbench/record_reference.py

Run it only when a change to the program's outputs is intended and explained;
the benchmark compares every later pass against these tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ftrl_bargain import analysis  # noqa: E402

import check  # noqa: E402
from workloads import WORKLOADS, oracle_draw, run_untimed  # noqa: E402

ORACLE_POOL = 2000
ORACLE_POOL_SEED = 20240817   # acceptance criterion 7's seed: its 1000 draws open the pool


def oracle_pool() -> dict:
    rng = np.random.default_rng(ORACLE_POOL_SEED)
    rows = {}
    for i in range(ORACLE_POOL):
        d = int(rng.integers(3, 31))
        k = int(rng.integers(2, d + 1))
        eta_milli = int(rng.integers(10, 1001))
        w_milli = int(rng.integers(0, 1001))
        f_milli = int(rng.integers(0, 1001))
        params = analysis.recurrence_params(*oracle_draw(d, k, eta_milli, w_milli, f_milli))
        rows[(str(i),)] = {"d": d, "k": k, "eta_milli": eta_milli, "w_milli": w_milli,
                           "f_milli": f_milli,
                           "outcome": analysis.classify_recurrence(params).value}
    return rows


def main() -> None:
    check.REF_DIR.mkdir(exist_ok=True)
    print(check.write_table("oracle_pool", oracle_pool()))
    for name, tables in (("oneshot_grid", {"cells": "oneshot_cells", "minimax": "oneshot_minimax"}),
                         ("tworound_sweep", {"cells": "tworound_cells"}),
                         ("verify", {"runs": "threat_runs"})):
        wl = WORKLOADS[name]
        out = wl.outputs(run_untimed(wl, wl.setup(0), wl.parallelism))
        for key, table in tables.items():
            print(check.write_table(table, out[key]))


if __name__ == "__main__":
    main()
