"""Negative controls: the benchmark's checker must catch a wrong output.

    python3 -m pytest perfbench/test_checker.py

A real one-shot pass must check out against the reference tables, and the
same pass against a reference with one ``u_w`` moved by 1e-6 must not.  For
the two-round tables (a pass takes tens of seconds) the reference itself
stands in for a pass that reproduced it, with one threat flag flipped.
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from workloads import WORKLOADS, run_untimed  # noqa: E402


def fail_frac(wl, out, ref) -> float:
    tally = check.Tally()
    wl.check(tally, out, ref)
    return tally.failed / tally.attempted


@pytest.fixture(scope="module")
def oneshot_pass():
    wl = WORKLOADS["oneshot_grid"]
    return wl, wl.outputs(run_untimed(wl, wl.setup(0), wl.parallelism)), wl.reference()


def test_oneshot_pass_matches_reference(oneshot_pass):
    wl, out, ref = oneshot_pass
    assert fail_frac(wl, out, ref) == 0


def test_perturbed_u_w_is_caught(oneshot_pass):
    wl, out, ref = oneshot_pass
    ref = copy.deepcopy(ref)
    key = next(iter(ref["cells"]))
    ref["cells"][key]["u_w"] += 1e-6
    assert fail_frac(wl, out, ref) > 0


def test_wrong_minimax_value_is_caught(oneshot_pass):
    wl, out, ref = oneshot_pass
    ref = copy.deepcopy(ref)
    ref["minimax"][("zero",)]["value_w"] += 2e-3
    assert fail_frac(wl, out, ref) > 0


@pytest.mark.parametrize("flag", ["credible", "noncredible"])
def test_flipped_threat_flag_is_caught(flag):
    wl = WORKLOADS["tworound_sweep"]
    ref = wl.reference()
    out = copy.deepcopy(ref)
    assert fail_frac(wl, out, ref) == 0
    key = next(iter(out["cells"]))
    out["cells"][key][flag] = not out["cells"][key][flag]
    assert fail_frac(wl, out, ref) > 0


def test_wrong_oracle_class_is_caught():
    wl = WORKLOADS["verify"]
    pool = wl.reference()["pool"]
    draws = [(int(key[0]), row["outcome"], 0.0) for key, row in list(pool.items())[:10]]
    tally = check.Tally()
    check.check_oracle(tally, draws, pool)
    assert tally.failed == 0
    draws[3] = (draws[3][0], "asymptotic" if draws[3][1] != "asymptotic" else "exact", 0.0)
    check.check_oracle(tally, draws, pool)
    assert tally.failed == 1
