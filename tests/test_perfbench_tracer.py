"""The benchmark's tracer still finds and counts the layers it wraps.

``perfbench/tracer.py`` swaps package attributes for timing wrappers by name,
so a renamed function or a changed call pattern in the package would
silently empty or inflate a per-layer metric.
"""

import dataclasses
import importlib.util
from fractions import Fraction
from pathlib import Path

from ftrl_bargain import learner, metagame
from ftrl_bargain.games import (ActionGrid, TwoRoundGame, UltimatumGame, firm_vertex_plan,
                                worker_vertex_plan)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve():
    tracer = load_tracer()
    for owner, attr, layer in tracer.TARGETS:
        assert attr in owner.__dict__, f"{layer}: {owner.__name__}.{attr} is gone"


def test_two_round_layers_counted_per_step():
    tracer = load_tracer()
    game = TwoRoundGame(ActionGrid(3), 0.9)
    cfg = learner.LearnerConfig(game=game, eta=0.5)
    with tracer.Tracer() as tr:
        traj = learner.run_dynamics(cfg, firm_vertex_plan(game, 0.0, 0.0),
                                    worker_vertex_plan(game, 1.0, 0.0))
    counts = tr.exact_counts()
    assert traj.steps > 2
    assert counts["learner.steps"] == traj.steps
    assert counts["calls:geometry.treeplex"] == 2 * (traj.steps - 1)
    assert counts["calls:geometry.normalize"] == 2 * (traj.steps - 1)


def test_install_swaps_and_restores_every_attribute():
    tracer = load_tracer()
    swapped = [(owner, attr) for owner, attr, _ in tracer.TARGETS]
    swapped.append((learner, "_certified_stop"))
    originals = [owner.__dict__[attr] for owner, attr in swapped]
    cfg = learner.LearnerConfig(game=UltimatumGame(ActionGrid(4)), eta=Fraction(1, 2))
    init = [Fraction(1, 5)] * 5
    with tracer.Tracer() as tr:
        for (owner, attr), fn in zip(swapped, originals):
            wrapper = owner.__dict__[attr]
            assert wrapper is not fn and wrapper.__wrapped__ is fn, f"{attr} is not swapped"
        metagame.sweep_initials(cfg)
        traj = learner.run_dynamics(dataclasses.replace(cfg, arithmetic="exact"), init, init)
    for (owner, attr), fn in zip(swapped, originals):
        assert owner.__dict__[attr] is fn, f"{attr} is not restored"
    counts = tr.exact_counts()
    assert traj.converged and counts["calls:learner.run"] == counts["calls:metagame.sweep"] == 1
    # every certificate here, the exact run's stop guard included, runs on
    # stacks through learner._certified_rows and analysis._gap_rows, which the
    # tracer does not wrap: no certify_epsilon_ne call and no _certified_stop call
    assert counts["calls:analysis.certify"] == 0
    assert counts["analysis.guard_calls"] == counts["analysis.guard_accepts"] == 0
