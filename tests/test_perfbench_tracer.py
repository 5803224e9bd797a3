"""The benchmark's tracer still finds and counts the layers it wraps.

``perfbench/tracer.py`` swaps package attributes for timing wrappers by name,
so a renamed function or a changed call pattern in the package would
silently empty or inflate a per-layer metric.
"""

import importlib.util
from pathlib import Path

from ftrl_bargain import learner
from ftrl_bargain.games import ActionGrid, TwoRoundGame, firm_vertex_plan, worker_vertex_plan

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
