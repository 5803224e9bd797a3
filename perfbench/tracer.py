"""In-memory spans around the package's public functions.

The tracer swaps module and class attributes of ``ftrl_bargain`` for thin
wrappers while it is installed and restores them afterwards; the package
itself carries no instrumentation.  Each wrapped call records one span (name,
start, end, parent span) in flat arrays, so the 656,000 spans of a traced
two-round pass take about 20 MB.  A span's self
time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from ftrl_bargain import analysis, cli, games, geometry, learner, metagame

# (owner, attribute, layer).  ``learner`` binds ``geometry.project_simplex`` at
# import as ``learner._project_simplex``, so both names are wrapped; callers
# look every other name up on its module at call time.
TARGETS = (
    (games, "ultimatum_feedback", "games.feedback"),
    (games, "ultimatum_feedback_exact", "games.feedback"),
    (games, "two_round_feedback", "games.feedback"),
    (geometry.Treeplex, "normalize_backward", "geometry.normalize"),
    (geometry.TreeplexProjector, "project", "geometry.treeplex"),
    (geometry, "project_simplex", "geometry.simplex"),
    (geometry, "project_simplex_batch", "geometry.simplex"),
    (geometry, "project_simplex_exact", "geometry.simplex"),
    (learner, "_project_simplex", "geometry.simplex"),
    (learner, "run_dynamics", "learner.run"),
    (analysis, "certify_epsilon_ne", "analysis.certify"),
    (analysis, "detect_threats", "analysis.threat"),
    (analysis, "recurrence_params", "analysis.recurrence"),
    (analysis, "classify_recurrence", "analysis.recurrence"),
    (analysis, "closed_form_mp", "analysis.recurrence"),
    (analysis, "iterate_recurrence", "analysis.recurrence"),
    (metagame, "sweep_initials", "metagame.sweep"),
    (metagame, "minimax_solve", "metagame.minimax"),
    (cli, "run_audit", "cli.audit"),
    (cli, "write_heatmap_csv", "cli.csv"),
    (cli, "read_heatmap_csv", "cli.csv"),
)

# Per-layer metrics, in report order: name -> unit.
LAYER_METRICS = {
    "games.feedback_calls": "count",
    "games.feedback_s": "s",
    "geometry.normalize_calls": "count",
    "geometry.normalize_s": "s",
    "geometry.treeplex_calls": "count",
    "geometry.treeplex_s": "s",
    "geometry.simplex_calls": "count",
    "geometry.simplex_s": "s",
    "learner.runs": "count",
    "learner.steps": "count",
    "learner.self_s": "s",
    "learner.us_per_step": "us",
    "analysis.certify_calls": "count",
    "analysis.certify_s": "s",
    "analysis.guard_calls": "count",
    "analysis.guard_accept_ratio": "ratio",
    "analysis.threat_s": "s",
    "analysis.recurrence_draws": "count",
    "analysis.recurrence_s": "s",
    "metagame.sweep_s": "s",
    "metagame.minimax_s": "s",
    "metagame.minimax_iters": "count",
    "metagame.pool_efficiency": "ratio",
    "cli.audit_s": "s",
    "cli.csv_s": "s",
    "trace.overhead": "ratio",
    "fail_frac": "ratio",
}


class Tracer:
    """Span recorder; use as a context manager around one traced pass."""

    def __init__(self):
        self.layers: list[str] = []
        self.layer_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        # Dynamics steps are counted where they are owned: a sweep owns its
        # cells' steps, a run outside any sweep owns its own.
        self.steps = 0
        self.step_time = 0.0
        self.minimax_iters = 0
        self.draws = 0
        self.guard_calls = 0
        self.guard_accepts = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _layer(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def _wrap(self, layer: str, fn, on_return=None):
        lid = self._layer(layer)
        ids, start, end = self.layer_id, self.start, self.end
        parent, stack = self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(lid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, end[idx] - start[idx])
            return result

        return traced

    def _in_sweep(self) -> bool:
        lid = self._layer("metagame.sweep")
        return any(self.layer_id[i] == lid for i in self._stack)

    def _on_run(self, traj, seconds: float) -> None:
        if not self._in_sweep():
            self.steps += traj.steps
            self.step_time += seconds

    def _on_sweep(self, sweep, seconds: float) -> None:
        cap = sweep.config.steps_cap
        self.steps += sum(c.converged_at or cap for row in sweep.cells for c in row)
        self.step_time += seconds

    def _on_minimax(self, sol, seconds: float) -> None:
        self.minimax_iters += sol.iterations

    def _on_draw(self, params, seconds: float) -> None:
        self.draws += 1

    def _guard(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            accepted = fn(*args, **kwargs)
            self.guard_calls += 1
            self.guard_accepts += bool(accepted)
            return accepted

        return counted

    def __enter__(self) -> "Tracer":
        hooks = {
            "run_dynamics": self._on_run,
            "sweep_initials": self._on_sweep,
            "minimax_solve": self._on_minimax,
            "recurrence_params": self._on_draw,
        }
        for owner, attr, layer in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn, hooks.get(attr)))
        guard = learner.__dict__["_certified_stop"]
        self._saved.append((learner, "_certified_stop", guard))
        learner._certified_stop = self._guard(guard)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, for writing out."""
        return {
            "layers": np.array(self.layers),
            "layer_id": np.array(self.layer_id, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def exact_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly, over everything recorded so far."""
        calls = np.bincount(np.array(self.layer_id, dtype=np.int64), minlength=len(self.layers))
        out = {f"calls:{layer}": int(n) for layer, n in zip(self.layers, calls)}
        out.update({"learner.steps": self.steps, "metagame.minimax_iters": self.minimax_iters,
                    "analysis.recurrence_draws": self.draws,
                    "analysis.guard_calls": self.guard_calls,
                    "analysis.guard_accepts": self.guard_accepts})
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered

        def pick(layer):
            lid = self.layers.index(layer) if layer in self.layers else -1
            return a["layer_id"] == lid

        def calls(layer):
            return int(pick(layer).sum())

        def self_s(layer):
            return float(self_time[pick(layer)].sum())

        return {
            "games.feedback_calls": calls("games.feedback"),
            "games.feedback_s": self_s("games.feedback"),
            "geometry.normalize_calls": calls("geometry.normalize"),
            "geometry.normalize_s": self_s("geometry.normalize"),
            "geometry.treeplex_calls": calls("geometry.treeplex"),
            "geometry.treeplex_s": self_s("geometry.treeplex"),
            "geometry.simplex_calls": calls("geometry.simplex"),
            "geometry.simplex_s": self_s("geometry.simplex"),
            "learner.runs": calls("learner.run"),
            "learner.steps": self.steps,
            "learner.self_s": self_s("learner.run"),
            "learner.us_per_step": 1e6 * self.step_time / self.steps if self.steps else 0.0,
            "analysis.certify_calls": calls("analysis.certify"),
            "analysis.certify_s": self_s("analysis.certify"),
            "analysis.guard_calls": self.guard_calls,
            "analysis.guard_accept_ratio": (self.guard_accepts / self.guard_calls
                                            if self.guard_calls else 0.0),
            "analysis.threat_s": self_s("analysis.threat"),
            "analysis.recurrence_draws": self.draws,
            "analysis.recurrence_s": self_s("analysis.recurrence"),
            "metagame.sweep_s": self_s("metagame.sweep"),
            "metagame.minimax_s": self_s("metagame.minimax"),
            "metagame.minimax_iters": self.minimax_iters,
            "cli.audit_s": self_s("cli.audit"),
            "cli.csv_s": self_s("cli.csv"),
        }
