"""Benchmark launcher for the ftrl-bargain package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (oneshot_grid, tworound_sweep or verify) against the package
in ``src/`` of the checkout, checks every output against ``reference/``, and
prints one JSON object as the last line of standard output:

* ``--trace 0`` repeats untraced passes for about ``--seconds`` and reports
  the end-to-end metrics: wall and CPU time per pass in reference loops (see
  refclock.py), peak memory, the share of operations whose outputs check
  out, and the set-up time (median of fresh-process probes).
* ``--trace 1`` runs a fixed plan of untraced and traced passes, reports the
  per-layer metrics and the tracing overhead, and writes the spans to
  ``perfbench/out/``.

Exit code 0 means a result was printed; ``correct`` in it says whether every
check passed and every exact count repeated.  See README.md.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads: otherwise each
# pool worker starts one OpenBLAS thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import refclock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9

END_TO_END = {"wall_loops": "loops", "cpu_loops": "loops", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}


def import_package():
    """Import the package from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ftrl_bargain

    if Path(ftrl_bargain.__file__).resolve().parent.parent != src:
        raise ImportError(f"ftrl_bargain was imported from {ftrl_bargain.__file__}, not {src}")
    import workloads

    return workloads


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_facts() -> dict:
    import mpmath
    import numpy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for level in (2, 3):
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if (index / "level").read_text().strip() == str(level):
                    caches[f"l{level}"] = (index / "size").read_text().strip()
            except OSError:
                pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up probe: time import plus input building, print it."""
    t0 = time.perf_counter()
    wl = import_package().WORKLOADS[workload]
    wl.setup(seed)
    print(repr(time.perf_counter() - t0))


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class StageTime:
    """One timed stage: wall and CPU seconds, and when it ran (perf_counter)."""

    wall: float
    cpu: float
    start: float
    end: float


class Session:
    """Runs passes of one workload, checks them and keeps their exact counts."""

    def __init__(self, wl, inputs, reference):
        import check

        self.wl = wl
        self.inputs = inputs
        self.reference = reference
        self.tally = check.Tally()
        self.counts = None
        self.first_stage_counts = None
        self.count_errors: list[str] = []

    def _same_counts(self, counts: dict) -> None:
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.count_errors.append(f"output counts {counts} differ from {self.counts}")

    def run_pass(self, parallelism: int, tracer=None, after_stage=None) -> dict:
        """One checked pass; returns stage name -> StageTime.

        ``after_stage`` runs between stages, outside their timing.  A traced
        pass keeps its exact counts after the first stage in
        ``self.first_stage_counts``.
        """
        times, results = {}, {}
        with tracer or contextlib.nullcontext():
            for name, stage in self.wl.stages(self.inputs, parallelism):
                c0, t0 = cpu_seconds(), time.perf_counter()
                results[name] = stage()
                t1 = time.perf_counter()
                times[name] = StageTime(t1 - t0, cpu_seconds() - c0, t0, t1)
                if tracer is not None and len(results) == 1:
                    self.first_stage_counts = tracer.exact_counts()
                if after_stage is not None:
                    after_stage()
        self.wl.check(self.tally, self.wl.outputs(results), self.reference)
        self._same_counts(self.wl.counts(results))
        return times

    def repeat_first_stage(self, tracer) -> None:
        """Trace the first stage once more; its exact counts must repeat."""
        with tracer:
            _, stage = self.wl.stages(self.inputs, 1)[0]
            stage()
        if tracer.exact_counts() != self.first_stage_counts:
            self.count_errors.append(f"traced counts {tracer.exact_counts()} differ from "
                                     f"{self.first_stage_counts}")

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.count_errors


def per_pass(passes: list[dict], clock, field: str = "wall") -> float:
    """Reference loops per pass: the sum over stages of each stage's median.

    Each stage's wall or CPU seconds are divided by the reference loop time
    sampled while it ran.  A noise burst that the reference misses slows one
    stage of one pass; the per-stage median over the run's passes drops it.
    """
    return sum(
        statistics.median(getattr(t[name], field) / clock.loop_s(t[name].start, t[name].end)
                          for t in passes)
        for name in passes[0]
    )


def raw_seconds(passes: list[dict]) -> list[float]:
    return [round(sum(t.wall for t in times.values()), 4) for times in passes]


def end_to_end(session: Session, args) -> dict:
    """Untraced passes for about ``args.seconds``, with set-up probes spread over them.

    A pass starts only if a pass of the median length so far (stages only)
    still fits in ``args.seconds``; there is always at least one.  The
    set-up probes are due at even intervals of the run and run between
    stages; any still missing run at the end.  The probes are children too,
    so the pool workers' peak memory is read before the first probe.
    """
    passes, probes = [], []
    workers_peak = None
    start = time.perf_counter()

    def probe():
        nonlocal workers_peak
        if workers_peak is None:
            workers_peak = maxrss_mb(resource.RUSAGE_CHILDREN)
        probes.append(probe_setup(args.workload, args.seed))

    def probe_if_due():
        if len(probes) < SETUP_PROBES and (
                time.perf_counter() - start >= len(probes) * args.seconds / SETUP_PROBES):
            probe()

    with refclock.RefClock() as clock:
        while not passes or (time.perf_counter() - start
                             + statistics.median(raw_seconds(passes)) <= args.seconds):
            passes.append(session.run_pass(session.wl.parallelism, after_stage=probe_if_due))
        while len(probes) < SETUP_PROBES:
            probe()
    print(f"passes: {len(passes)}; wall seconds {raw_seconds(passes)}; reference loop "
          f"median {statistics.median(clock.loops) * 1e3:.3f} ms over {len(clock.loops)} "
          f"samples here and {len(clock.child_loops)} in workers; "
          f"setup_s {[round(p, 4) for p in probes]}", file=sys.stderr)
    tally = session.tally
    return {
        "wall_loops": per_pass(passes, clock, "wall"),
        "cpu_loops": per_pass(passes, clock, "cpu"),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": maxrss_mb(resource.RUSAGE_SELF) + workers_peak,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def traced(session: Session, args) -> dict:
    """Untraced base passes, one traced pass, and a traced repeat of its first stage.

    Spans made in pool workers never reach this process, so the traced pass
    runs with one worker and the untraced one-worker passes are the overhead
    base.  The pool workload also makes one untraced pass on the pool, for
    the pool's efficiency against the one-worker pass.  The repeat of the
    first stage checks that the traced counts repeat exactly; it covers one
    stage only, because a second one-worker pass of the pool workload would
    not fit the run's time limit on a slow host.  Overhead and efficiency are
    taken in reference loops, like the end-to-end times.
    """
    import numpy as np
    import tracer as tracing
    from workloads import OUT_DIR

    wl = session.wl
    tracer = tracing.Tracer()
    with refclock.RefClock() as clock:
        if wl.parallelism > 1:
            pool = [session.run_pass(wl.parallelism)]
            base = [session.run_pass(1)]
        else:
            base = [session.run_pass(1) for _ in range(2)]
        traced_pass = [session.run_pass(1, tracer)]
    pool_efficiency = 0.0
    if wl.parallelism > 1:
        pool_efficiency = per_pass(base, clock) / (wl.parallelism * per_pass(pool, clock))
    session.repeat_first_stage(tracing.Tracer())
    out = tracer.layer_metrics()
    out["metagame.pool_efficiency"] = pool_efficiency
    out["trace.overhead"] = per_pass(traced_pass, clock) / per_pass(base, clock) - 1.0
    out["fail_frac"] = session.tally.failed / session.tally.attempted
    print(f"base wall seconds {raw_seconds(base)}; traced wall seconds "
          f"{raw_seconds(traced_pass)}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
    np.savez_compressed(path, **tracer.arrays(), host=json.dumps(host_facts()),
                        metrics=json.dumps(out))
    print(f"spans: {len(tracer.start)} written to {path}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oneshot_grid", "tworound_sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        workloads = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_facts()))
    wl = workloads.WORKLOADS[args.workload]
    try:
        reference = wl.reference()
    except OSError as exc:
        print(f"perfbench: missing reference outputs: {exc}", file=sys.stderr)
        return 2
    session = Session(wl, wl.setup(args.seed), reference)
    if args.trace:
        from tracer import LAYER_METRICS

        values, units = traced(session, args), LAYER_METRICS
    else:
        values, units = end_to_end(session, args), END_TO_END
    for problem in session.tally.problems + session.count_errors:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": session.correct,
        "attempted": session.tally.attempted,
        "failed": session.tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
