"""One workload process, started by run.py.

It imports baroflow, writes the workload's config (and for diagnose
generates the stored series with the same checkout's `simulate`),
prints `ready`, then issues `cli_main` calls one at a time until the
measuring time is up.  Every operation's outputs are checked, and all
operations of a run must write byte-identical reports.  The result goes
to `result.json` in the work directory.

With --trace 1 the first half of the time runs untraced and the second
half traced, so the tracing overhead can be reported; micro-timings of
the solver and transform layers at the workload's grid size follow.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads


def _median_time(fn, min_seconds=0.5, min_reps=5):
    fn()  # let lazy set-up finish before timing
    times = []
    begin = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - begin < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_timings(config: Path) -> dict:
    """Solver and transform layers on the workload's own initial state."""
    from baroflow import fields, solver
    from baroflow.config import ExperimentConfig

    cfg = ExperimentConfig.from_file(config)
    params = cfg.fluid_params()
    state = cfg.initial_state()
    dt = solver.cfl_dt(state, params, cfg.run.cfl)
    return {
        "solver.rhs_s": _median_time(lambda: solver.rhs(state, params)),
        "solver.step_s": _median_time(lambda: solver.step(state, params, dt)),
        "solver.total_energy_s": _median_time(lambda: solver.total_energy(state, params)),
        "fields.dft_pair_s": _median_time(
            lambda: fields.dft_inverse(fields.dft_forward(state.rho))
        ),
    }


class Loop:
    """Closed-loop client: one operation at a time, each checked."""

    def __init__(self, w, cli, config, series_dir, work, reference):
        self.w, self.cli, self.config = w, cli, config
        self.series_dir, self.work, self.reference = series_dir, work, reference
        self.walls, self.problems = [], []
        self.attempted = self.failed = 0
        self.first_digest = None
        self.steps = None  # RK4 steps of the first good operation

    def op(self, after=None):
        """Run one operation; `after(out)` sees its outputs before they
        are removed."""
        out = self.work / f"op{self.attempted}"
        argv = self.w.argv(self.config, out, self.series_dir)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.cli_main(argv)
        except Exception:  # an uncaught error is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        if after is not None:
            after(out)
        problems = workloads.check(self.w, code, out, self.reference)
        if not problems:
            digest = workloads.output_digest(out)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("outputs differ from the first operation of this run")
        if problems:
            self.failed += 1
            self.problems.append({"op": self.attempted - 1, "problems": problems})
            print(f"operation {self.attempted - 1} failed: {problems}", file=sys.stderr)
        elif self.steps is None:
            self.steps = workloads.scalars(self.w, out).get("steps", 0)
        shutil.rmtree(out, ignore_errors=True)
        self.walls.append(wall)
        return wall

    def run_for(self, seconds, min_ops, after=None):
        walls = []
        begin = time.perf_counter()
        while len(walls) < min_ops or time.perf_counter() - begin < seconds:
            walls.append(self.op(after))
        return walls


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)

    root, work = Path(args.root), Path(args.work)
    w = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    input_seed = args.seed % workloads.INPUT_SEEDS

    import baroflow
    import baroflow.cli as cli
    import numpy

    if Path(baroflow.__file__).resolve().parent != (root / "src" / "baroflow").resolve():
        print(f"error: imported baroflow from {baroflow.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    work.mkdir(parents=True, exist_ok=True)
    config = work / "workload.ini"
    config.write_text(w.config_text(input_seed))
    series_dir = work / "series"
    if w.command == "diagnose":
        subprocess.run(
            [sys.executable, "-m", "baroflow.cli", "simulate", "--config", str(config),
             "--out", str(series_dir)],
            check=True, stdout=subprocess.DEVNULL,
        )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = None if args.tiny else workloads.load_reference(w.name, input_seed)
    loop = Loop(w, cli, config, series_dir, work, reference)
    result = {"input_seed": input_seed}
    if not args.trace:
        loop.run_for(args.seconds, min_ops=2)
    else:
        import tracing as trace

        untraced = loop.run_for(args.seconds / 2, min_ops=1)
        tracer = trace.Tracer()
        modules = trace.install(tracer)
        loop.cli = modules["cli"]
        per_op, span_checks = [], []

        def record(out):
            spans = trace.op_spans(tracer)
            per_op.append(trace.layer_metrics(spans, w.snapshots_reduced, out))
            span_checks.append(trace.check_spans(spans))
            tracer.op += 1

        traced = loop.run_for(args.seconds / 2, min_ops=1, after=record)
        tracer.enabled = False
        layers = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        layers.update(micro_timings(config))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result.update(layers=layers, span_checks=span_checks)

    steps = loop.steps
    if w.command == "diagnose":
        # diagnose integrates nothing itself; its cell-steps are those
        # of the stored series it reduces
        summary = json.loads((series_dir / "summary.json").read_text())
        steps = summary["steps_per_snapshot"] * (summary["snapshot_count"] - 1)
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems,
        walls=loop.walls,
        steps=steps,
        snapshots=w.snapshots_reduced,
        points=w.points,
        numpy=numpy.__version__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
