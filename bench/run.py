"""baroflow benchmark.

    python3 bench/run.py --workload simulate-2d256 --seed 1 --seconds 35 --trace 0

Runs one workload from BENCHMARK.json in a fresh worker process
(bench/worker.py) that imports baroflow from this checkout's `src/`,
with numpy's FFT and every BLAS/OpenMP pool pinned to one thread.
Set-up is repeated in separate processes and its median reported.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; with --trace 0 the
metrics are BENCHMARK.json's end-to-end metrics, with --trace 1 its
per-layer metrics.  The line before it records the run's metadata.

End-to-end metrics, all measured with tracing off:
  setup_s                 process start to the first operation: interpreter
                          start, importing baroflow, writing the config, and
                          for diagnose generating the stored series
  wall_s                  median seconds of one `cli_main` call
  cell_steps_per_s        grid points x RK4 steps / wall_s; for diagnose the
                          steps are those of the stored series it reduces
  cells_diagnosed_per_s   grid points x snapshots the operation reduces / wall_s
  peak_rss_mb             peak resident memory of the worker process
Failed operations (nonzero exit, a failed output check, or reports that
differ between operations of one run) are counted in `failed`;
`failed / attempted` is the failure share, in the metadata line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3  # set-up samples per run, the worker's own included
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _worker(args, work, setup_only, timeout):
    """Start a worker; returns seconds until it printed `ready`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), "--work", str(work),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready


def _metadata(args, result):
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": result["input_seed"],
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "attempted": result["attempted"],
        "failed_frac": result["failed"] / result["attempted"],
        "problems": result["problems"][:10],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny grids, no reference values")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "baroflow" / "__init__.py").is_file():
        print(f"error: no baroflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(_worker(args, work / f"setup{i}", True, timeout=120))
                shutil.rmtree(work / f"setup{i}")
        setups.append(_worker(args, work / "main", False, timeout=170))
        result = json.loads((work / "main" / "result.json").read_text())
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = result["walls"]
    meta = _metadata(args, result)
    if args.trace:
        values = dict(result["layers"])
        meta["span_checks"] = result["span_checks"]
        wanted = spec["per_layer"]
    else:
        wall = statistics.median(walls)
        steps = result["steps"] or 0
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cell_steps_per_s": result["points"] * steps / wall,
            "cells_diagnosed_per_s": result["points"] * result["snapshots"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        meta.update(wall_samples=len(walls), walls_s=walls, setup_samples_s=setups)
        wanted = spec["end_to_end"]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
