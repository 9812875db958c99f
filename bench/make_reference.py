"""Regenerate bench/reference.json: the well-conditioned scalars of one
operation of every workload, for every input seed.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known good; the benchmark
checks every later commit against the values it freezes.  Operations
run two at a time in fresh processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _one(task):
    name, seed = task
    import workloads
    from baroflow.cli import cli_main

    w = workloads.WORKLOADS[name]
    scratch = BENCH.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        config = tmp / "workload.ini"
        config.write_text(w.config_text(seed))
        with contextlib.redirect_stdout(io.StringIO()):
            if w.command == "diagnose":
                cli_main(["simulate", "--config", str(config), "--out", str(tmp / "series")])
            code = cli_main(w.argv(config, tmp / "out", tmp / "series"))
        problems = workloads.check(w, code, tmp / "out", None)
        if problems:
            raise RuntimeError(f"{name} seed {seed}: {problems}")
        return name, seed, workloads.scalars(w, tmp / "out")


def main() -> int:
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import workloads
    from run import THREAD_VARS

    os.environ.update({v: "1" for v in THREAD_VARS})
    os.environ["PYTHONPATH"] = os.pathsep.join(sys.path[:2])

    tasks = [(name, seed) for name in workloads.WORKLOADS for seed in range(workloads.INPUT_SEEDS)]
    table = {name: {} for name in workloads.WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for name, seed, vals in pool.imap_unordered(_one, tasks):
            table[name][str(seed)] = vals
            print(f"{name} seed {seed}", file=sys.stderr)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
