"""Golden reports: three tiny CLI runs whose every report is committed
here and compared by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/make.py

reruns them and rewrites the reports next to this script.  The runs:

- simulate: a forced 2D n = 16 run of 8 snapshots (summary.json, ledger.csv);
- diagnose: every section of `diagnose --config` on that run's snapshots
  (diagnostics.json, spectrum.csv, moduli.csv, residuals.csv,
  reynolds_trace.npy);
- sweep: a 3D n = 8 two-rung viscosity ladder without snapshots
  (summary.json, ledger_NN.csv, distances.csv, smallness.csv).

Regenerating is a change of test data: do it only when a report is
meant to move, and say which values moved and why.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from baroflow.cli import cli_main

HERE = Path(__file__).resolve().parent

# Files of a run directory that are reports (the snapshots are not).
REPORT_SUFFIXES = (".json", ".csv", ".npy")

SIMULATE_CONFIG = """
[grid]
d = 2
n = 16

[fluid]
mu = 0.001

[forcing]
mode = trig
term1 = 0.05,0.0@1,0@0.0
term2 = 0.0,0.03@0,2@0.5

[initial]
preset = random-band
seed = 7
amplitude = 0.5

[run]
horizon = 0.2
snapshots = 8

[output]
prefix = run
"""

SWEEP_CONFIG = """
[grid]
d = 3
n = 8

[fluid]
mu = 0.02

[forcing]
mode = trig
term1 = 0.05,0.0,0.0@1,0,0@0.0
term2 = 0.0,0.03,0.0@0,2,0@0.5

[initial]
preset = random-band
seed = 7
amplitude = 0.5

[run]
horizon = 0.2
snapshots = 8

[sweep]
mu_max = 0.02
ratio = 0.5
count = 2

[output]
prefix = run
write_snapshots = false
"""

RUNS = ("simulate", "diagnose", "sweep")


def generate(root: Path) -> None:
    """Run the three golden runs, each into root / its name."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    sim_cfg, sweep_cfg = root / "simulate.ini", root / "sweep.ini"
    sim_cfg.write_text(SIMULATE_CONFIG)
    sweep_cfg.write_text(SWEEP_CONFIG)
    sim = root / "simulate"
    argvs = (
        ["simulate", "--config", str(sim_cfg), "--out", str(sim)],
        ["diagnose", "--dir", str(sim), "--prefix", "run", "--config", str(sim_cfg),
         "--out", str(root / "diagnose")],
        ["sweep", "--config", str(sweep_cfg), "--out", str(root / "sweep")],
    )
    for argv in argvs:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"baroflow {argv[0]} exited {code}")


def reports(run_dir: Path) -> list:
    """The report files of one run directory, by name."""
    return sorted(p.name for p in Path(run_dir).iterdir() if p.suffix in REPORT_SUFFIXES)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp))
        for run in RUNS:
            dest = HERE / run
            if dest.exists():
                shutil.rmtree(dest)
            dest.mkdir()
            for name in reports(Path(tmp) / run):
                shutil.copyfile(Path(tmp) / run / name, dest / name)
            print(f"{run}: {', '.join(reports(dest))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
