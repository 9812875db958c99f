"""Golden reports: four tiny CLI runs whose every report is committed
here and compared by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/make.py [RUN ...]

reruns them and compares each report of the named runs (all of them by
default) with the committed one next to this script.  It rewrites only a
report that the comparison finds different, prints each moved value
with its relative change, and deletes a report the run no longer makes.
So a regeneration whose reports moved within the tolerance leaves the
goldens byte-identical.  The runs:

- simulate: a forced 2D n = 16 run of 8 snapshots (summary.json, ledger.csv);
- diagnose: every section of `diagnose --config` on that run's snapshots
  (diagnostics.json, spectrum.csv, moduli.csv, residuals.csv,
  reynolds_trace.npy);
- sweep: a 3D n = 8 two-rung viscosity ladder without snapshots
  (summary.json, ledger_NN.csv, distances.csv, smallness.csv);
- sweep-blowup: a 1D n = 32 three-rung ladder without snapshots whose
  least viscous rung blows up, so the middle rung is the reference
  (the same reports; the failed rung has no ledger).

The comparison (compare) requires the same JSON keys, structure and
strings (the embedded config text and its sha256 included), the same CSV
headers and text cells, the same .npy dtype and shape, and floats within
1e-13 relative.  A cancellation quantity, which is round-off of a much
larger sum, is compared against its stated scale instead: the ledger
residual against E(0), a weak-form residual row against its gross mass,
the *_max_rel ratios (already divided by their gross scale) against 1,
and admissibility's max_residual against its tolerance.  Byte identity
of reruns on one machine is checked by the rerun tests of test_cli.py.

Regenerating is a change of test data: do it only when a report is
meant to move, and say which values moved and why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

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

BLOWUP_SWEEP_CONFIG = """
[grid]
d = 1
n = 32

[fluid]
mu = 0.3

[initial]
preset = random-band
seed = 7
amplitude = 4.0

[run]
horizon = 0.5
snapshots = 4

[sweep]
mu_max = 0.3
ratio = 0.25
count = 3

[output]
prefix = run
write_snapshots = false
"""

RUNS = ("simulate", "diagnose", "sweep", "sweep-blowup")


def generate(root: Path) -> None:
    """Run the golden runs, each into root / its name."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    sim_cfg, sweep_cfg, blowup_cfg = root / "simulate.ini", root / "sweep.ini", root / "sweep-blowup.ini"
    sim_cfg.write_text(SIMULATE_CONFIG)
    sweep_cfg.write_text(SWEEP_CONFIG)
    blowup_cfg.write_text(BLOWUP_SWEEP_CONFIG)
    sim = root / "simulate"
    argvs = (
        ["simulate", "--config", str(sim_cfg), "--out", str(sim)],
        ["diagnose", "--dir", str(sim), "--prefix", "run", "--config", str(sim_cfg),
         "--out", str(root / "diagnose")],
        ["sweep", "--config", str(sweep_cfg), "--out", str(root / "sweep")],
        ["sweep", "--config", str(blowup_cfg), "--out", str(root / "sweep-blowup")],
    )
    for argv in argvs:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"baroflow {argv[0]} exited {code}")


def reports(run_dir: Path) -> list:
    """The report files of one run directory, by name."""
    return sorted(p.name for p in Path(run_dir).iterdir() if p.suffix in REPORT_SUFFIXES)


REL = 1e-13


def _moved(where, got: float, want: float, scale: float = 0.0):
    """A line naming the float at where and its change relative to
    max(|want|, scale), or None when that is within REL."""
    size = max(abs(want), scale)
    if abs(got - want) <= REL * size:
        return None
    rel = (got - want) / size if size > 0 else float("inf")
    return f"{where}: {want!r} -> {got!r} ({rel:+.2e} relative)"


def _json_scale(path, doc) -> float:
    """The stated scale of the float at path, 0 for a plain value."""
    *parent, key = path
    node = doc
    for k in parent:
        node = node[k]
    if key == "ledger_residual":
        return node["initial"]
    if key == "max_residual":
        return node["tol"]
    if isinstance(key, str) and key.endswith("_rel"):
        return 1.0
    return 0.0


def _csv_scale(col, header, row, first) -> float:
    """The stated scale of a CSV cell, 0 for a plain value."""
    if col == "ledger_residual":
        return float(first[header.index("total_energy")])  # E(0)
    if col in ("residual", "euler", "viscous"):
        return float(row[header.index("gross")])
    return 0.0


def _compare_json(got, want, path, doc, problems):
    where = "/".join(map(str, path)) or "<root>"
    if isinstance(want, float) and isinstance(got, float):
        problems.append(_moved(where, got, want, _json_scale(path, doc)))
    elif type(got) is not type(want):
        problems.append(f"{where}: {type(got).__name__} != {type(want).__name__}")
    elif isinstance(want, dict):
        if sorted(got) != sorted(want):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        else:
            for k in want:
                _compare_json(got[k], want[k], path + (k,), doc, problems)
    elif isinstance(want, list):
        if len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _compare_json(g, w, path + (i,), doc, problems)
    elif got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(got_text, want_text, problems):
    got = [line.split(",") for line in got_text.splitlines()]
    want = [line.split(",") for line in want_text.splitlines()]
    if got[0] != want[0] or len(got) != len(want):
        problems.append(f"header {got[0]} != {want[0]} or {len(got)} != {len(want)} lines")
        return
    header = want[0]
    for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            problems.append(f"line {r}: {len(g_row)} cells != {len(w_row)}")
            continue
        for col, g, w in zip(header, g_row, w_row):
            gv, wv = _number(g), _number(w)
            if gv is None or wv is None:
                if g != w:
                    problems.append(f"line {r} {col}: {g!r} != {w!r}")
                continue
            problems.append(_moved(f"line {r} {col}", gv, wv, _csv_scale(col, header, w_row, want[1])))


def compare(got: Path, want: Path) -> list:
    """The differences of report got from the golden want (module
    docstring), one line each; empty when they agree."""
    problems = []
    if want.suffix == ".json":
        doc = json.loads(want.read_text())
        _compare_json(json.loads(got.read_text()), doc, (), doc, problems)
    elif want.suffix == ".csv":
        _compare_csv(got.read_text(), want.read_text(), problems)
    else:
        g, w = np.load(got), np.load(want)
        if g.dtype != w.dtype or g.shape != w.shape:
            problems.append(f"{g.dtype}{g.shape} != {w.dtype}{w.shape}")
        else:
            problems += [_moved(f"[{i}]", float(a), float(b)) for i, (a, b) in enumerate(zip(g.ravel(), w.ravel()))]
    return [p for p in problems if p is not None]


def main(runs, golden: Path = HERE) -> int:
    """Regenerate the named runs' reports in golden (module docstring)."""
    unknown = sorted(set(runs) - set(RUNS))
    if unknown:
        print(f"unknown runs {unknown}; the runs are {', '.join(RUNS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp))
        for run in runs or RUNS:
            fresh, dest = Path(tmp) / run, Path(golden) / run
            dest.mkdir(exist_ok=True)
            names = reports(fresh)
            for name in sorted(set(reports(dest)) - set(names)):
                (dest / name).unlink()
                print(f"{run}/{name}: deleted")
            rewritten = 0
            for name in names:
                moved = compare(fresh / name, dest / name) if (dest / name).exists() else ["new report"]
                if moved:
                    shutil.copyfile(fresh / name, dest / name)
                    rewritten += 1
                    print("\n".join(f"{run}/{name}: {line}" for line in moved))
            print(f"{run}: {rewritten} of {len(names)} reports rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
