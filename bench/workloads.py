"""The benchmark's workloads: seeded configs, CLI argument lists, and
the checks every operation's outputs must pass.

Each workload is one closed-loop client that issues one `cli_main`
call at a time.  The program only ever sees the generated INI files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The benchmark seed selects one of INPUT_SEEDS random-band initial
# states; reference.json freezes the seed commit's well-conditioned
# scalars for every one of them, so every run is checked against values
# that a later change cannot move.
INPUT_SEEDS = 32

# Relative tolerance on well-conditioned scalars.  Injecting 1e-15
# relative noise into every FFT moves them by less than 1e-14, so a
# legitimate change of summation order (rfft for fft, fused operators)
# passes easily; anything past 1e-8 is a different answer.
REL_TOL = 1e-8

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # simulate | diagnose | sweep
    d: int
    n: int
    horizon: float
    snapshots: int
    mu: float
    forcing: tuple  # forcing term strings, amps@mode@phase
    write_snapshots: bool = True
    sweep_count: int = 0  # ladder length mu, mu/2, mu/4, ...; 0 for no ladder

    @property
    def points(self) -> int:
        return self.n**self.d

    @property
    def snapshots_reduced(self) -> int:
        """Snapshots one operation reduces: the run's own, each ladder
        entry's, or the stored series'."""
        return max(self.sweep_count, 1) * (self.snapshots + 1)

    def config_text(self, input_seed: int) -> str:
        lines = [
            "[grid]", f"d = {self.d}", f"n = {self.n}", "",
            "[fluid]", "gamma = 1.4", "kappa = 1.0", f"mu = {self.mu!r}", "",
            "[forcing]", "mode = trig",
        ]
        lines += [f"term{i} = {t}" for i, t in enumerate(self.forcing, start=1)]
        lines += [
            "",
            "[initial]", "preset = random-band", f"seed = {input_seed}", "amplitude = 0.5", "",
            "[run]", f"horizon = {self.horizon!r}", f"snapshots = {self.snapshots}", "",
        ]
        if self.sweep_count:
            lines += [
                "[sweep]", f"mu_max = {self.mu!r}", "ratio = 0.5",
                f"count = {self.sweep_count}", "",
            ]
        lines += [
            "[output]", "prefix = run",
            f"write_snapshots = {'true' if self.write_snapshots else 'false'}", "",
        ]
        return "\n".join(lines)

    def argv(self, config: Path, out: Path, series_dir: Path) -> list:
        if self.command == "diagnose":
            return ["diagnose", "--dir", str(series_dir), "--prefix", "run",
                    "--config", str(config), "--out", str(out)]
        return [self.command, "--config", str(config), "--out", str(out)]


_FORCING_2D = ("0.05,0.0@1,0@0.0", "0.0,0.03@0,2@0.5")
_FORCING_3D = ("0.05,0.0,0.0@1,0,0@0.0", "0.0,0.03,0.0@0,2,0@0.5")

# Horizons are chosen so that the step count per snapshot interval is
# the same for every input seed: the initial CFL step of a random-band
# state with amplitude 0.5 varies by about 8% between seeds.
WORKLOADS = {
    # The solver does almost all the work: FFTs and RHS assembly.
    "simulate-2d256": Workload(
        "simulate-2d256", "simulate", d=2, n=256, horizon=0.25, snapshots=8,
        mu=1e-3, forcing=_FORCING_2D,
    ),
    # The solver does no work: diagnostics on a stored 65-snapshot series.
    "diagnose-2d128": Workload(
        "diagnose-2d128", "diagnose", d=2, n=128, horizon=0.768, snapshots=64,
        mu=1e-3, forcing=_FORCING_2D,
    ),
    # 3D solver shapes plus the sweep's limit diagnostics on in-memory series.
    "sweep-3d32": Workload(
        "sweep-3d32", "sweep", d=3, n=32, horizon=0.5, snapshots=16,
        mu=0.02, forcing=_FORCING_3D, write_snapshots=False, sweep_count=3,
    ),
}

# The same workloads at a size that runs in about a second, for the
# benchmark's own smoke check.
TINY = {
    "simulate-2d256": Workload(
        "simulate-2d256", "simulate", d=2, n=16, horizon=0.1, snapshots=2,
        mu=1e-3, forcing=_FORCING_2D,
    ),
    "diagnose-2d128": Workload(
        "diagnose-2d128", "diagnose", d=2, n=16, horizon=0.2, snapshots=8,
        mu=1e-3, forcing=_FORCING_2D,
    ),
    "sweep-3d32": Workload(
        "sweep-3d32", "sweep", d=3, n=8, horizon=0.2, snapshots=8,
        mu=0.02, forcing=_FORCING_3D, write_snapshots=False, sweep_count=2,
    ),
}


# ---------------------------------------------------------------- outputs


def output_digest(out: Path) -> dict:
    """sha256 of every report the CLI wrote (JSON and CSV), by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.suffix in (".json", ".csv")
    }


def _steps_per_snapshot(summary: dict) -> int:
    if "steps_per_snapshot" in summary:
        return int(summary["steps_per_snapshot"])
    # sweep: every entry runs on the shared dt over the same spacing
    horizon = snapshots = None
    for line in summary["config_text"].splitlines():
        key, _, value = (s.strip() for s in line.partition("="))
        if key == "horizon":
            horizon = float(value)
        elif key == "snapshots":
            snapshots = int(value)
    return round(horizon / snapshots / summary["shared_dt"])


def scalars(w: Workload, out: Path) -> dict:
    """The well-conditioned scalars of one operation, with the RK4 steps
    it took."""
    if w.command == "diagnose":
        rep = json.loads((out / "diagnostics.json").read_text())
        return {
            "snapshots": rep["snapshot_count"],
            "spectrum_exponent": rep["spectrum"]["exponent"],
            "sobolev_norm": rep["sobolev"]["norm"],
        }
    summary = json.loads((out / "summary.json").read_text())
    per = _steps_per_snapshot(summary)
    if w.command == "simulate":
        e = summary["energy"]
        return {
            "snapshots": summary["snapshot_count"],
            "steps": per * (summary["snapshot_count"] - 1),
            "dt": summary["dt"],
            "energy_initial": e["initial"],
            "energy_final": e["final"],
            "energy_dissipated": e["dissipated"],
        }
    done = [e for e in summary["entries"] if e["completed"]]
    vals = {
        "entries": len(done),
        "steps": len(done) * per * w.snapshots,
        "dt": summary["shared_dt"],
    }
    for e in done:
        i = e["index"]
        vals[f"entry{i}_energy_initial"] = e["energy"]["initial"]
        vals[f"entry{i}_energy_final"] = e["energy"]["final"]
        vals[f"entry{i}_energy_dissipated"] = e["energy"]["dissipated"]
    c = summary.get("cauchy", {})
    for i, v in enumerate(c.get("rho_distances", [])):
        vals[f"cauchy{i}_rho"] = v
    for i, v in enumerate(c.get("m_distances", [])):
        vals[f"cauchy{i}_m"] = v
    return vals


def check(w: Workload, code: int, out: Path, reference: dict | None) -> list:
    """Problems with one operation's outputs; empty when it passed.

    Round-off-level residuals (ns_max_rel and the like) are only
    checked against their own tolerances, never compared by value.
    """
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    try:
        vals = scalars(w, out)
        if w.command == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            e = summary["energy"]
            if summary["admissibility"]["admissible"] is not True:
                problems.append("run flagged inadmissible")
            # the acceptance gate's ledger tolerance, max |R| / E0 <= 1e-6
            if not abs(e["ledger_residual"]) <= 1e-6 * e["initial"]:
                problems.append(f"ledger residual {e['ledger_residual']:.3e}")
            if vals["snapshots"] != w.snapshots + 1:
                problems.append(f"{vals['snapshots']} snapshots")
            files = summary["snapshot_files"]
            if len(files) != w.snapshots + 1 or not all((out / f).is_file() for f in files):
                problems.append("snapshot files missing")
        elif w.command == "diagnose":
            rep = json.loads((out / "diagnostics.json").read_text())
            for section in ("spectrum", "ckhw", "sobolev", "integrability", "moduli",
                            "residuals", "admissibility", "reynolds"):
                if section not in rep:
                    problems.append(f"section {section} missing")
            if vals["snapshots"] != w.snapshots + 1:
                problems.append(f"{vals['snapshots']} snapshots")
            for name in ("spectrum.csv", "moduli.csv", "residuals.csv"):
                if not (out / name).is_file():
                    problems.append(f"{name} missing")
        else:
            summary = json.loads((out / "summary.json").read_text())
            if not all(e["completed"] for e in summary["entries"]):
                problems.append("a ladder entry failed")
            if len(summary["entries"]) != w.sweep_count:
                problems.append(f"{len(summary['entries'])} ladder entries")
            if summary.get("limit_candidate", {}).get("plausible_limit") is not True:
                problems.append("limit candidate not plausible")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"]
    if reference is not None:
        for key, want in reference.items():
            got = vals.get(key)
            if got is None:
                problems.append(f"{key} missing")
            elif isinstance(want, int):
                if got != want:
                    problems.append(f"{key} = {got}, reference {want}")
            elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def load_reference(workload: str, input_seed: int) -> dict:
    """The seed commit's scalars for one workload and input seed."""
    table = json.loads(REFERENCE_PATH.read_text())
    return table[workload][str(input_seed)]
