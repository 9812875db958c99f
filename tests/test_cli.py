"""End-to-end CLI runs through cli_main."""

import csv
import dataclasses
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import baroflow.cli
import baroflow.diagnostics
import baroflow.snapshots
import baroflow.solver
import baroflow.sweep
from baroflow import diagnostics as dg
from baroflow.cli import cli_main
from baroflow.config import ExperimentConfig
from baroflow.fields import Field, make_grid
from baroflow.snapshots import scan_series, write_pass
from baroflow.solver import BlockSeries, FluidParams, State, preset_ic, total_energy
from baroflow.sweep import StreamedTables, cauchy_distances, distances_to, run_sweep, viscous_smallness

SIM_CONFIG = """
[grid]
d = 1
n = 32

[fluid]
mu = 0.005

[initial]
preset = acoustic-pulse
amplitude = 0.2

[run]
horizon = 0.3
snapshots = 24

[output]
prefix = demo
"""

SWEEP_CONFIG = """
[grid]
d = 1
n = 32

[initial]
preset = acoustic-pulse
amplitude = 0.3

[run]
horizon = 0.3
snapshots = 60

[sweep]
mu_max = 0.01
ratio = 0.5
count = 3

[output]
write_snapshots = false
"""

BLOWUP_CONFIG = """
[grid]
d = 1
n = 32

[fluid]
mu = 0.3

[initial]
preset = random-band
seed = 7
amplitude = 8.0

[run]
horizon = 0.5
snapshots = 4
"""


FORCED_2D_CONFIG = """
[grid]
d = 2
n = 16

[fluid]
mu = 0.002

[forcing]
mode = trig
term1 = 0.05,0.0@1,0@0.0

[initial]
preset = random-band
seed = 4
amplitude = 0.3

[run]
horizon = 0.2
snapshots = 8
"""

FREE_3D_CONFIG = """
[grid]
d = 3
n = 8

[fluid]
mu = 0.02

[initial]
preset = random-band
seed = 5
amplitude = 0.3

[run]
horizon = 0.1
snapshots = 6

[diagnostics]
window_lo = 1
window_hi = 4
"""


# a 2D forced run whose snapshot count is set per test; the ladder is for sweep
STREAM_CONFIG = """
[grid]
d = 2
n = 32

[fluid]
mu = 0.01

[forcing]
mode = trig
term1 = 0.05,0.0@1,0@0.0

[initial]
preset = random-band
seed = 3
amplitude = 0.2

[run]
horizon = 0.64
snapshots = {count}

[sweep]
mu_max = 0.01
ratio = 0.5
count = 2
"""

# the ladder's last rung blows up, the first two complete
FAILING_RUNG_CONFIG = BLOWUP_CONFIG.replace("amplitude = 8.0", "amplitude = 4.0") + """
[sweep]
mu_max = 0.3
ratio = 0.25
count = 3
"""

# a 1D run of 4 snapshot intervals over a short horizon; sweep runs 2 rungs
SHORT_CONFIG = """
[grid]
d = 1
n = 16

[fluid]
mu = 0.01

[initial]
preset = acoustic-pulse
amplitude = 0.1

[run]
horizon = 0.05
snapshots = 4

[sweep]
count = 2

[output]
write_snapshots = false
"""

# a forcing whose exp envelope overflows at the first stage past t = 0
OVERFLOWING_FORCING = "[forcing]\nmode = trig\nenvelope = exp\nrate = -1e7\nterm1 = 0.1@1@0.0\n\n[fluid]"


def cli_ok(argv):
    assert cli_main(argv) == 0, argv


def peak_growth(traced_peak, tmp_path, command, write_snapshots=True):
    """How much the traced peak of `command` on STREAM_CONFIG grows from
    16 to 64 snapshots."""

    def peak(count):
        cfg = tmp_path / f"exp{count}.ini"
        cfg.write_text(STREAM_CONFIG.format(count=count) + f"\n[output]\nwrite_snapshots = {str(write_snapshots).lower()}\n")
        return traced_peak(lambda: cli_ok([command, "--config", str(cfg), "--out", str(tmp_path / f"out{count}")]))

    peak(16)  # first use: lazy imports and caches
    return peak(64) - peak(16)


def assert_sweep_reports_equal_the_library(out, sweep):
    """The reports of a CLI sweep in out against the library's tables over
    sweep, the same ladder run in memory."""
    cauchy, ref, small = cauchy_distances(sweep), distances_to(sweep), viscous_smallness(sweep)
    data = json.loads((out / "summary.json").read_text())
    assert [e["completed"] for e in data["entries"]] == [e.completed for e in sweep.entries]
    for section, table in (("cauchy", cauchy), ("reference", ref)):
        assert data[section]["mu_pairs"] == [list(pair) for pair in table.mu_pairs], section
        assert data[section]["rho_distances"] == table.rho_distances.tolist(), section
        assert data[section]["m_distances"] == table.m_distances.tolist(), section
    assert data["smallness"] == json.loads(json.dumps(dataclasses.asdict(small)))
    assert data["limit_candidate"]["mu"] == sweep.completed[-1].mu
    assert read_csv(out / "distances.csv") == [
        [a, b, r, m] for (a, b), r, m in zip(cauchy.mu_pairs, cauchy.rho_distances, cauchy.m_distances)]
    assert read_csv(out / "smallness.csv") == [
        [r.mu, r.grad_u_l2, r.mu_grad, r.sqrt_mu_grad, r.dissipation] for r in small.rows]
    return cauchy


def synthetic_series(directory, d, n, count):
    """count snapshots 0.01 apart of one smooth state with growing momentum,
    written as run_NNNN.ckhs."""
    grid = make_grid(d, n, 2.0 * np.pi)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-3)
    base = preset_ic("random-band", grid, params, seed=3, amplitude=0.2)
    states = [State(t=0.01 * k, rho=base.rho, m=Field(grid=grid, values=(1.0 + 0.01 * k) * base.m.values))
              for k in range(count)]
    dg.feed(states, [write_pass(directory, "run", params, count)])


def read_csv(path):
    """Rows of a report CSV, numbers parsed (the %.17g cells round-trip exactly)."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(c) for c in row] for row in list(csv.reader(path.open()))[1:]]


def strict_json(name):
    """json.loads hook that rejects NaN and Infinity, which are not JSON."""
    raise ValueError(f"{name} is not JSON")


def expected_reports(series, params, dcfg):
    """Every diagnose section from the public functions, each its own sweep
    of the series: (csv rows by file, json values by section)."""
    spec = dg.time_integrated_spectrum(series, params, (dcfg.q1, dcfg.q2, dcfg.q))
    shells = np.arange(len(spec.integrated_energy))
    fit = dg.ckh_fit(spec, dcfg.window_lo, dcfg.window_hi)
    det = dg.ckhw_from_spectrum(spec, dcfg.ckhw_beta, dcfg.ckhw_k_star)
    sm = dg.space_modulus(series, params, dcfg.moduli_shifts)
    tm = dg.time_modulus(series, params, dcfg.moduli_lags)
    T = float(series.times[-1])
    weak = dg.weak_residuals(series, params, dg.default_test_functions(series.grid, T),
                             dg.default_test_functions(series.grid, T, vector=True))
    adm = dg.energy_admissibility(series.times, [total_energy(st, params) for st in series])
    rq = dg.reynolds_quotient(list(series)[-1], dcfg.theta)
    rows = {
        "spectrum.csv": list(zip(shells, 2.0 * math.pi / spec.P * shells, spec.counts,
                                 spec.integrated_energy, spec.integrated_raw)),
        "moduli.csv": [(t.kind, L, r, m) for t in (sm, tm) for L, r, m in zip(t.lengths, t.density, t.momentum)],
        "residuals.csv": [("mass", i, r, sc, g, 0.0, 0.0, 0.0) for i, (r, sc, g) in enumerate(weak.mass)] + [
            ("momentum", i, mr.ns_residual, mr.quadrature_scale, mr.roundoff_scale, mr.euler_residual,
             mr.viscous_term, mr.viscous_bound) for i, mr in enumerate(weak.momentum)],
    }
    values = {
        "spectrum": {"exponent": fit.exponent, "prefactor": fit.prefactor, "fit_residual": fit.residual,
                     "m_t": fit.m_t},
        "ckhw": {"value": det.value, "per_mode_sup": det.per_mode_sup},
        "sobolev": {"norm": dg.sobolev_norm_from_spectrum(spec, dcfg.sobolev_alpha)},
        "integrability": vars(spec.integrability),
        "moduli": {"space": {"density_slope": sm.density_slope, "momentum_slope": sm.momentum_slope},
                   "time": {"density_slope": tm.density_slope, "momentum_slope": tm.momentum_slope}},
        "residuals": {"mass_max_rel": weak.mass_max_rel, "ns_max_rel": weak.ns_max_rel},
        # stored snapshots record no forcing work, so a forced series has no verdict
        "admissibility": {"max_residual": adm.max_residual, "tol": adm.tol,
                          "admissible": None if params.forcing.active else adm.admissible},
        "reynolds": {"trace_min": float(np.min(rq.V)), "trace_mean": float(np.mean(rq.V)),
                     "trace_max": float(np.max(rq.V)), "vacuum_fraction": rq.vacuum_fraction},
    }
    return rows, values, rq.V


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    cfg = base / "exp.ini"
    cfg.write_text(SIM_CONFIG)
    out = base / "out"
    code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    cfg = base / "exp.ini"
    cfg.write_text(SWEEP_CONFIG)
    out = base / "out"
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "summary.json").exists()
        assert (sim_dir / "ledger.csv").exists()
        assert (sim_dir / "demo_0000.ckhs").exists()
        assert (sim_dir / "demo_0024.ckhs").exists()

    def test_summary_content(self, sim_dir):
        data = json.loads((sim_dir / "summary.json").read_text())
        assert data["command"] == "simulate"
        assert data["snapshot_count"] == 25
        assert data["admissibility"]["admissible"] is True
        assert abs(data["energy"]["ledger_residual"]) < 1e-8
        assert len(data["config_sha256"]) == 64
        assert "[fluid]" in data["config_text"]

    def test_ledger_csv_shape(self, sim_dir):
        lines = (sim_dir / "ledger.csv").read_text().splitlines()
        assert lines[0] == "t,total_energy,dissipated,work,ledger_residual"
        assert len(lines) == 26

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SIM_CONFIG)
        out = tmp_path / "again"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == (sim_dir / "summary.json").read_bytes()
        assert (out / "demo_0010.ckhs").read_bytes() == (sim_dir / "demo_0010.ckhs").read_bytes()

    def test_memory_does_not_grow_with_the_series(self, tmp_path, traced_peak):
        # each snapshot is written as the run reaches it, so 64 snapshots may
        # cost more than 16 by the rows kept per snapshot (ledger, times,
        # file names), not by stored payloads
        assert peak_growth(traced_peak, tmp_path, "simulate") < 4 * 3 * 32**2 * 8
        assert len(list((tmp_path / "out64").glob("run_*.ckhs"))) == 65

    def test_without_snapshots_no_state_is_kept(self, tmp_path, traced_peak):
        # the summary needs the snapshot count alone, so no State outlives its snapshot
        assert peak_growth(traced_peak, tmp_path, "simulate", write_snapshots=False) < 4 * 3 * 32**2 * 8
        summary = json.loads((tmp_path / "out64" / "summary.json").read_text())
        assert (summary["snapshot_count"], summary["snapshot_files"]) == (65, [])
        assert not list((tmp_path / "out64").glob("*.ckhs"))

    def test_a_shorter_series_replaces_a_longer_one(self, tmp_path):
        # the second run's files past its count would otherwise join its series
        out = tmp_path / "out"
        for count in (8, 4):
            cfg = tmp_path / f"exp{count}.ini"
            cfg.write_text(SIM_CONFIG.replace("snapshots = 24", f"snapshots = {count}"))
            cli_ok(["simulate", "--config", str(cfg), "--out", str(out)])
        assert sorted(p.name for p in out.glob("demo_*")) == [f"demo_{i:04d}.ckhs" for i in range(5)]
        diag = tmp_path / "diag"
        cli_ok(["diagnose", "--dir", str(out), "--prefix", "demo", "--out", str(diag), "--spectrum"])
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((diag / "diagnostics.json").read_text())
        assert report["snapshot_count"] == summary["snapshot_count"] == 5

    def test_a_blown_up_run_leaves_no_snapshots(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BLOWUP_CONFIG)
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


class TestDiagnose:
    def test_all_sections(self, sim_dir):
        code = cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo"])
        assert code == 0
        data = json.loads((sim_dir / "diagnostics.json").read_text())
        for key in ("spectrum", "ckhw", "sobolev", "integrability", "moduli",
                    "residuals", "admissibility", "reynolds"):
            assert key in data
        assert (sim_dir / "spectrum.csv").exists()
        assert (sim_dir / "moduli.csv").exists()
        assert (sim_dir / "residuals.csv").exists()
        assert data["residuals"]["mass_max_rel"] < 0.05
        assert data["residuals"]["ns_max_rel"] < 0.05
        assert data["reynolds"]["vacuum_fraction"] == 0.0

    def test_section_key_sets(self, sim_dir, tmp_path):
        assert cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo",
                         "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "diagnostics.json").read_text())
        assert set(data) == {
            "command", "prefix", "snapshot_count", "horizon", "fluid", "spectrum", "ckhw",
            "sobolev", "integrability", "moduli", "residuals", "admissibility", "reynolds",
        }
        assert set(data["fluid"]) == {"gamma", "kappa", "mu", "lam"}
        assert set(data["spectrum"]) == {"exponent", "prefactor", "fit_residual", "m_t", "window", "csv"}
        assert set(data["ckhw"]) == {"value", "per_mode_sup", "beta", "k_star"}
        assert set(data["sobolev"]) == {"alpha", "norm"}
        assert set(data["integrability"]) == {"rho_norm", "q1", "m_norm", "q2", "w_norm", "q"}
        assert set(data["moduli"]) == {"exponent", "space", "time", "csv"}
        for kind in ("space", "time"):
            assert set(data["moduli"][kind]) == {"density_slope", "momentum_slope"}
        assert set(data["residuals"]) == {"mass_max_rel", "ns_max_rel", "csv"}
        assert set(data["admissibility"]) == {"max_residual", "tol", "admissible", "work_assumed_zero"}
        assert set(data["reynolds"]) == {
            "trace_file", "trace_min", "trace_mean", "trace_max", "vacuum_fraction", "theta",
        }

    def test_selected_section_only(self, sim_dir, tmp_path):
        code = cli_main([
            "diagnose", "--dir", str(sim_dir), "--prefix", "demo",
            "--out", str(tmp_path), "--spectrum",
        ])
        assert code == 0
        data = json.loads((tmp_path / "diagnostics.json").read_text())
        assert "spectrum" in data
        assert "moduli" not in data
        assert not (tmp_path / "moduli.csv").exists()

    def test_missing_series_is_runtime_error(self, tmp_path):
        assert cli_main(["diagnose", "--dir", str(tmp_path), "--prefix", "demo"]) == 1

    def test_equilibrium_spectrum_keeps_csv_without_fit(self, tmp_path):
        cfg = tmp_path / "still.ini"
        cfg.write_text(
            "[grid]\nd = 1\nn = 16\n"
            "[initial]\npreset = equilibrium\n"
            "[run]\nhorizon = 0.05\nsnapshots = 2\n"
            "[output]\ndirectory = out\nprefix = still\n"
        )
        out = tmp_path / "out"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["diagnose", "--dir", str(out), "--prefix", "still",
                         "--spectrum"]) == 0
        rows = list(csv.DictReader((out / "spectrum.csv").open()))
        energies = [float(r["integrated_energy"]) for r in rows]
        assert energies[0] > 0.0
        assert max(energies[1:]) <= 1e-20 * energies[0]
        data = json.loads((out / "diagnostics.json").read_text())
        assert "nonempty shells" in data["spectrum"]["fit_error"]
        assert "exponent" not in data["spectrum"]

    def test_reynolds_trace_is_a_sidecar(self, sim_dir, tmp_path):
        assert cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo",
                         "--out", str(tmp_path), "--residuals"]) == 0
        rey = json.loads((tmp_path / "diagnostics.json").read_text())["reynolds"]
        assert "trace" not in rey
        trace = np.load(tmp_path / rey["trace_file"])
        assert trace.shape == (32,)
        assert rey["trace_min"] == float(np.min(trace)) > 0.0
        assert rey["trace_max"] == float(np.max(trace))
        assert rey["trace_mean"] == float(np.mean(trace))

    @pytest.mark.parametrize("key,n,mu", [("n", 16, 0.005), ("mu", 32, 0.004)])
    def test_inconsistent_headers_exit_one(self, sim_dir, tmp_path, capsys, key, n, mu):
        # one later snapshot from a run on another grid or viscosity
        cfg = tmp_path / "odd.ini"
        cfg.write_text(
            f"[grid]\nd = 1\nn = {n}\n[fluid]\nmu = {mu}\n"
            "[initial]\npreset = acoustic-pulse\namplitude = 0.2\n"
            "[run]\nhorizon = 0.6\nsnapshots = 2\n[output]\nprefix = demo\n"
        )
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "odd")]) == 0
        series = tmp_path / "series"
        shutil.copytree(sim_dir, series)
        shutil.copy(tmp_path / "odd" / "demo_0002.ckhs", series / "demo_0025.ckhs")
        code = cli_main(["diagnose", "--dir", str(series), "--prefix", "demo",
                         "--out", str(tmp_path / "report")])
        assert code == 1
        assert f"demo_0025.ckhs: header {key} = " in capsys.readouterr().err

    @pytest.mark.parametrize("box", [1e300, -1.0])
    def test_a_bad_box_in_the_headers_exits_one_naming_the_file(self, sim_dir, tmp_path, capsys, box):
        # the CRC covers the payload only, so the box is checked as the grid is built
        series = tmp_path / "series"
        shutil.copytree(sim_dir, series)
        for path in series.glob("demo_*.ckhs"):
            blob = bytearray(path.read_bytes())
            blob[16:24] = np.float64(box).tobytes()
            path.write_bytes(bytes(blob))
        code = cli_main(["diagnose", "--dir", str(series), "--prefix", "demo", "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: demo_0000.ckhs: box length must be positive") and err.count("\n") == 1
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("offset, value, message", [
        (24, 0.5, "gamma must exceed 1 and be finite, got 0.5"),
        (24, math.nan, "gamma must exceed 1 and be finite, got nan"),
        (32, -1.0, "kappa must be positive and finite, got -1.0"),
        (40, -1.0, "mu must be nonnegative and finite, got -1.0"),
        (40, math.nan, "mu must be nonnegative and finite, got nan"),
        (48, -5.0, "lam + 2*mu must be positive and finite, got -4.99"),
    ], ids=["gamma-0.5", "gamma-nan", "kappa-negative", "mu-negative", "mu-nan", "lam-minus-5"])
    def test_bad_fluid_constants_in_the_headers_exit_one_naming_the_file(self, sim_dir, tmp_path, capsys,
                                                                          offset, value, message):
        # the same in every header, so only FluidParams' rules can catch them
        series = tmp_path / "series"
        shutil.copytree(sim_dir, series)
        for path in series.glob("demo_*.ckhs"):
            blob = bytearray(path.read_bytes())
            blob[offset:offset + 8] = np.float64(value).tobytes()
            path.write_bytes(bytes(blob))
        code = cli_main(["diagnose", "--dir", str(series), "--prefix", "demo", "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: demo_0000.ckhs: {message}") and err.count("\n") == 1
        assert not (tmp_path / "report").exists()

    def test_mismatched_config_rejected(self, sim_dir, tmp_path):
        cfg = tmp_path / "wrong.ini"
        cfg.write_text("[fluid]\nmu = 0.25\n")
        code = cli_main([
            "diagnose", "--dir", str(sim_dir), "--prefix", "demo", "--config", str(cfg),
        ])
        assert code == 2


    def test_bad_diagnostics_config_exits_two_before_output(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SIM_CONFIG + "\n[diagnostics]\nq1 = 1.0\n")
        code = cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo",
                         "--config", str(cfg), "--out", str(tmp_path / "report")])
        assert code == 2
        assert "q1 must exceed gamma" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_lag_beyond_the_series_exits_two_before_output(self, tmp_path, capsys):
        # 4 snapshots leave no integration window for the default lag 4
        cfg = tmp_path / "short.ini"
        cfg.write_text(
            "[grid]\nd = 1\nn = 16\n[initial]\npreset = acoustic-pulse\namplitude = 0.1\n"
            "[run]\nhorizon = 0.05\nsnapshots = 3\n[output]\nprefix = short\n"
        )
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        report = tmp_path / "report"
        code = cli_main(["diagnose", "--dir", str(tmp_path / "run"), "--prefix", "short",
                         "--config", str(cfg), "--out", str(report)])
        assert code == 2
        assert "lag 4 leaves an empty integration window" in capsys.readouterr().err
        assert not report.exists() or not any(report.iterdir())
        assert cli_main(["diagnose", "--dir", str(tmp_path / "run"), "--prefix", "short",
                         "--config", str(cfg), "--out", str(report), "--spectrum"]) == 0

    def test_one_weighted_bundle_per_snapshot(self, sim_dir, tmp_path, monkeypatch):
        calls = []
        real = baroflow.diagnostics.weighted_fields

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(baroflow.diagnostics, "weighted_fields", counting)
        assert cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo",
                         "--out", str(tmp_path)]) == 0
        assert len(calls) == 25

    def test_integrability_matches_the_standalone_norms(self, sim_dir, tmp_path):
        assert cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo",
                         "--out", str(tmp_path), "--sobolev"]) == 0
        got = json.loads((tmp_path / "diagnostics.json").read_text())["integrability"]
        series = scan_series(sim_dir, "demo")
        meta = series.meta
        params = FluidParams(gamma=meta.gamma, kappa=meta.kappa, mu=meta.mu, lam=meta.lam)
        rep = baroflow.diagnostics.high_integrability(series, params)
        for name in ("rho_norm", "m_norm", "w_norm", "q"):
            assert got[name] == getattr(rep, name), name

    @pytest.mark.parametrize("config", [FORCED_2D_CONFIG, FREE_3D_CONFIG], ids=["2d-forced", "3d-free"])
    def test_one_sweep_reports_equal_the_public_functions(self, tmp_path, config):
        # diagnose feeds every section from one lazy read of each snapshot; each
        # report must equal the public functions applied to the loaded series
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(config)
        series_dir, out = tmp_path / "series", tmp_path / "report"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(series_dir)]) == 0
        assert cli_main(["diagnose", "--dir", str(series_dir), "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        cfg = ExperimentConfig.from_file(cfg_path)
        series = scan_series(series_dir, "run")
        rows, values, trace = expected_reports(series, cfg.fluid_params(), cfg.diagnostics)
        for name, want in rows.items():
            assert read_csv(out / name) == [list(row) for row in want], name
        data = json.loads((out / "diagnostics.json").read_text())
        for section, want in values.items():
            for key, value in want.items():
                assert data[section][key] == value, (section, key)
        assert np.array_equal(np.load(out / "reynolds_trace.npy"), trace)

    @pytest.mark.parametrize("config,forced", [(FORCED_2D_CONFIG, True), (FREE_3D_CONFIG, False)],
                             ids=["2d-forced", "3d-free"])
    def test_a_forced_series_gets_no_admissibility_verdict(self, tmp_path, config, forced):
        # the snapshots record no forcing work W; judging a forced run with
        # W = 0 gives a verdict on the wrong ledger
        cfg = tmp_path / "exp.ini"
        cfg.write_text(config)
        series_dir, out = tmp_path / "series", tmp_path / "report"
        cli_ok(["simulate", "--config", str(cfg), "--out", str(series_dir)])
        cli_ok(["diagnose", "--dir", str(series_dir), "--config", str(cfg), "--out", str(out), "--residuals"])
        adm = json.loads((out / "diagnostics.json").read_text())["admissibility"]
        assert (adm["admissible"] is None) is forced
        assert math.isfinite(adm["max_residual"]) and adm["tol"] > 0 and adm["work_assumed_zero"] is True

    def test_memory_does_not_grow_with_the_series(self, tmp_path, traced_peak):
        # the traced peak of a diagnose call at 64 snapshots may exceed the
        # one at 16 by the rows kept per snapshot (spectrum and weak-form
        # rows, times), not by stored payloads
        payload = 3 * 32**2 * 8
        for count in (16, 64):
            synthetic_series(tmp_path / f"s{count}", 2, 32, count)

        def peak(count):
            argv = ["diagnose", "--dir", str(tmp_path / f"s{count}"), "--out", str(tmp_path / f"out{count}")]
            return traced_peak(lambda: cli_ok(argv))

        peak(16)  # first use: lazy imports and caches
        assert peak(64) - peak(16) < 4 * payload

    @pytest.mark.parametrize("key,old,new", [
        ("n", "n = 32", "n = 64"), ("d", "d = 1", "d = 2"), ("box", "n = 32", "n = 32\nbox = 1.0"),
    ], ids=["n", "d", "box"])
    def test_config_grid_must_match_the_headers(self, sim_dir, tmp_path, capsys, key, old, new):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SIM_CONFIG.replace(old, new, 1))
        report = tmp_path / "report"
        code = cli_main(["diagnose", "--dir", str(sim_dir), "--prefix", "demo",
                         "--config", str(cfg), "--out", str(report)])
        assert code == 2
        assert f"config [grid] {key} = " in capsys.readouterr().err
        assert not report.exists()

    def test_a_value_with_no_finite_fit_is_written_as_null(self, tmp_path):
        # one shift and one lag leave each moduli slope a fit of one point
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FORCED_2D_CONFIG + "\n[diagnostics]\nmoduli_shifts = 1\nmoduli_lags = 1\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert cli_main(["diagnose", "--dir", str(tmp_path / "run"), "--config", str(cfg),
                         "--out", str(tmp_path / "report"), "--moduli"]) == 0
        data = json.loads((tmp_path / "report" / "diagnostics.json").read_text(), parse_constant=strict_json)
        for kind in ("space", "time"):
            assert data["moduli"][kind] == {"density_slope": None, "momentum_slope": None}

    def test_corrupt_payload_exits_one_before_output(self, tmp_path, capsys):
        synthetic_series(tmp_path / "series", 1, 16, 8)
        path = tmp_path / "series" / "run_0005.ckhs"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        report = tmp_path / "report"
        code = cli_main(["diagnose", "--dir", str(tmp_path / "series"), "--out", str(report)])
        assert code == 1
        assert "run_0005.ckhs: payload checksum mismatch" in capsys.readouterr().err
        assert not report.exists() or not any(report.iterdir())


class TestSweep:
    def test_summary_tables(self, sweep_dir):
        data = json.loads((sweep_dir / "summary.json").read_text())
        assert data["command"] == "sweep"
        assert data["mu_values"] == [0.01, 0.005, 0.0025]
        assert all(e["completed"] for e in data["entries"])
        assert len(data["cauchy"]["rho_distances"]) == 2
        assert data["smallness"]["energy_bounded"] is True
        assert data["limit_candidate"]["plausible_limit"] is True
        assert (sweep_dir / "distances.csv").exists()
        assert (sweep_dir / "smallness.csv").exists()
        assert (sweep_dir / "ledger_02.csv").exists()

    def test_section_key_sets(self, sweep_dir):
        data = json.loads((sweep_dir / "summary.json").read_text())
        assert set(data) == {
            "command", "config_sha256", "config_text", "mu_values", "shared_dt", "entries",
            "cauchy", "reference", "smallness", "limit_candidate",
        }
        assert set(data["cauchy"]) == {"mu_pairs", "rho_distances", "m_distances", "p1", "p2"}
        assert set(data["reference"]) == {"mu_pairs", "rho_distances", "m_distances", "rho_rate", "m_rate"}
        assert set(data["smallness"]) == {"rows", "mu_grad_decreasing", "energy_bounded"}
        for row in data["smallness"]["rows"]:
            assert set(row) == {"mu", "grad_u_l2", "mu_grad", "sqrt_mu_grad", "dissipation"}
        assert set(data["limit_candidate"]) == {
            "mu", "mass_max_rel", "ns_max_rel", "euler_deficit_rel", "admissible", "ledger_rel",
            "vacuum_fraction", "m_t", "rel_tol", "plausible_limit",
        }

    def test_snapshots_respect_config_flag(self, sweep_dir):
        assert not (sweep_dir / "entry_00").exists()

    def test_rerun_is_byte_identical(self, sweep_dir, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SWEEP_CONFIG)
        out = tmp_path / "again"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == (sweep_dir / "summary.json").read_bytes()

    def test_memory_does_not_grow_with_the_series(self, tmp_path, traced_peak):
        # with snapshots every rung streams to disk and the distances,
        # smallness and limit check read the series back lazily: 64 snapshots
        # may cost more than 16 by the rows kept per snapshot, not by payloads
        assert peak_growth(traced_peak, tmp_path, "sweep") < 4 * 3 * 32**2 * 8
        for i in range(2):
            assert len(list((tmp_path / "out64" / f"entry_{i:02d}").glob("run_*.ckhs"))) == 65

    def test_a_failed_rung_leaves_no_snapshots(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FAILING_RUNG_CONFIG)
        out = tmp_path / "out"
        cli_ok(["sweep", "--config", str(cfg), "--out", str(out)])
        data = json.loads((out / "summary.json").read_text())
        assert [e["completed"] for e in data["entries"]] == [True, True, False]
        assert "limit_candidate" in data
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*.ckhs*"))
        assert written == [f"entry_{i:02d}/run_{k:04d}.ckhs" for i in range(2) for k in range(5)]
        assert not (out / "entry_02").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("snapshots", ["false", "true"])
    def test_a_blown_up_least_viscous_rung_leaves_the_next_the_reference(self, tmp_path, snapshots):
        text = FAILING_RUNG_CONFIG + f"\n[output]\nwrite_snapshots = {snapshots}\n"
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        cli_ok(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        sweep = run_sweep(ExperimentConfig.parse(text).sweep_plan())
        assert [e.completed for e in sweep.entries] == [True, True, False]
        cauchy = assert_sweep_reports_equal_the_library(tmp_path / "out", sweep)
        assert cauchy.mu_pairs == ((0.3, 0.075),)

    @pytest.mark.parametrize("snapshots", ["false", "true"])
    def test_a_blown_up_middle_rung_is_skipped_by_its_cauchy_pair(self, tmp_path, monkeypatch, snapshots):
        real_run = baroflow.sweep.run

        def leaky_second_rung(initial, params, *args, **kwargs):
            if params.mu == 0.005:  # mass drift fails the rung
                kwargs["extra_source"] = lambda t, rho, m: (np.full_like(rho, 1e-3), np.zeros_like(m))
            return real_run(initial, params, *args, **kwargs)

        monkeypatch.setattr(baroflow.sweep, "run", leaky_second_rung)
        text = SWEEP_CONFIG.replace("count = 3", "count = 4").replace("write_snapshots = false",
                                                                      f"write_snapshots = {snapshots}")
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        cli_ok(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        sweep = run_sweep(ExperimentConfig.parse(text).sweep_plan())
        assert [e.completed for e in sweep.entries] == [True, False, True, True]
        cauchy = assert_sweep_reports_equal_the_library(tmp_path / "out", sweep)
        assert cauchy.mu_pairs == ((0.01, 0.0025), (0.0025, 0.00125))

    def test_without_snapshots_two_rungs_of_states_are_held(self, tmp_path, monkeypatch):
        # a 4-rung ladder runs the reference 3, the pair (0, 1), then 2; once
        # each round has returned and its answers are taken in (when the next
        # store is made, or the tables), the series alive are the reference's
        # and the partner's, or fewer; keeping every series would hold 4.
        # They share the initial State, the one State alive, and hold each
        # later State as a coefficient block
        refs, held = [], []
        check, init = State.__post_init__, BlockSeries.__init__

        def counted(state):
            check(state)
            refs.append(weakref.ref(state))

        def counted_series(series, *args, **kwargs):
            init(series, *args, **kwargs)
            held.append(weakref.ref(series))

        monkeypatch.setattr(State, "__post_init__", counted)
        monkeypatch.setattr(BlockSeries, "__init__", counted_series)
        alive = []

        def count():
            gc.collect()
            series = [s for ref in held if (s := ref()) is not None]
            blocks = sum(not isinstance(h, State) for s in series for h in s.held)
            alive.append((sum(ref() is not None for ref in refs), blocks))

        for name in ("store_for", "tables"):
            def counting(*args, real=getattr(StreamedTables, name), **kwargs):
                result = real(*args, **kwargs)
                count()
                return result

            monkeypatch.setattr(StreamedTables, name, counting)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SWEEP_CONFIG.replace("count = 3", "count = 4").replace("snapshots = 60", "snapshots = 8"))
        cli_ok(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        per_rung = 8
        # made: the reference's store; the pair's two, after the reference ran;
        # rung 2's, after the pair ran; then the tables, after rung 2 ran
        assert alive == [(1, 0), (1, per_rung), (1, per_rung), (1, 2 * per_rung), (1, per_rung)]

    @pytest.mark.parametrize("at", [0, 4, 8])
    @pytest.mark.parametrize("count, index", [(count, index) for count in (4, 5) for index in range(count)])
    def test_a_rung_that_blows_up_at_any_snapshot_leaves_the_reports_of_the_library(
            self, tmp_path, failing_rung, count, index, at):
        # the 5-rung ladder runs the pairs (0, 1) and (2, 3), the 4-rung one the
        # pair (0, 1) and rung 2 alone; rung index blows up at its first, middle
        # or last State, and its pair-mate, the partner and the reference go on
        text = SWEEP_CONFIG.replace("count = 3", f"count = {count}").replace("snapshots = 60", "snapshots = 8")
        plan = ExperimentConfig.parse(text).sweep_plan()
        failing_rung(plan.mu_values[index], at)
        sweep = run_sweep(plan)
        assert [e.completed for e in sweep.entries] == [i != index for i in range(count)]
        threads = threading.active_count()
        for snapshots in ("false", "true"):
            cfg = tmp_path / f"exp_{snapshots}.ini"
            cfg.write_text(text.replace("write_snapshots = false", f"write_snapshots = {snapshots}"))
            cli_ok(["sweep", "--config", str(cfg), "--out", str(tmp_path / snapshots)])
            assert threading.active_count() == threads
            assert_sweep_reports_equal_the_library(tmp_path / snapshots, sweep)

    @pytest.mark.parametrize("config", ["1d", "3d-forced"])
    def test_snapshots_leave_the_reports_unchanged(self, tmp_path, config):
        # a sweep that writes its rungs' snapshots reads them back for the
        # distances, smallness and limit check; every number stays the same
        text = SWEEP_CONFIG if config == "1d" else FREE_3D_CONFIG.replace(
            "[initial]", "[forcing]\nmode = trig\nterm1 = 0.05,0.0,0.0@1,0,0@0.0\n\n[initial]"
        ) + "\n[sweep]\nmu_max = 0.02\nratio = 0.5\ncount = 3\n\n[output]\nwrite_snapshots = false\n"
        outs = {}
        for snapshots in ("false", "true"):
            cfg = tmp_path / f"exp_{snapshots}.ini"
            cfg.write_text(text.replace("write_snapshots = false", f"write_snapshots = {snapshots}"))
            outs[snapshots] = tmp_path / f"out_{snapshots}"
            cli_ok(["sweep", "--config", str(cfg), "--out", str(outs[snapshots])])
        without, with_ = outs["false"], outs["true"]
        assert (with_ / "entry_02" / "run_0000.ckhs").exists() and not (without / "entry_00").exists()
        for name in ("distances.csv", "smallness.csv", "ledger_00.csv", "ledger_02.csv"):
            assert (with_ / name).read_bytes() == (without / name).read_bytes(), name
        a, b = (json.loads((o / "summary.json").read_text()) for o in (without, with_))
        for section in ("cauchy", "reference", "smallness", "limit_candidate", "entries"):
            assert a[section] == b[section], section

    def test_bad_theta_exits_two_before_a_rung(self, tmp_path, monkeypatch, capsys):
        rungs = []
        real_run = baroflow.sweep.run
        monkeypatch.setattr(baroflow.sweep, "run", lambda *a, **k: rungs.append(1) or real_run(*a, **k))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SWEEP_CONFIG + "\n[diagnostics]\ntheta = 0.0\n")
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "theta must be positive" in capsys.readouterr().err
        assert rungs == [] and not (tmp_path / "out").exists()

    def test_fluid_lam_exits_two_before_a_rung(self, tmp_path, monkeypatch, capsys):
        """Every rung runs lam = [sweep] lam_ratio * mu, so a [fluid] lam
        would be recorded in config_text and then ignored."""
        rungs = []
        real_run = baroflow.sweep.run
        monkeypatch.setattr(baroflow.sweep, "run", lambda *a, **k: rungs.append(1) or real_run(*a, **k))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SWEEP_CONFIG + "\n[fluid]\nlam = 0.0\n")
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "[sweep] lam_ratio" in capsys.readouterr().err
        assert rungs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, completed", [
        (BLOWUP_CONFIG + "\n[sweep]\nmu_max = 0.02\ncount = 3\n", [False, False, False]),
        (BLOWUP_CONFIG.replace("amplitude = 8.0", "amplitude = 6.0")
         + "\n[sweep]\nmu_max = 0.5\nratio = 0.3\ncount = 3\n", [True, False, False]),
    ], ids=["no-rung-completes", "one-rung-completes"])
    def test_fewer_than_two_completed_rungs_exit_one_with_one_error_line(self, tmp_path, capsys, text, completed):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        error = "error: fewer than two runs completed; no limit diagnostics\n"
        assert capsys.readouterr().err == error
        summary = json.loads((out / "summary.json").read_text())
        assert [e["completed"] for e in summary["entries"]] == completed
        assert summary.keys().isdisjoint({"cauchy", "reference", "smallness", "limit_candidate"})
        assert cli_main(["report", "--dir", str(out)]) == 0
        assert capsys.readouterr().out.endswith(error)


class TestReport:
    def test_simulate_report(self, sim_dir, capsys):
        assert cli_main(["report", "--dir", str(sim_dir)]) == 0
        text = capsys.readouterr().out
        assert "summary of `simulate`" in text
        assert "admissible: True" in text

    def test_sweep_report(self, sweep_dir, capsys):
        assert cli_main(["report", "--dir", str(sweep_dir)]) == 0
        text = capsys.readouterr().out
        assert "plausible limit: True" in text
        assert "rates against the least viscous run" in text

    def test_sweep_report_with_a_null_rate(self, sweep_dir, tmp_path, capsys):
        # convergence_rate is inf when every distance is zero; the summary holds null
        data = json.loads((sweep_dir / "summary.json").read_text())
        data["reference"]["m_rate"] = None
        baroflow.cli._write_json(tmp_path / "summary.json", data)
        assert cli_main(["report", "--dir", str(tmp_path)]) == 0
        rho_rate = data["reference"]["rho_rate"]
        assert f"rates against the least viscous run: rho {rho_rate:.3f}\n" in capsys.readouterr().out

    def test_json_reports_hold_no_nan_or_infinity(self, tmp_path):
        path = tmp_path / "summary.json"
        baroflow.cli._write_json(path, {"rate": float("inf"), "slopes": np.array([np.nan, 1.5]),
                                        "m_t": np.float64(-np.inf)})
        assert json.loads(path.read_text(), parse_constant=strict_json) == {
            "rate": None, "slopes": [None, 1.5], "m_t": None}

    def test_missing_summary(self, tmp_path):
        assert cli_main(["report", "--dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("corrupt", ["simulate-without-energy", "cauchy-without-reference", "not-json",
                                         "not-an-object", "a-directory"])
    def test_corrupt_summary_exits_one(self, sweep_dir, tmp_path, capsys, corrupt):
        path = tmp_path / "summary.json"
        if corrupt == "simulate-without-energy":
            path.write_text('{"command": "simulate"}')
        elif corrupt == "cauchy-without-reference":
            data = json.loads((sweep_dir / "summary.json").read_text())
            del data["reference"]
            baroflow.cli._write_json(path, data)
        elif corrupt == "a-directory":
            path.mkdir()
        else:
            path.write_text("{not json" if corrupt == "not-json" else "[1, 2]")
        assert cli_main(["report", "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]


class TestExitCodes:
    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
        text = capsys.readouterr().out
        assert text.count("ok   ") == 6
        assert "FAIL" not in text

    def test_blow_up_exits_one(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BLOWUP_CONFIG)
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_mass_drift_exits_one(self, tmp_path, monkeypatch, capsys):
        real_run = baroflow.cli.run

        def leaky_run(*args, **kwargs):
            def inject_mass(t, rho, m):
                return np.full_like(rho, 1e-3), np.zeros_like(m)

            return real_run(*args, extra_source=inject_mass, **kwargs)

        monkeypatch.setattr(baroflow.cli, "run", leaky_run)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SIM_CONFIG)
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: mass drifted" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # every snapshot was written, then discarded

    def test_an_interrupt_exits_130_with_one_line_and_no_partial_file(self, tmp_path, monkeypatch, capsys):
        written = []
        real_write = baroflow.snapshots.write_snapshot

        def interrupted_at_state_3(path, st, params):
            if len(written) == 3:
                raise KeyboardInterrupt
            written.append(path)
            return real_write(path, st, params)

        monkeypatch.setattr(baroflow.snapshots, "write_snapshot", interrupted_at_state_3)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SIM_CONFIG)
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"  # no traceback
        assert [p.name for p in written] == [f"demo_000{i}.ckhs.part" for i in range(3)]
        assert not any(tmp_path.rglob("*.part")) and not (tmp_path / "out").exists()

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[grid]\nsize = 32\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_forcing_terms_without_trig_mode_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[grid]\nd = 2\nn = 16\n\n[forcing]\nterm1 = 0.05,0.0@1,0@0.0\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "need mode 'trig'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("[fluid]", "[forcing]\nmode = trig\nrate = 2.0\nterm1 = 0.05@1@0.0\n\n[fluid]",
         "const envelope takes no rate"),
        # simulate never runs the ladder, but the file must still be valid
        ("[output]", "[sweep]\nratio = 1.5\n\n[output]", "ratio must lie in (0, 1)"),
        ("[run]", "[run]\ncfl = -0.5", "cfl"),
        ("preset = acoustic-pulse", "preset = vortex-sheet", "vortex-sheet"),
        # n = 32 keeps modes up to n//3 = 10; mode 11 would be dropped unseen
        ("[fluid]", "[forcing]\nmode = trig\nterm1 = 0.05@11@0.0\n\n[fluid]", "two-thirds cutoff"),
        ("horizon = 0.3", "horizon = inf", "horizon T must be positive and finite"),
        ("snapshots = 24", "snapshots = 0", "need at least one snapshot interval"),
    ])
    def test_invalid_config_exits_two_before_output(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SIM_CONFIG.replace(old, new))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("box", ["1e300", "inf", "nan", "1e-300"])
    def test_a_degenerate_box_exits_two_with_one_error_line(self, tmp_path, capsys, command, box):
        # P, the volume P^d, the cell volume (P/n)^d or the largest |k|^2
        # overflows, vanishes or is not a number
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FORCED_2D_CONFIG.replace("n = 16", f"n = 16\nbox = {box}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: box length must be positive") and f"got {float(box)}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
    def test_a_non_finite_amplitude_exits_two_naming_the_key(self, tmp_path, capsys, command, amplitude):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FORCED_2D_CONFIG.replace("amplitude = 0.3", f"amplitude = {amplitude}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: [initial] amplitude must be finite, got {float(amplitude)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("amplitude", ["1e300", "-1e300", "1.5e12"])
    def test_an_amplitude_past_the_blow_up_threshold_exits_two_naming_the_key(self, tmp_path, capsys, command,
                                                                                amplitude):
        # a random-band momentum of 5e299 overflowed the CFL speed's square
        # and left a step of 0.0; the presets' |m| is at most |amplitude|
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FORCED_2D_CONFIG.replace("amplitude = 0.3", f"amplitude = {amplitude}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: [initial] amplitude must be at most the solver's blow-up threshold "
                                     f"1e+12 in magnitude, got {float(amplitude)}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_an_amplitude_under_equilibrium_exits_two_naming_the_key(self, tmp_path, capsys, command):
        # the equilibrium preset reads no amplitude: an explicit one would be
        # recorded with the run and ignored
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FORCED_2D_CONFIG.replace("preset = random-band\nseed = 4\n", "preset = equilibrium\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: [initial] amplitude must be blank under preset equilibrium, got 0.3\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, old, new, message", [
        ("simulate", "[diagnostics]", "[diagnostics]\nq1 = inf", "q1 must exceed gamma = 1.4 and be finite, got inf"),
        ("simulate", "[diagnostics]", "[diagnostics]\nq2 = inf",
         "q2 and q must exceed 2 and be finite, got q2 = inf, q = inf"),
        ("simulate", "[diagnostics]", "[diagnostics]\nq = inf",
         "q2 and q must exceed 2 and be finite, got q2 = 2.5, q = inf"),
        ("simulate", "[diagnostics]", "[diagnostics]\nsobolev_alpha = inf",
         "alpha must be nonnegative and finite, got inf"),
        ("simulate", "[diagnostics]", "[diagnostics]\nckhw_beta = inf", "beta must be positive and finite, got inf"),
        ("simulate", "[diagnostics]", "[diagnostics]\ntheta = inf",
         "vacuum threshold theta must be positive and finite, got inf"),
        ("simulate", "[fluid]", "[fluid]\nrho_min = inf", "rho_min must be positive and finite, got inf"),
        ("sweep", "[fluid]", "[fluid]\nrho_min = inf", "rho_min must be positive and finite, got inf"),
        ("simulate", "[fluid]", "[fluid]\nkappa = inf", "kappa must be positive and finite, got inf"),
        ("simulate", "[fluid]", "[fluid]\nlam = inf", "lam + 2*mu must be positive and finite, got inf"),
        ("simulate", "mu = 0.002", "mu = inf", "mu must be nonnegative and finite, got inf"),
        ("simulate", "[fluid]", "[fluid]\ngamma = inf", "gamma must exceed 1 and be finite, got inf"),
        ("sweep", "[sweep]", "[sweep]\nlam_ratio = inf", "lam_ratio must exceed -2 and be finite, got inf"),
        ("sweep", "[sweep]", "[sweep]\nmu_max = inf",
         "sweep viscosities must be positive and finite (a ladder's mu_max must be positive and finite)"),
        ("simulate", "mode = trig", "mode = trig\nenvelope = cos\nrate = inf", "forcing rate must be finite, got inf"),
        ("simulate", "mode = trig", "mode = trig\nenvelope = exp\nrate = -inf",
         "forcing rate must be finite, got -inf"),
        ("simulate", "mode = trig", "mode = trig\nenvelope = cos\nrate = nan", "forcing rate must be finite, got nan"),
        ("simulate", "0.05,0.0@1,0@0.0", "inf,0.0@1,0@0.0",
         "term amplitudes and phase must be finite, got (inf, 0.0) and 0.0"),
        ("simulate", "0.05,0.0@1,0@0.0", "0.05,0.0@1,0@nan",
         "term amplitudes and phase must be finite, got (0.05, 0.0) and nan"),
    ], ids=["q1", "q2", "q", "sobolev_alpha", "ckhw_beta", "theta", "rho_min", "sweep-rho_min", "kappa", "lam",
            "mu", "gamma", "lam_ratio", "mu_max", "rate-inf", "rate-minus-inf", "rate-nan", "term-amplitude",
            "term-phase"])
    def test_a_non_finite_value_exits_two_naming_its_parameter(self, tmp_path, capsys, command, old, new, message):
        # each one ran on, or failed later under another name or with numpy
        # warnings: the rule's owner rejects it as the config is read
        cfg = tmp_path / "exp.ini"
        cfg.write_text((FORCED_2D_CONFIG + "\n[diagnostics]\n\n[sweep]\ncount = 2\n").replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("old, new, message", [
        ("seed = 4\n", "", "random-band needs a seed"),
        ("preset = random-band", "preset = acoustic-pulse", "acoustic-pulse takes no seed"),
    ], ids=["random-band-without-seed", "seed-under-acoustic-pulse"])
    def test_a_seed_is_required_by_random_band_only(self, tmp_path, capsys, command, old, new, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FORCED_2D_CONFIG.replace(old, new))
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, old, new", [
        ("simulate", "mu = 0.01", "mu = 1e300"),
        ("sweep", "count = 2", "count = 2\nmu_max = 1e300"),
        ("sweep", "count = 2", "count = 2\nlam_ratio = 1e300"),
    ], ids=["mu", "mu_max", "lam_ratio"])
    def test_a_run_past_the_step_bound_exits_two_before_output(self, tmp_path, command, old, new):
        # each run would take some 1e300 steps; a subprocess bounds the wait
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SHORT_CONFIG.replace(old, new))
        src = str(Path(baroflow.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "baroflow.cli", command, "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: the run needs ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(f"more than the {baroflow.solver.MAX_STEPS} a run may take\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, code, message", [
        ("[fluid]", "[forcing]\nmode = trig\nterm1 = 1e300@1@0.0\n\n[fluid]", 1,
         "solution magnitude nan at t = 0.0125 exceeds 1.0e+12"),
        ("mu = 0.01", "mu = 0.01\ngamma = 1e300", 2,
         "the fastest wave speed |u| + sqrt(gamma) c is inf: gamma = 1e+300, kappa = 1.0 give no stable step"),
    ], ids=["amplitude", "gamma"])
    def test_a_finite_extreme_exits_with_one_error_line_and_no_warning(self, tmp_path, capsys, old, new, code,
                                                                        message):
        # the overflow is the run's to report, once, not numpy's on the way
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SHORT_CONFIG.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, snapshots", [("simulate", "true"), ("sweep", "false"), ("sweep", "true")])
    def test_an_exp_envelope_that_overflows_is_a_blow_up(self, tmp_path, capsys, command, snapshots):
        # simulate fails; a sweep marks every rung failed and writes its summary alone
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SHORT_CONFIG.replace("[fluid]", OVERFLOWING_FORCING).replace(
            "write_snapshots = false", f"write_snapshots = {snapshots}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        overflow = "forcing envelope exp(-rate * t) overflows at t = "
        if command == "simulate":
            assert err.startswith(f"error: {overflow}")
            assert not (tmp_path / "o").exists()
        else:
            summary = json.loads((tmp_path / "o" / "summary.json").read_text())
            assert all(e["failure"].startswith(overflow) for e in summary["entries"])
            assert [p.name for p in (tmp_path / "o").iterdir()] == ["summary.json"]

    @pytest.mark.parametrize("text, message", [
        (SIM_CONFIG.replace("n = 32", "n = sixteen"), "[grid] n: not an integer: 'sixteen'"),
        (SIM_CONFIG + "write_snapshots = maybe\n", "[output] write_snapshots: not a boolean: 'maybe'"),
        ("[grid\nd = 1\n",
         "config syntax error: File contains no section headers. file: '<string>', line: 1 '[grid\\n'"),
        (SIM_CONFIG.replace("[fluid]", "[forcing]\nmode = trig\nterm_a = 0.05@1@0.0\n\n[fluid]"),
         "forcing term keys look like term1, term2, ...; got 'term_a'"),
    ], ids=["integer", "boolean", "syntax", "term-key"])
    def test_an_unreadable_config_exits_two_with_one_error_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_two(self, tmp_path):
        # a wrong --config path is a usage error, unlike missing data
        code = cli_main(["simulate", "--config", str(tmp_path / "none.ini"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_usage_error_exits_two(self):
        assert cli_main(["simulate"]) == 2
        assert cli_main(["no-such-command"]) == 2

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    @pytest.mark.skipif(shutil.which("baroflow") is None, reason="console script not installed")
    def test_console_script_selftest(self):
        proc = subprocess.run(["baroflow", "selftest"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all 6 checks passed" in proc.stdout
