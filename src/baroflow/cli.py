"""Command line driver.

Subcommands: simulate (one run), diagnose (stored series), sweep
(viscosity ladder), report (pretty-print a summary), selftest (built-in
oracle checks).  Exit codes: 0 success, 1 runtime failure such as a
blow-up or a missing or corrupt file, 2 usage or configuration error,
130 an interrupt (Ctrl-C).

Reports are deterministic: JSON is sorted and timestamp-free, CSV
floats use %.17g, so rerunning a seeded experiment reproduces the
output byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from .config import ExperimentConfig
from .fields import Field, dft_forward, make_grid
from .snapshots import SnapshotFormatError, read_snapshot, scan_series, write_pass, write_snapshot
from .solver import BlowUpError, FluidParams, preset_ic, run, times_pass, total_energy
from .sweep import StreamedTables, convergence_rate, limit_candidate_check, run_sweep

__all__ = ["cli_main", "build_parser"]


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None  # JSON has no NaN or infinity
    return obj


def _write_json(path, payload):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _ledger_rows(report):
    return zip(report.t, report.E, report.D, report.W, report.R)


_LEDGER_HEADER = ["t", "total_energy", "dissipated", "work", "ledger_residual"]


def _energy_summary(report) -> dict:
    return {
        "initial": report.E0,
        "final": float(report.E[-1]),
        "dissipated": float(report.D[-1]),
        "work": float(report.W[-1]),
        "ledger_residual": float(report.R[-1]),
    }


def _admissibility(adm) -> dict:
    return {"max_residual": adm.max_residual, "tol": adm.tol, "admissible": adm.admissible}


def _load_config(path) -> ExperimentConfig:
    """Read an experiment file, treating a missing path as a usage
    error (exit 2) rather than a runtime failure like missing data."""
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    return ExperimentConfig.from_file(p)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out) if args.out else Path(cfg.output.directory)
    grid = cfg.make_grid()
    params = cfg.fluid_params()
    initial = cfg.initial_state(grid, params)
    count, writes = cfg.run.snapshots + 1, cfg.output.write_snapshots
    store = write_pass(out, cfg.output.prefix, params, count) if writes else times_pass(count)
    result = run(initial, params, T=cfg.run.horizon, snapshots=cfg.run.snapshots, cfl=cfg.run.cfl, store=store)
    rep = result.report
    adm = dg.energy_admissibility(rep.t, rep.E, rep.W)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ledger.csv", _LEDGER_HEADER, _ledger_rows(rep))
    written = [p.name for p in result.series.paths] if writes else []
    summary = {
        "command": "simulate",
        "config_sha256": cfg.sha256(),
        "config_text": cfg.emit(),
        "dt": result.dt,
        "steps_per_snapshot": result.steps_per_snapshot,
        "snapshot_count": len(result.series),
        "snapshot_files": written,
        "times": rep.t,
        "energy": {**_energy_summary(rep), "estimate_constant": rep.M_T},
        "admissibility": _admissibility(adm),
    }
    _write_json(out / "summary.json", summary)
    print(f"simulate: {len(result.series)} snapshots at dt = {result.dt:.6g}")
    print(f"energy ledger residual {rep.R[-1]:.3e}, admissible: {adm.admissible}")
    print(f"wrote {out / 'summary.json'}")
    return 0


def _diagnose_params(meta, config_path):
    if config_path is None:
        cfg = ExperimentConfig()
        params = FluidParams(gamma=meta.gamma, kappa=meta.kappa, mu=meta.mu, lam=meta.lam)
        return cfg, params
    cfg = _load_config(config_path)
    params = cfg.fluid_params()
    for name, got, want in (
        ("[grid] d", cfg.grid.d, meta.d),
        ("[grid] n", cfg.grid.n, meta.n),
        ("[grid] box", cfg.grid.box, meta.P),
        ("gamma", params.gamma, meta.gamma),
        ("kappa", params.kappa, meta.kappa),
        ("mu", params.mu, meta.mu),
        ("lam", params.lam, meta.lam),
    ):
        if got != want:
            raise ValueError(
                f"config {name} = {got} disagrees with the snapshot headers ({want})"
            )
    return cfg, params


def _cmd_diagnose(args) -> int:
    directory = Path(args.dir)
    out = Path(args.out) if args.out else directory
    series = scan_series(directory, args.prefix)
    cfg, params = _diagnose_params(series.meta, args.config)
    dcfg = cfg.diagnostics
    do_all = not (args.spectrum or args.ckhw or args.sobolev or args.moduli or args.residuals)
    T = float(series.times[-1])
    passes = {}
    if do_all or args.spectrum or args.ckhw or args.sobolev:
        exponents = (dcfg.q1, dcfg.q2, dcfg.q) if do_all or args.sobolev else None
        passes["spectrum"] = dg.spectral_pass(series, params, exponents)
    if do_all or args.moduli:
        passes["space"] = dg.space_modulus_pass(series, params, dcfg.moduli_shifts)
        passes["time"] = dg.time_modulus_pass(series, params, dcfg.moduli_lags)
    if do_all or args.residuals:
        passes["weak"] = dg.weak_pass(series, params, dg.default_test_functions(series.grid, T),
                                      dg.default_test_functions(series.grid, T, vector=True))
        passes["admissibility"] = dg.energy_pass(series, params)
    *results, last = dg.feed(series, passes.values())
    got = dict(zip(passes, results))
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "command": "diagnose",
        "prefix": args.prefix,
        "snapshot_count": len(series),
        "horizon": T,
        "fluid": {"gamma": params.gamma, "kappa": params.kappa, "mu": params.mu, "lam": params.lam},
    }
    spec = got.get("spectrum")

    if do_all or args.spectrum:
        k_phys = 2.0 * math.pi / spec.P
        shells = np.arange(len(spec.integrated_energy))
        _write_csv(
            out / "spectrum.csv",
            ["shell", "k_physical", "mode_count", "integrated_energy", "integrated_raw"],
            zip(shells, k_phys * shells, spec.counts, spec.integrated_energy, spec.integrated_raw),
        )
        try:
            fit = dg.ckh_fit(spec, dcfg.window_lo, dcfg.window_hi)
        except dg.SparseSpectrumError as exc:
            report["spectrum"] = {"fit_error": str(exc), "csv": "spectrum.csv"}
        else:
            report["spectrum"] = {
                "exponent": fit.exponent,
                "prefactor": fit.prefactor,
                "fit_residual": fit.residual,
                "m_t": fit.m_t,
                "window": [fit.k_lo, fit.k_hi],
                "csv": "spectrum.csv",
            }

    if do_all or args.ckhw:
        det = dg.ckhw_from_spectrum(spec, dcfg.ckhw_beta, dcfg.ckhw_k_star)
        report["ckhw"] = dataclasses.asdict(det)

    if do_all or args.sobolev:
        report["sobolev"] = {
            "alpha": dcfg.sobolev_alpha,
            "norm": dg.sobolev_norm_from_spectrum(spec, dcfg.sobolev_alpha),
        }
        report["integrability"] = dataclasses.asdict(spec.integrability)

    if do_all or args.moduli:
        sm, tm = got["space"], got["time"]
        rows = []
        for table in (sm, tm):
            rows.extend(
                (table.kind, L, rho_v, m_v)
                for L, rho_v, m_v in zip(table.lengths, table.density, table.momentum)
            )
        _write_csv(out / "moduli.csv", ["kind", "length", "density", "momentum"], rows)
        report["moduli"] = {
            "exponent": sm.exponent,
            "space": {"density_slope": sm.density_slope, "momentum_slope": sm.momentum_slope},
            "time": {"density_slope": tm.density_slope, "momentum_slope": tm.momentum_slope},
            "csv": "moduli.csv",
        }

    if do_all or args.residuals:
        weak, adm = got["weak"], got["admissibility"]
        rows = [("mass", i, r, s, g, 0.0, 0.0, 0.0) for i, (r, s, g) in enumerate(weak.mass)]
        rows.extend(
            ("momentum", i, mr.ns_residual, mr.quadrature_scale, mr.roundoff_scale,
             mr.euler_residual, mr.viscous_term, mr.viscous_bound)
            for i, mr in enumerate(weak.momentum)
        )
        _write_csv(
            out / "residuals.csv",
            ["equation", "index", "residual", "scale", "gross", "euler", "viscous", "bound"],
            rows,
        )
        report["residuals"] = {
            "mass_max_rel": weak.mass_max_rel,
            "ns_max_rel": weak.ns_max_rel,
            "csv": "residuals.csv",
        }
        # v1 snapshots record no forcing work W, so a forced run's verdict is unknown
        verdict = {"admissible": None} if params.forcing.active else {}
        report["admissibility"] = {**_admissibility(adm), **verdict, "work_assumed_zero": True}
        rq = dg.reynolds_quotient(last, dcfg.theta)
        np.save(out / "reynolds_trace.npy", rq.V)
        report["reynolds"] = {
            "trace_file": "reynolds_trace.npy",
            "trace_min": float(np.min(rq.V)),
            "trace_mean": float(np.mean(rq.V)),
            "trace_max": float(np.max(rq.V)),
            "vacuum_fraction": rq.vacuum_fraction,
            "theta": rq.theta,
        }

    _write_json(out / "diagnostics.json", report)
    done = [k for k in ("spectrum", "ckhw", "sobolev", "moduli", "residuals") if k in report]
    print(f"diagnose: {len(series)} snapshots, sections: {', '.join(done)}")
    print(f"wrote {out / 'diagnostics.json'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if cfg.fluid.lam is not None:  # every rung runs lam = lam_ratio * mu
        raise ValueError("sweep does not use [fluid] lam; set [sweep] lam_ratio instead")
    out = Path(args.out) if args.out else Path(cfg.output.directory)
    plan = cfg.sweep_plan()
    hold = None
    if cfg.output.write_snapshots:
        def hold(i, params):
            return write_pass(out / f"entry_{i:02d}", cfg.output.prefix, params, plan.snapshots + 1)
    streamed = StreamedTables(plan, hold)
    sweep = run_sweep(plan, streamed.store_for)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    for i, entry in enumerate(sweep.entries):
        info = {"index": i, "mu": entry.mu, "completed": entry.completed, "failure": entry.failure}
        if entry.completed:
            rep = entry.result.report
            info["energy"] = _energy_summary(rep)
            _write_csv(out / f"ledger_{i:02d}.csv", _LEDGER_HEADER, _ledger_rows(rep))
        entries.append(info)

    summary = {
        "command": "sweep",
        "config_sha256": cfg.sha256(),
        "config_text": cfg.emit(),
        "mu_values": list(plan.mu_values),
        "shared_dt": sweep.shared_dt,
        "entries": entries,
    }

    code = 0
    if len(sweep.completed) >= 2:
        cauchy, ref, small = streamed.tables(sweep)
        limit = limit_candidate_check(sweep, theta=cfg.diagnostics.theta)
        ref_mus = [pair[0] for pair in ref.mu_pairs]
        summary["cauchy"] = dataclasses.asdict(cauchy)
        summary["reference"] = {
            "mu_pairs": list(ref.mu_pairs),
            "rho_distances": ref.rho_distances,
            "m_distances": ref.m_distances,
            "rho_rate": (
                convergence_rate(ref_mus, ref.rho_distances) if len(ref_mus) >= 2 else None
            ),
            "m_rate": (
                convergence_rate(ref_mus, ref.m_distances) if len(ref_mus) >= 2 else None
            ),
        }
        summary["smallness"] = dataclasses.asdict(small)
        summary["limit_candidate"] = {
            "mu": limit.mu,
            "mass_max_rel": limit.weak.mass_max_rel,
            "ns_max_rel": limit.weak.ns_max_rel,
            "euler_deficit_rel": limit.weak.euler_max_rel,
            "admissible": limit.admissibility.admissible,
            "ledger_rel": limit.ledger_rel,
            "vacuum_fraction": limit.vacuum_fraction,
            "m_t": limit.m_t,
            "rel_tol": limit.rel_tol,
            "plausible_limit": limit.plausible_limit,
        }
        _write_csv(
            out / "distances.csv",
            ["mu_hi", "mu_lo", "rho_distance", "m_distance"],
            [
                (a, b, r, m)
                for (a, b), r, m in zip(cauchy.mu_pairs, cauchy.rho_distances, cauchy.m_distances)
            ],
        )
        _write_csv(
            out / "smallness.csv",
            ["mu", "grad_u_l2", "mu_times_grad", "sqrt_mu_times_grad", "dissipation"],
            [(r.mu, r.grad_u_l2, r.mu_grad, r.sqrt_mu_grad, r.dissipation) for r in small.rows],
        )
    else:
        summary["error"] = "fewer than two runs completed; no limit diagnostics"
        print(f"error: {summary['error']}", file=sys.stderr)
        code = 1

    _write_json(out / "summary.json", summary)
    failed = [e for e in sweep.entries if not e.completed]
    print(f"sweep: {len(sweep.completed)} of {len(sweep.entries)} runs completed"
          + (f" ({len(failed)} failed)" if failed else ""))
    if "limit_candidate" in summary:
        lc = summary["limit_candidate"]
        print(f"limit candidate at mu = {lc['mu']:.6g}: plausible = {lc['plausible_limit']}")
    print(f"wrote {out / 'summary.json'}")
    return code


def _cmd_report(args) -> int:
    path = Path(args.dir) / "summary.json"
    if not path.exists():
        raise FileNotFoundError(f"no summary.json in {args.dir}")
    try:
        lines = _summary_lines(json.loads(path.read_text()), args.dir)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        # an unreadable summary, or one that is not JSON of the shape the command writes
        print(f"error: unusable summary {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def _summary_lines(data: dict, where: str) -> list:
    """The report's lines for a parsed summary.json."""
    lines = []
    out = lines.append
    command = data.get("command", "?")
    out(f"summary of `{command}` in {where}")
    out(f"config sha256: {data.get('config_sha256', '?')}")
    if command == "simulate":
        e = data["energy"]
        out(f"snapshots: {data['snapshot_count']}, dt = {data['dt']:.6g}")
        out(f"energy initial {e['initial']:.8g} -> final {e['final']:.8g}")
        out(f"dissipated {e['dissipated']:.6g}, work {e['work']:.6g}, "
            f"ledger residual {e['ledger_residual']:.3e}")
        adm = data["admissibility"]
        out(f"admissible: {adm['admissible']} (max residual {adm['max_residual']:.3e})")
    elif command == "sweep":
        out(f"viscosities: {', '.join('%.6g' % m for m in data['mu_values'])}")
        for entry in data["entries"]:
            status = "ok" if entry["completed"] else f"FAILED: {entry['failure']}"
            out(f"  mu = {entry['mu']:.6g}: {status}")
        if "cauchy" in data:
            out("consecutive distances (rho, m):")
            c = data["cauchy"]
            for (a, b), r, m in zip(c["mu_pairs"], c["rho_distances"], c["m_distances"]):
                out(f"  {a:.6g} -> {b:.6g}: {r:.6e}, {m:.6e}")
            ref = data["reference"]
            rates = [f"{k} {ref[k + '_rate']:.3f}" for k in ("rho", "m") if ref[k + "_rate"] is not None]
            if rates:  # a rate is null when it has no finite value
                out(f"rates against the least viscous run: {', '.join(rates)}")
            lc = data["limit_candidate"]
            out(f"limit candidate: mass {lc['mass_max_rel']:.3e}, "
                f"ns {lc['ns_max_rel']:.3e}, euler deficit {lc['euler_deficit_rel']:.3e}")
            out(f"plausible limit: {lc['plausible_limit']}")
        if "error" in data:
            out(f"error: {data['error']}")
    else:
        out(json.dumps(data, indent=2, sort_keys=True))
    return lines


# Built-in checks against frozen closed-form values.

def _check_single_mode_transform():
    grid = make_grid(1, 16, 2.0 * math.pi)
    x = grid.axes_coordinates()[0]
    f = Field(grid=grid, values=0.8 * np.cos(3.0 * x))
    hat = dft_forward(f).coefficients
    for idx in (3, -3):
        if abs(hat[idx] - 0.4) > 1e-13:
            raise AssertionError(f"mode {idx} coefficient {hat[idx]}, expected 0.4")


def _check_shell_completeness():
    grid = make_grid(2, 24, 2.0 * math.pi)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-3)
    state = preset_ic("random-band", grid, params, seed=5, amplitude=0.3)
    total = dg.shell_spectrum(state, params).total()
    direct = total_energy(state, params) / grid.vol
    if abs(total - direct) > 1e-10 * abs(direct):
        raise AssertionError(f"shell sum {total} vs direct {direct}")


def _check_power_law_fit():
    shells = np.arange(33, dtype=np.float64)
    vals = np.zeros_like(shells)
    vals[1:] = 2.7 * shells[1:] ** (-5.0 / 3.0)
    spec = dg.SpectrumSeries.from_integrated(vals, d=3, n=64, P=2.0 * math.pi)
    fit = dg.ckh_fit(spec)
    if abs(fit.exponent + 5.0 / 3.0) > 1e-9:
        raise AssertionError(f"fit exponent {fit.exponent}")


def _check_snapshot_round_trip():
    grid = make_grid(2, 12, 1.0)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-3)
    state = preset_ic("random-band", grid, params, seed=9, amplitude=0.2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.ckhs"
        write_snapshot(path, state, params)
        back, meta = read_snapshot(path)
    if not (np.array_equal(back.rho.values, state.rho.values)
            and np.array_equal(back.m.values, state.m.values)):
        raise AssertionError("snapshot round trip is not bit-exact")
    if meta.gamma != params.gamma:
        raise AssertionError(f"meta gamma {meta.gamma}")


def _check_config_round_trip():
    cfg = ExperimentConfig()
    again = ExperimentConfig.parse(cfg.emit())
    if again != cfg:
        raise AssertionError("default config does not round-trip")


def _check_energy_ledger():
    grid = make_grid(1, 16, 2.0 * math.pi)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=0.01)
    initial = preset_ic("acoustic-pulse", grid, params, amplitude=0.1)
    result = run(initial, params, T=0.05, snapshots=4)
    rep = result.report
    bound = 1e-8 * max(rep.E0, 1.0)
    if abs(float(rep.R[-1])) > bound:
        raise AssertionError(f"ledger residual {rep.R[-1]} exceeds {bound}")
    adm = dg.energy_admissibility(rep.t, rep.E, rep.W)
    if not adm.admissible:
        raise AssertionError(f"viscous run flagged inadmissible ({adm.max_residual})")


_SELFTESTS = (
    ("single-mode transform coefficient", _check_single_mode_transform),
    ("shell spectrum completeness", _check_shell_completeness),
    ("power-law fit recovery", _check_power_law_fit),
    ("snapshot round trip", _check_snapshot_round_trip),
    ("config round trip", _check_config_round_trip),
    ("energy ledger closure", _check_energy_ledger),
)


def _cmd_selftest(args) -> int:
    failures = 0
    for name, fn in _SELFTESTS:
        try:
            fn()
        except Exception as exc:  # report every failure, not just the first
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} of {len(_SELFTESTS)} checks failed")
        return 1
    print(f"all {len(_SELFTESTS)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baroflow",
        description="periodic-box compressible flow runs and their diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration, write snapshots and a summary")
    p.add_argument("--config", required=True, help="INI experiment file")
    p.add_argument("--out", default=None, help="output directory (default: [output] directory)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("diagnose", help="compute diagnostics from a stored snapshot series")
    p.add_argument("--dir", required=True, help="directory holding prefix_NNNN.ckhs files")
    p.add_argument("--prefix", default="run", help="snapshot file prefix (default: run)")
    p.add_argument("--out", default=None, help="report directory (default: the data directory)")
    p.add_argument("--config", default=None, help="INI file supplying diagnostic knobs and forcing")
    p.add_argument("--spectrum", action="store_true", help="shell spectrum and its power-law fit")
    p.add_argument("--ckhw", action="store_true", help="weighted-mode decay statistic")
    p.add_argument("--sobolev", action="store_true", help="fractional regularity and integrability norms")
    p.add_argument("--moduli", action="store_true", help="space and time equicontinuity moduli")
    p.add_argument("--residuals", action="store_true", help="weak-form residuals and admissibility")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("sweep", help="run a viscosity ladder and its limit diagnostics")
    p.add_argument("--config", required=True, help="INI experiment file")
    p.add_argument("--out", default=None, help="output directory (default: [output] directory)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("report", help="print a stored summary.json")
    p.add_argument("--dir", required=True, help="directory holding summary.json")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("selftest", help="run built-in closed-form checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (BlowUpError, FileNotFoundError, SnapshotFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # a run has closed its store by now
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(cli_main())
