"""Experiment configuration: an INI file with fixed sections.

Sections and keys are closed sets; an unknown section or key is an
error rather than a silent ignore.  parse and emit are inverse to each
other bit-for-bit (floats are emitted with repr, which round-trips
float64 exactly), so a resolved config can be embedded in reports and
rerun later.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from .fields import make_grid
from .solver import BLOWUP_THRESHOLD, FluidParams, ForcingSpec, preset_ic
from .sweep import SweepPlan, plan_sweep

__all__ = [
    "GridConfig",
    "FluidConfig",
    "ForcingConfig",
    "InitialConfig",
    "RunConfig",
    "DiagnosticsConfig",
    "SweepConfig",
    "OutputConfig",
    "ExperimentConfig",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{where}: not a number: {raw!r}") from None


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{where}: not an integer: {raw!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{where}: not a boolean: {raw!r}")


def _parse_int_tuple(raw: str, where: str) -> tuple:
    raw = raw.strip()
    if raw == "":
        return ()
    return tuple(_parse_int(part.strip(), where) for part in raw.split(","))


@dataclass(frozen=True)
class GridConfig:
    d: int = 2
    n: int = 64
    box: float = 2.0 * np.pi


@dataclass(frozen=True)
class FluidConfig:
    gamma: float = 1.4
    kappa: float = 1.0
    mu: float = 1e-3
    lam: float = None  # blank means -2 mu / 3
    rho_min: float = 1e-10


@dataclass(frozen=True)
class ForcingConfig:
    mode: str = "none"
    envelope: str = "const"
    rate: float = 0.0
    terms: tuple = ()  # raw "amps@mode@phase" strings


@dataclass(frozen=True)
class InitialConfig:
    preset: str = "taylor-green"
    seed: int = None
    amplitude: float = None  # blank: the presets' 1.0; equilibrium takes none
    preset_amplitude = property(lambda self: 1.0 if self.amplitude is None else self.amplitude)


@dataclass(frozen=True)
class RunConfig:
    horizon: float = 1.0
    snapshots: int = 16
    cfl: float = 0.4


@dataclass(frozen=True)
class DiagnosticsConfig:
    window_lo: int = None
    window_hi: int = None
    ckhw_beta: float = 2.0 / 3.0
    ckhw_k_star: int = None
    sobolev_alpha: float = 0.2
    moduli_shifts: tuple = (1, 2, 4)
    moduli_lags: tuple = (1, 2, 4)
    q1: float = None
    q2: float = None
    q: float = None
    theta: float = 1e-6


@dataclass(frozen=True)
class SweepConfig:
    mu_max: float = 1e-2
    ratio: float = 0.5
    count: int = 4
    lam_ratio: float = -2.0 / 3.0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    prefix: str = "run"
    write_snapshots: bool = True


# parsers by field type; None keeps the raw string
_PARSERS = {
    "int": _parse_int, "float": _parse_float, "bool": _parse_bool, "tuple": _parse_int_tuple, "str": None,
}


def _optional(parser):
    return lambda raw, where: None if raw.strip() == "" else parser(raw, where)


def _section_keys(klass) -> dict:
    """{key: parser} of a section dataclass, in field order.  A field
    defaulting to None is optional (a blank value means None); the
    forcing terms are read from the term1, term2, ... keys instead."""
    keys = {}
    for f in dc_fields(klass):
        if f.name != "terms":
            parser = _PARSERS[f.type]
            keys[f.name] = _optional(parser) if f.default is None else parser
    return keys


def _parse_forcing_term(raw: str, d: int, where: str):
    """amps@mode@phase, e.g. '0.05,0.0@1,0@0.0' on a 2D grid."""
    parts = raw.split("@")
    if len(parts) != 3:
        raise ValueError(f"{where}: expected amps@mode@phase, got {raw!r}")
    amps = tuple(_parse_float(p.strip(), where) for p in parts[0].split(","))
    mode = tuple(_parse_int(p.strip(), where) for p in parts[1].split(","))
    phase = _parse_float(parts[2].strip(), where)
    if len(amps) != d or len(mode) != d:
        raise ValueError(f"{where}: term needs {d} amplitudes and {d} mode entries")
    return amps, mode, phase


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    fluid: FluidConfig = field(default_factory=FluidConfig)
    forcing: ForcingConfig = field(default_factory=ForcingConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    run: RunConfig = field(default_factory=RunConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        cp.optionxform = str
        try:
            cp.read_string(text)
        except configparser.Error as exc:  # its message runs over several lines
            message = " ".join(line.strip() for line in str(exc).splitlines())
            raise ValueError(f"config syntax error: {message}") from None
        sections = {}
        for name in cp.sections():
            if name not in _SECTIONS:
                raise ValueError(f"unknown config section [{name}]")
            klass, keys = _SECTIONS[name]
            kwargs = {}
            extra_terms = []
            for key, raw in cp.items(name):
                if name == "forcing" and key.startswith("term"):
                    extra_terms.append((key, raw))
                    continue
                if key not in keys:
                    raise ValueError(f"unknown key {key!r} in section [{name}]")
                parser = keys[key]
                kwargs[key] = raw if parser is None else parser(raw, f"[{name}] {key}")
            if name == "forcing" and extra_terms:
                def term_index(item):
                    suffix = item[0][4:]
                    if not suffix.isdigit():
                        raise ValueError(f"forcing term keys look like term1, term2, ...; got {item[0]!r}")
                    return int(suffix)
                extra_terms.sort(key=term_index)
                kwargs["terms"] = tuple(raw for _, raw in extra_terms)
            sections[name] = klass(**kwargs)
        cfg = cls(**sections)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.parse(Path(path).read_text())

    def validate(self):
        """The grid (forcing modes too), fluid, forcing, run-window, sweep and
        [diagnostics] rules are those of PeriodicGrid, FluidParams, ForcingSpec,
        plan_sweep/SweepPlan (solver.run_window) and the diagnostics that take
        each value; |initial amplitude| is finite, at most BLOWUP_THRESHOLD and blank under equilibrium."""
        grid = self.make_grid()
        params = self.fluid_params()
        grid.dealiased_terms(params.forcing.terms)
        amplitude = self.initial.preset_amplitude
        if self.initial.amplitude is not None and self.initial.preset == "equilibrium":
            raise ValueError(f"[initial] amplitude must be blank under preset equilibrium, got {amplitude}")
        if not math.isfinite(amplitude):
            raise ValueError(f"[initial] amplitude must be finite, got {amplitude}")
        if abs(amplitude) > BLOWUP_THRESHOLD:  # the presets' |m| is at most |amplitude|
            raise ValueError(f"[initial] amplitude must be at most the solver's blow-up threshold "
                             f"{BLOWUP_THRESHOLD:.0e} in magnitude, got {amplitude}")
        self.sweep_plan()
        dc = self.diagnostics
        dg.fit_window(grid.n, dc.window_lo, dc.window_hi)
        dg.ckhw_k_star(grid.n, dc.ckhw_beta, dc.ckhw_k_star)
        dg.sobolev_order(dc.sobolev_alpha)
        dg.integrability_exponents(params.gamma, dc.q1, dc.q2, dc.q)
        dg.snapshot_lags(dc.moduli_lags)
        dg.vacuum_threshold(dc.theta)

    def emit(self) -> str:
        cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        cp.optionxform = str
        for name, (_, keys) in _SECTIONS.items():
            obj = getattr(self, name)
            cp.add_section(name)
            for key in keys:
                cp.set(name, key, _fmt(getattr(obj, key)))
            if name == "forcing":
                for i, raw in enumerate(obj.terms, start=1):
                    cp.set(name, f"term{i}", raw)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def sha256(self) -> str:
        return hashlib.sha256(self.emit().encode()).hexdigest()

    # constructors for the objects the rest of the package consumes

    def make_grid(self):
        return make_grid(self.grid.d, self.grid.n, self.grid.box)

    def forcing_spec(self) -> ForcingSpec:
        terms = tuple(
            _parse_forcing_term(raw, self.grid.d, f"[forcing] term{i}")
            for i, raw in enumerate(self.forcing.terms, start=1)
        )
        return ForcingSpec(
            mode=self.forcing.mode, terms=terms,
            envelope=self.forcing.envelope, rate=self.forcing.rate,
        )

    def fluid_params(self) -> FluidParams:
        return FluidParams(
            gamma=self.fluid.gamma, kappa=self.fluid.kappa, mu=self.fluid.mu,
            lam=self.fluid.lam, rho_min=self.fluid.rho_min,
            forcing=self.forcing_spec(),
        )

    def initial_state(self, grid=None, params=None):
        grid = self.make_grid() if grid is None else grid
        params = self.fluid_params() if params is None else params
        return preset_ic(
            self.initial.preset, grid, params,
            seed=self.initial.seed, amplitude=self.initial.preset_amplitude,
        )

    def sweep_plan(self) -> SweepPlan:
        return plan_sweep(
            self.sweep.mu_max, self.sweep.ratio, self.sweep.count,
            d=self.grid.d, n=self.grid.n, P=self.grid.box,
            gamma=self.fluid.gamma, kappa=self.fluid.kappa,
            lam_ratio=self.sweep.lam_ratio, rho_min=self.fluid.rho_min,
            ic=self.initial.preset, ic_seed=self.initial.seed,
            ic_amplitude=self.initial.preset_amplitude,
            T=self.run.horizon, snapshots=self.run.snapshots, cfl=self.run.cfl,
            forcing=self.forcing_spec(),
        )


# section name -> (dataclass, {key: parser}), in ExperimentConfig field order
_SECTIONS = {
    f.name: (f.default_factory, _section_keys(f.default_factory)) for f in dc_fields(ExperimentConfig)
}
