"""Spectrum, regularity and weak-solution diagnostics for snapshot series.

Wavenumbers are reported in integer shell units: mode vector n maps to
the physical wavevector (2*pi/P)*n, and shell s collects modes with
round(|n|) == s.  The per-shell energy

    E(t, s) = sum_{shell s} 0.5*|w_u_hat|^2 + |w_c_hat|^2/(gamma-1)

sums over shells to the per-volume total energy (Parseval).  Decay-law
statistics, Sobolev symbols and modulus tables all use these units; on
a 2*pi box they coincide with physical wavenumbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fields import Field, PeriodicGrid, dft_forward, weighted_fields
from .solver import FluidParams, SnapshotSeries, State, total_energy

__all__ = [
    "Spectrum",
    "SpectrumSeries",
    "CkhFit",
    "CkhwDetail",
    "ModulusTable",
    "IntegrabilityReport",
    "TestFunction",
    "MomentumResidual",
    "AdmissibilityResult",
    "ReynoldsQuotient",
    "shell_spectrum",
    "time_integrated_spectrum",
    "ckh_fit",
    "ckhw_statistic",
    "ckhw_detail",
    "fractional_sobolev_norm",
    "space_modulus",
    "time_modulus",
    "high_integrability",
    "default_test_functions",
    "weak_residual_mass",
    "weak_residual_momentum",
    "energy_admissibility",
    "reynolds_quotient",
]


def _nominal_shell_measure(d: int, s: np.ndarray) -> np.ndarray:
    """Continuum count of lattice modes in shell s: the surface measure
    4*pi*s^2 (3D), 2*pi*s (2D) or 2 (1D); shell 0 is assigned 1."""
    s = np.asarray(s, dtype=np.float64)
    if d == 3:
        out = 4.0 * np.pi * s**2
    elif d == 2:
        out = 2.0 * np.pi * s
    else:
        out = np.full(s.shape, 2.0)
    return np.where(s == 0, 1.0, out)


def _weighted_spectral_power(state: State, params: FluidParams):
    """Per-mode |w_hat|^2 split into velocity and sonic parts."""
    w = weighted_fields(state.rho, state.m, params.gamma, params.kappa, params.rho_min)
    coef = dft_forward(w).coefficients
    d = state.grid.d
    power_u = np.sum(np.abs(coef[:d]) ** 2, axis=0)
    power_c = np.abs(coef[d]) ** 2
    return power_u, power_c


@dataclass(frozen=True)
class Spectrum:
    """Shell-binned spectrum of the weighted bundle at one time.

    energy[s] carries the energy weights (1/2 and 1/(gamma-1)); raw[s]
    is the plain sum of |w_hat|^2 over the shell; counts[s] the number
    of lattice modes binned there.
    """

    t: float
    energy: np.ndarray
    raw: np.ndarray
    counts: np.ndarray
    d: int
    n: int
    P: float

    @property
    def shells(self) -> np.ndarray:
        return np.arange(len(self.energy))

    def per_shell_density(self) -> np.ndarray:
        """energy / (nominal shell measure), e.g. E/(4 pi s^2) in 3D."""
        return self.energy / _nominal_shell_measure(self.d, self.shells)

    def total(self) -> float:
        return float(np.sum(self.energy))


def shell_spectrum(state: State, params: FluidParams) -> Spectrum:
    """Bin the weighted bundle's spectral energy into integer shells.

    The shell sum reproduces the per-volume total energy exactly
    (Parseval), which is the completeness check run by the tests.
    """
    grid = state.grid
    power_u, power_c = _weighted_spectral_power(state, params)
    dens = 0.5 * power_u + power_c / (params.gamma - 1.0)
    raw = power_u + power_c
    idx = grid.shell.ravel()
    energy = np.bincount(idx, weights=dens.ravel(), minlength=grid.n_shells)
    raw_b = np.bincount(idx, weights=raw.ravel(), minlength=grid.n_shells)
    counts = np.bincount(idx, minlength=grid.n_shells)
    return Spectrum(
        t=state.t, energy=energy, raw=raw_b, counts=counts,
        d=grid.d, n=grid.n, P=grid.P,
    )


@dataclass(frozen=True)
class SpectrumSeries:
    """Per-snapshot shell spectra plus their trapezoid time integrals."""

    times: np.ndarray
    energy: np.ndarray  # (n_times, n_shells)
    raw: np.ndarray
    counts: np.ndarray
    integrated_energy: np.ndarray  # per shell, int_0^T E dt
    integrated_raw: np.ndarray
    d: int
    n: int
    P: float

    @classmethod
    def from_integrated(cls, integrated_energy, d, n, P, integrated_raw=None):
        """Build a fit-ready series directly from per-shell integrals."""
        ie = np.asarray(integrated_energy, dtype=np.float64)
        ir = ie.copy() if integrated_raw is None else np.asarray(integrated_raw, dtype=np.float64)
        return cls(
            times=np.array([0.0, 1.0]), energy=np.vstack([ie, ie]), raw=np.vstack([ir, ir]),
            counts=np.zeros(len(ie), dtype=np.int64),
            integrated_energy=ie, integrated_raw=ir, d=d, n=n, P=P,
        )


def _require_time_series(series: SnapshotSeries):
    if len(series) < 2:
        raise ValueError("time integration needs at least two snapshots")
    return series.times


def time_integrated_spectrum(series: SnapshotSeries, params: FluidParams) -> SpectrumSeries:
    times = _require_time_series(series)
    spectra = [shell_spectrum(st, params) for st in series]
    energy = np.vstack([sp.energy for sp in spectra])
    raw = np.vstack([sp.raw for sp in spectra])
    return SpectrumSeries(
        times=times,
        energy=energy,
        raw=raw,
        counts=spectra[0].counts,
        integrated_energy=np.trapezoid(energy, x=times, axis=0),
        integrated_raw=np.trapezoid(raw, x=times, axis=0),
        d=spectra[0].d,
        n=spectra[0].n,
        P=spectra[0].P,
    )


class SparseSpectrumError(ValueError):
    """Fit window holds too few nonempty shells to fit a line.

    A data property rather than a usage error: an equilibrium series,
    for example, has all its energy in shell 0 and nothing to fit.
    """


@dataclass(frozen=True)
class CkhFit:
    """Log-log fit of the time-integrated shell energy.

    exponent / prefactor describe integrated_energy ~ prefactor * k^exponent
    over the window; residual is the RMS misfit of the log-log line;
    m_t is the window maximum of k^(5/3) * integral, the empirical
    constant of the k^(-5/3) decay bound.
    """

    exponent: float
    prefactor: float
    residual: float
    m_t: float
    k_lo: int
    k_hi: int


def ckh_fit(spec: SpectrumSeries, k_lo: int = None, k_hi: int = None) -> CkhFit:
    n = spec.n
    if k_lo is None:
        k_lo = max(1, n // 16)
    if k_hi is None:
        k_hi = n // 3
    k_lo, k_hi = int(k_lo), int(k_hi)
    if not (1 <= k_lo < k_hi):
        raise ValueError(f"bad fit window [{k_lo}, {k_hi}]")
    if k_hi > n // 2:
        raise ValueError(f"window end {k_hi} is beyond the resolved shells (n/2 = {n // 2})")
    shells = np.arange(len(spec.integrated_energy))
    sel = (shells >= k_lo) & (shells <= k_hi) & (spec.integrated_energy > 0)
    ks = shells[sel].astype(np.float64)
    vals = spec.integrated_energy[sel]
    if len(ks) < 4:
        raise SparseSpectrumError(
            f"only {len(ks)} nonempty shells in [{k_lo}, {k_hi}]; need at least 4"
        )
    logk, logv = np.log(ks), np.log(vals)
    slope, intercept = np.polyfit(logk, logv, 1)
    fitted = slope * logk + intercept
    residual = float(np.sqrt(np.mean((logv - fitted) ** 2)))
    m_t = float(np.max(ks ** (5.0 / 3.0) * vals))
    return CkhFit(
        exponent=float(slope), prefactor=float(np.exp(intercept)),
        residual=residual, m_t=m_t, k_lo=k_lo, k_hi=k_hi,
    )


def _integrated_mode_power(series: SnapshotSeries, params: FluidParams) -> np.ndarray:
    """Trapezoid-in-time integral of the per-mode |w_hat|^2 lattice."""
    times = _require_time_series(series)
    weights = np.empty(len(times))
    weights[0] = 0.5 * (times[1] - times[0])
    weights[-1] = 0.5 * (times[-1] - times[-2])
    if len(times) > 2:
        weights[1:-1] = 0.5 * (times[2:] - times[:-2])
    out = np.zeros(series.grid.shape)
    for st, w in zip(series, weights):
        pu, pc = _weighted_spectral_power(st, params)
        out += w * (pu + pc)
    return out


@dataclass(frozen=True)
class CkhwDetail:
    """Weighted-mode decay statistic at every admissible shell.

    value is sup over shells >= k_star of

        s^(3+beta) * (shell sum of int |w_hat|^2 dt) / nominal(s),

    the shell-count-normalized major form; per_mode_sup is the raw
    sup of |n|^(3+beta) * int |w_hat(n)|^2 dt over individual modes.
    """

    value: float
    per_mode_sup: float
    beta: float
    k_star: int
    shells: np.ndarray
    shell_values: np.ndarray


def ckhw_detail(series: SnapshotSeries, params: FluidParams, beta: float, k_star: int = None) -> CkhwDetail:
    grid = series.grid
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    cap = grid.n // 3
    if k_star is None:
        k_star = max(1, grid.n // 16)
    k_star = int(k_star)
    if not (1 <= k_star <= cap):
        raise ValueError(f"k_star {k_star} outside the resolved dealiased range [1, {cap}]")
    itg = _integrated_mode_power(series, params)
    idx = grid.shell.ravel()
    shell_sum = np.bincount(idx, weights=itg.ravel(), minlength=grid.n_shells)
    shells = np.arange(k_star, cap + 1)
    nominal = _nominal_shell_measure(grid.d, shells)
    vals = shells.astype(np.float64) ** (3.0 + beta) * shell_sum[k_star : cap + 1] / nominal
    in_range = (grid.mode_norm >= k_star) & (grid.mode_norm <= cap)
    if np.any(in_range):
        per_mode = float(np.max(grid.mode_norm[in_range] ** (3.0 + beta) * itg[in_range]))
    else:
        per_mode = 0.0
    return CkhwDetail(
        value=float(np.max(vals)), per_mode_sup=per_mode,
        beta=float(beta), k_star=k_star, shells=shells, shell_values=vals,
    )


def ckhw_statistic(series: SnapshotSeries, params: FluidParams, beta: float, k_star: int = None) -> float:
    """Scalar form of the weighted-mode decay statistic (see ckhw_detail)."""
    return ckhw_detail(series, params, beta, k_star).value


def fractional_sobolev_norm(series: SnapshotSeries, params: FluidParams, alpha: float) -> float:
    """L^2-in-time H^alpha norm of the weighted bundle.

    Uses the inhomogeneous symbol (1 + |k|^2)^alpha in shell units, so
    alpha = 0 degenerates exactly to the per-volume L^2(0,T; L^2) norm.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    times = _require_time_series(series)
    grid = series.grid
    symbol = (1.0 + grid.mode_norm**2) ** alpha
    g = []
    for st in series:
        pu, pc = _weighted_spectral_power(st, params)
        g.append(float(np.sum(symbol * (pu + pc))))
    return float(np.sqrt(np.trapezoid(np.array(g), x=times)))


@dataclass(frozen=True)
class ModulusTable:
    """Equicontinuity moduli against shift length, with log-log slopes.

    density[i] = integral over time and space of |rho(.+shift) - rho|^exponent,
    momentum[i] the same with the squared momentum magnitude.  kind is
    "space" (lattice shifts) or "time" (snapshot lags).
    """

    kind: str
    lengths: np.ndarray
    density: np.ndarray
    momentum: np.ndarray
    density_slope: float
    momentum_slope: float
    exponent: float


def _fit_loglog(lengths, values) -> float:
    sel = (lengths > 0) & (values > 0)
    if np.sum(sel) < 2:
        return float("nan")
    return float(np.polyfit(np.log(lengths[sel]), np.log(values[sel]), 1)[0])


def _trapezoid_weights(times):
    w = np.empty(len(times))
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    if len(times) > 2:
        w[1:-1] = 0.5 * (times[2:] - times[:-2])
    return w


def space_modulus(series: SnapshotSeries, params: FluidParams, shifts, exponent: float = None) -> ModulusTable:
    """Shift moduli int_0^T int |f(x + dx*shift) - f(x)|^p dx dt.

    shifts are integer lattice offsets (scalars act along axis 0); the
    density channel uses p = exponent (default gamma), momentum p = 2
    with the pointwise vector magnitude.  Shifts are exact rolls.
    """
    times = _require_time_series(series)
    grid = series.grid
    p_rho = params.gamma if exponent is None else float(exponent)
    if p_rho < 1:
        raise ValueError(f"density exponent must be >= 1, got {p_rho}")
    offsets = []
    for s in shifts:
        if np.isscalar(s):
            off = (int(s),) + (0,) * (grid.d - 1)
            if float(s) != int(s):
                raise ValueError(f"shift {s} is not an integer lattice offset")
        else:
            off = tuple(int(v) for v in s)
            if any(float(v) != int(v) for v in s) or len(off) != grid.d:
                raise ValueError(f"shift {s} is not a valid lattice offset")
        offsets.append(off)
    tw = _trapezoid_weights(times)
    dxd = grid.dx**grid.d
    axes = grid.spatial_axes()
    lengths, dens, mom = [], [], []
    for off in offsets:
        lengths.append(grid.dx * math.sqrt(sum(o * o for o in off)))
        gr = gm = 0.0
        for st, w in zip(series, tw):
            r = st.rho.values
            mv = st.m.values
            dr = np.roll(r, shift=tuple(-o for o in off), axis=axes) - r
            dm = np.roll(mv, shift=tuple(-o for o in off), axis=axes) - mv
            gr += w * float(np.sum(np.abs(dr) ** p_rho)) * dxd
            gm += w * float(np.sum(dm**2)) * dxd
        dens.append(gr)
        mom.append(gm)
    lengths = np.array(lengths)
    dens = np.array(dens)
    mom = np.array(mom)
    return ModulusTable(
        kind="space", lengths=lengths, density=dens, momentum=mom,
        density_slope=_fit_loglog(lengths, dens),
        momentum_slope=_fit_loglog(lengths, mom),
        exponent=p_rho,
    )


def time_modulus(series: SnapshotSeries, params: FluidParams, lags, exponent: float = None) -> ModulusTable:
    """Lag moduli int_0^{T - lag} int |f(t + lag) - f(t)|^p dx dt.

    lags count snapshot intervals (cadence must be uniform).  A lag
    must leave at least two quadrature points in [0, T - lag].
    """
    times = _require_time_series(series)
    grid = series.grid
    p_rho = params.gamma if exponent is None else float(exponent)
    spacing = np.diff(times)
    delta = spacing[0]
    if np.max(np.abs(spacing - delta)) > 1e-9 * delta:
        raise ValueError("time moduli need uniform snapshot cadence")
    nt = len(times)
    dxd = grid.dx**grid.d
    lengths, dens, mom = [], [], []
    for lag in lags:
        j = int(lag)
        if float(lag) != j or j < 1:
            raise ValueError(f"lag {lag} is not a positive whole number of cadence steps")
        if j > nt - 2:
            raise ValueError(
                f"lag {j} leaves an empty integration window ({nt} snapshots); "
                "the horizon-sized lag is not integrable"
            )
        sub = times[: nt - j]
        tw = _trapezoid_weights(sub)
        gr = gm = 0.0
        for i, w in enumerate(tw):
            a, b = series[i], series[i + j]
            dr = b.rho.values - a.rho.values
            dm = b.m.values - a.m.values
            gr += w * float(np.sum(np.abs(dr) ** p_rho)) * dxd
            gm += w * float(np.sum(dm**2)) * dxd
        lengths.append(j * delta)
        dens.append(gr)
        mom.append(gm)
    lengths = np.array(lengths)
    dens = np.array(dens)
    mom = np.array(mom)
    return ModulusTable(
        kind="time", lengths=lengths, density=dens, momentum=mom,
        density_slope=_fit_loglog(lengths, dens),
        momentum_slope=_fit_loglog(lengths, mom),
        exponent=p_rho,
    )


@dataclass(frozen=True)
class IntegrabilityReport:
    """Mixed space-time L^q norms above the energy exponents."""

    rho_norm: float
    m_norm: float
    w_norm: float
    q1: float
    q2: float
    q: float


def high_integrability(
    series: SnapshotSeries,
    params: FluidParams,
    q1: float = None,
    q2: float = None,
    q: float = None,
) -> IntegrabilityReport:
    """Norms ||rho||_{L^q1}, ||m||_{L^q2}, ||w||_{L^q} on [0,T) x box.

    Defaults: q1 = 1.2*gamma, q2 = 2.5, q = q2.  The exponents must
    sit strictly above the energy-level ones (gamma, 2, 2).
    """
    times = _require_time_series(series)
    q1 = 1.2 * params.gamma if q1 is None else float(q1)
    q2 = 2.5 if q2 is None else float(q2)
    q = q2 if q is None else float(q)
    if q1 <= params.gamma:
        raise ValueError(f"q1 must exceed gamma = {params.gamma}, got {q1}")
    if q2 <= 2 or q <= 2:
        raise ValueError(f"q2 and q must exceed 2, got q2 = {q2}, q = {q}")
    tw = _trapezoid_weights(times)
    dxd = series.grid.dx**series.grid.d
    acc_r = acc_m = acc_w = 0.0
    for st, w in zip(series, tw):
        acc_r += w * float(np.sum(np.abs(st.rho.values) ** q1)) * dxd
        mmag = np.sqrt(np.sum(st.m.values**2, axis=0))
        acc_m += w * float(np.sum(mmag**q2)) * dxd
        wf = weighted_fields(st.rho, st.m, params.gamma, params.kappa, params.rho_min)
        wmag = np.sqrt(np.sum(wf.values**2, axis=0))
        acc_w += w * float(np.sum(wmag**q)) * dxd
    return IntegrabilityReport(
        rho_norm=acc_r ** (1.0 / q1), m_norm=acc_m ** (1.0 / q2), w_norm=acc_w ** (1.0 / q),
        q1=q1, q2=q2, q=q,
    )


# Degree-9 smoothstep: S(0) = 0, S(1) = 1, derivatives 1..4 vanish at both
# ends, so trapezoid sums of the bump converge at high order.
_SMOOTH = np.array([70.0, -315.0, 540.0, -420.0, 126.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_SMOOTH_D = np.polyder(_SMOOTH)


@dataclass(frozen=True)
class TestFunction:
    """Space-time test function: trig polynomial times a one-sided bump.

    phi(t, x) = b(t) * sum_terms amps * cos(k.x + phase), with b a
    degree-9 smoothstep in (1 - t/T0): b(0) = 1, b and four derivatives
    vanish at t = T0, identically zero beyond.  Terms carry one
    amplitude per component, so components > 1 gives a vector function.
    Spatial derivatives are evaluated analytically.
    """

    # not a test case, despite the name pytest sees on import
    __test__: ClassVar[bool] = False

    grid: PeriodicGrid
    T0: float
    terms: tuple
    components: int = 1

    def __post_init__(self):
        if not (self.T0 > 0):
            raise ValueError(f"support end T0 must be positive, got {self.T0}")
        if self.components < 1:
            raise ValueError("components must be at least 1")
        norm = []
        for amps, mode_vec, phase in self.terms:
            amps = tuple(float(a) for a in amps)
            mode_vec = tuple(int(v) for v in mode_vec)
            if len(amps) != self.components or len(mode_vec) != self.grid.d:
                raise ValueError("term shape does not match components/grid")
            norm.append((amps, mode_vec, float(phase)))
        object.__setattr__(self, "terms", tuple(norm))
        # precompute spatial factors and their gradients
        coords = self.grid.axes_coordinates()
        d = self.grid.d
        shape = (self.components,) + self.grid.shape
        space = np.zeros(shape)
        grad = np.zeros((self.components, d) + self.grid.shape)
        for amps, mode_vec, phase in self.terms:
            arg = np.full(self.grid.shape, phase)
            kvec = [2.0 * np.pi / self.grid.P * v for v in mode_vec]
            for axis in range(d):
                arg = arg + kvec[axis] * coords[axis]
            c, s = np.cos(arg), np.sin(arg)
            for comp in range(self.components):
                space[comp] += amps[comp] * c
                for axis in range(d):
                    grad[comp, axis] += -amps[comp] * kvec[axis] * s
        space.setflags(write=False)
        grad.setflags(write=False)
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_grad", grad)

    def bump(self, t: float) -> float:
        y = 1.0 - t / self.T0
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return 1.0
        return float(np.polyval(_SMOOTH, y))

    def bump_dt(self, t: float) -> float:
        y = 1.0 - t / self.T0
        if y <= 0.0 or y >= 1.0:
            return 0.0
        return float(np.polyval(_SMOOTH_D, y)) * (-1.0 / self.T0)

    def value(self, t: float) -> np.ndarray:
        return self.bump(t) * self._space

    def time_derivative(self, t: float) -> np.ndarray:
        return self.bump_dt(t) * self._space

    def gradient(self, t: float) -> np.ndarray:
        """(components, d) + shape array of spatial derivatives."""
        return self.bump(t) * self._grad

    def divergence(self, t: float) -> np.ndarray:
        if self.components != self.grid.d:
            raise ValueError("divergence needs a d-component test function")
        return self.bump(t) * np.einsum("aa...->...", self._grad)


def default_test_functions(grid: PeriodicGrid, T: float, vector: bool = False, margin: float = None):
    """Deterministic low-mode test set with support ending at T - margin."""
    if margin is None:
        margin = T / 8.0
    T0 = T - margin
    if T0 <= 0:
        raise ValueError("margin leaves no support")
    if grid.d == 1:
        modes = [(1,), (2,), (3,)]
    elif grid.d == 2:
        modes = [(1, 0), (0, 1), (1, 1)]
    else:
        modes = [(1, 0, 0), (0, 1, 1), (1, 1, 0)]
    phases = [0.0, np.pi / 3.0, np.pi / 7.0]
    comps = grid.d if vector else 1
    out = []
    for i, (mv, ph) in enumerate(zip(modes, phases)):
        amps = tuple(1.0 if c == (i % comps) else 0.3 for c in range(comps))
        out.append(TestFunction(grid=grid, T0=T0, terms=((amps, mv, ph),), components=comps))
    return out


def _check_support(series_times, fn: TestFunction):
    if fn.T0 > series_times[-1] + 1e-12:
        raise ValueError(
            f"test function support [0, {fn.T0}] exceeds the series horizon {series_times[-1]}"
        )


def weak_residual_mass(series: SnapshotSeries, phi: TestFunction, rho0: Field, with_scale: bool = False):
    """Weak mass-equation residual

        int int (rho * d_t phi + m . grad phi) dx dt + int rho0 phi(0) dx,

    zero for exact solutions up to time-quadrature and scheme error.
    with_scale=True returns (residual, scale, gross).  scale is |data|
    plus the time integrals of each term's magnitude; gross takes the
    magnitudes inside the space integral as well.  A test function
    orthogonal to the flow drives residual and scale together to
    round-off, so their ratio means nothing there; gross stays at the
    size of the numbers actually summed and is the honest yardstick
    for how deep the cancellation went.
    """
    times = _require_time_series(series)
    _check_support(times, phi)
    if phi.components != 1:
        raise ValueError("mass residual takes a scalar test function")
    grid = series.grid
    dxd = grid.dx**grid.d
    g_dt, g_flux, g_gross = [], [], []
    for st in series:
        pt = phi.time_derivative(st.t)[0]
        gr = phi.gradient(st.t)[0]
        rho_dt = st.rho.values * pt
        flux = np.sum(st.m.values * gr, axis=0)
        g_dt.append(float(np.sum(rho_dt)) * dxd)
        g_flux.append(float(np.sum(flux)) * dxd)
        g_gross.append(
            (float(np.sum(np.abs(rho_dt))) + float(np.sum(np.abs(flux)))) * dxd
        )
    data_values = rho0.values * phi.value(0.0)[0]
    data = float(np.sum(data_values)) * dxd
    residual = float(np.trapezoid(np.array(g_dt) + np.array(g_flux), x=times)) + data
    if not with_scale:
        return residual
    scale = abs(data) + sum(
        float(np.trapezoid(np.abs(np.array(g)), x=times)) for g in (g_dt, g_flux)
    )
    gross = float(np.sum(np.abs(data_values))) * dxd + float(
        np.trapezoid(np.array(g_gross), x=times)
    )
    return residual, scale, gross


@dataclass(frozen=True)
class MomentumResidual:
    """Weak momentum-equation residuals in inviscid and viscous form.

    euler_residual omits the stress term; viscous_term is the measured
    int int Sigma : grad phi; ns_residual = euler_residual - viscous_term
    is the full-equation residual.  viscous_bound is the Cauchy-Schwarz
    bound 2 mu ||grad u|| ||grad phi|| + |lam| ||div u|| ||div phi||,
    whose sqrt(mu)-scaling witnesses the vanishing-viscosity deficit.
    quadrature_scale is |data| plus the time integral of each term's
    magnitude (time derivative, flux, pressure, forcing), a yardstick
    for calling a residual small that temporal oscillation cannot
    cancel away.  quadrature_uncertainty is a refinement-gap estimate
    of the absolute trapezoid error in the euler and viscous integrals,
    so |euler_residual - viscous_term| beyond about twice that value
    points at the data rather than the quadrature.  roundoff_scale
    takes the magnitudes inside the space integral as well; it is the
    gross mass of numbers summed, whose last few digits are noise, and
    a few ulps of it floor every meaningful comparison (a test function
    with no overlap drives all terms to that floor, not to zero).
    residual repeats whichever form the caller asked for.
    """

    residual: float
    euler_residual: float
    viscous_term: float
    ns_residual: float
    viscous_bound: float
    quadrature_scale: float
    quadrature_uncertainty: float
    roundoff_scale: float
    include_viscous: bool


def _trapezoid_refinement_gap(times, term_arrays, scale):
    """A posteriori quadrature uncertainty for trapezoid time integrals.

    Compares each integral with the one on every other sample; for the
    O(h^2) trapezoid rule the true error is (coarse - fine)/3 up to
    O(h^2) corrections, so the summed |gap|/3 estimates how far the
    computed integrals can sit from the exact ones.  A few ulps of the
    magnitude scale are added so the estimate stays usable when the
    gap itself cancels to round-off.  Needs at least three samples;
    with two there is no refinement information and the uncertainty
    is infinite.
    """
    t = np.asarray(times)
    if len(t) < 3:
        return float("inf")
    total = 0.0
    for g in term_arrays:
        arr = np.asarray(g, dtype=np.float64)
        fine = float(np.trapezoid(arr, x=t))
        coarse = float(np.trapezoid(arr[::2], x=t[::2]))
        if (len(t) - 1) % 2 == 1:
            coarse += float(np.trapezoid(arr[-2:], x=t[-2:]))
        total += abs(fine - coarse) / 3.0
    return total + 5e-14 * scale


def weak_residual_momentum(
    series: SnapshotSeries,
    params: FluidParams,
    phi: TestFunction,
    m0: Field,
    include_viscous: bool = True,
) -> MomentumResidual:
    times = _require_time_series(series)
    _check_support(times, phi)
    grid = series.grid
    d = grid.d
    if phi.components != d:
        raise ValueError(f"momentum residual takes a {d}-component test function")
    dxd = grid.dx**grid.d
    ik = grid.ik_half

    g_euler, g_visc = [], []
    g_dt, g_flux, g_press, g_force = [], [], [], []
    g_gross = []
    grad_u_sq, div_u_sq, grad_phi_sq, div_phi_sq = [], [], [], []
    for st in series:
        rho = st.rho.values
        m = st.m.values
        pt = phi.time_derivative(st.t)
        gphi = phi.gradient(st.t)
        dphi = phi.divergence(st.t)
        rho_floor = np.maximum(rho, params.rho_min)
        t_dt = float(np.sum(m * pt)) * dxd
        quot = np.einsum("a...,b...,ab...->...", m, m, gphi) / rho_floor
        t_flux = float(np.sum(quot)) * dxd
        p = params.kappa * np.maximum(rho, 0.0) ** params.gamma
        t_press = float(np.sum(p * dphi)) * dxd
        t_force = 0.0
        gross = (
            float(np.sum(np.abs(m * pt)))
            + float(np.sum(np.abs(quot)))
            + float(np.sum(np.abs(p * dphi)))
        )
        if params.forcing.active:
            f = params.forcing.evaluate(st.t, grid)
            force_density = rho * f * phi.value(st.t)
            t_force = float(np.sum(force_density)) * dxd
            gross += float(np.sum(np.abs(force_density)))
        g_dt.append(t_dt)
        g_flux.append(t_flux)
        g_press.append(t_press)
        g_force.append(t_force)
        g_euler.append(t_dt + t_flux + t_press + t_force)

        u_h = grid.rfft(m / rho_floor)
        grad_h = np.empty((d, d) + grid.half_shape, dtype=np.complex128)
        for b in range(d):
            np.multiply(ik[b], u_h, out=grad_h[:, b])
        grad_u = grid.irfft(grad_h)
        div_u = np.einsum("aa...->...", grad_u)
        sym = 0.5 * (grad_u + np.swapaxes(grad_u, 0, 1))
        sigma_contract = 2.0 * params.mu * np.einsum("ab...,ab...->...", sym, gphi)
        sigma_contract += params.lam * div_u * dphi
        g_visc.append(float(np.sum(sigma_contract)) * dxd)
        gross += float(np.sum(np.abs(sigma_contract)))
        g_gross.append(gross * dxd)
        grad_u_sq.append(float(np.sum(grad_u**2)) * dxd)
        div_u_sq.append(float(np.sum(div_u**2)) * dxd)
        grad_phi_sq.append(float(np.sum(gphi**2)) * dxd)
        div_phi_sq.append(float(np.sum(dphi**2)) * dxd)

    data = float(np.sum(m0.values * phi.value(0.0))) * dxd
    data_gross = float(np.sum(np.abs(m0.values * phi.value(0.0)))) * dxd
    euler = float(np.trapezoid(np.array(g_euler), x=times)) + data
    visc = float(np.trapezoid(np.array(g_visc), x=times))
    scale = abs(data) + sum(
        float(np.trapezoid(np.abs(np.array(g)), x=times))
        for g in (g_dt, g_flux, g_press, g_force)
    )
    roundoff = data_gross + float(np.trapezoid(np.array(g_gross), x=times))
    grad_u_l2 = math.sqrt(max(float(np.trapezoid(np.array(grad_u_sq), x=times)), 0.0))
    div_u_l2 = math.sqrt(max(float(np.trapezoid(np.array(div_u_sq), x=times)), 0.0))
    grad_phi_l2 = math.sqrt(max(float(np.trapezoid(np.array(grad_phi_sq), x=times)), 0.0))
    div_phi_l2 = math.sqrt(max(float(np.trapezoid(np.array(div_phi_sq), x=times)), 0.0))
    bound = 2.0 * params.mu * grad_u_l2 * grad_phi_l2 + abs(params.lam) * div_u_l2 * div_phi_l2
    ns = euler - visc
    uncertainty = _trapezoid_refinement_gap(times, (g_euler, g_visc), scale)
    return MomentumResidual(
        residual=ns if include_viscous else euler,
        euler_residual=euler,
        viscous_term=visc,
        ns_residual=ns,
        viscous_bound=bound,
        quadrature_scale=scale,
        quadrature_uncertainty=uncertainty,
        roundoff_scale=roundoff,
        include_viscous=include_viscous,
    )


@dataclass(frozen=True)
class AdmissibilityResult:
    """Energy admissibility: E(t) - E(0) - W(t) must stay below tol."""

    times: np.ndarray
    residuals: np.ndarray
    max_residual: float
    tol: float
    admissible: bool


def energy_admissibility(
    series: SnapshotSeries,
    params: FluidParams,
    work: np.ndarray = None,
    tol: float = None,
) -> AdmissibilityResult:
    """Check that no snapshot holds more energy than data plus work."""
    times = series.times
    E = np.array([total_energy(st, params) for st in series])
    W = np.zeros(len(times)) if work is None else np.asarray(work, dtype=np.float64)
    if len(W) != len(times):
        raise ValueError("work array must align with the snapshot times")
    res = E - E[0] - W
    if tol is None:
        tol = 1e-8 * max(E[0], 1.0)
    mx = float(np.max(res))
    return AdmissibilityResult(times=times, residuals=res, max_residual=mx, tol=tol, admissible=mx <= tol)


@dataclass(frozen=True)
class ReynoldsQuotient:
    """Momentum quotient tensor M = (m x m)/rho with a vacuum mask.

    Entries where rho < theta are zeroed and flagged; V = trace(M) is
    the quotient's kinetic-energy density |m|^2/rho.
    """

    M: np.ndarray
    mask: np.ndarray
    V: np.ndarray
    theta: float
    vacuum_fraction: float


def reynolds_quotient(state: State, theta: float) -> ReynoldsQuotient:
    if theta <= 0:
        raise ValueError(f"vacuum threshold theta must be positive, got {theta}")
    grid = state.grid
    d = grid.d
    rho = state.rho.values
    m = state.m.values
    mask = rho < theta
    safe = np.where(mask, 1.0, rho)
    M = np.empty((d, d) + grid.shape)
    for a in range(d):
        for b in range(d):
            M[a, b] = np.where(mask, 0.0, m[a] * m[b] / safe)
    V = np.einsum("aa...->...", M)
    return ReynoldsQuotient(
        M=M, mask=mask, V=V, theta=float(theta),
        vacuum_fraction=float(np.mean(mask)),
    )
