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

from .fields import Field, PeriodicGrid, trig_terms, weighted_fields
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
    "WeakResiduals",
    "AdmissibilityResult",
    "ReynoldsQuotient",
    "shell_spectrum",
    "time_integrated_spectrum",
    "trapezoid_weights",
    "ckh_fit",
    "decay_constant",
    "ckhw_statistic",
    "ckhw_from_spectrum",
    "fractional_sobolev_norm",
    "sobolev_norm_from_spectrum",
    "space_modulus",
    "time_modulus",
    "spacetime_lp",
    "high_integrability",
    "default_test_functions",
    "weak_residual_momentum",
    "weak_residuals",
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


def _shell_sum(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Full-lattice shell sums of a half-lattice quantity that is even
    under k -> -k, each mode counted by its Hermitian multiplicity."""
    weighted = grid.parseval_weight * values
    return np.bincount(grid.shell_half.ravel(), weights=weighted.ravel(), minlength=grid.n_shells)


def _bundle(state: State, params: FluidParams) -> np.ndarray:
    return weighted_fields(state.rho, state.m, params.gamma, params.kappa, params.rho_min).values


def _snapshot_spectrum(grid: PeriodicGrid, w: np.ndarray, params: FluidParams):
    """One rfftn of a snapshot's weighted bundle w: its shell energy and
    raw shell power, and its half-lattice |w_hat|^2 (amplitude-normalized
    coefficients, as dft_forward)."""
    coef = grid.rfft(w)
    power = (coef.real**2 + coef.imag**2) / float(grid.n**grid.d) ** 2
    power_u, power_c = np.sum(power[: grid.d], axis=0), power[grid.d]
    total = power_u + power_c
    energy = _shell_sum(grid, 0.5 * power_u + power_c / (params.gamma - 1.0))
    return energy, _shell_sum(grid, total), total


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
    energy, raw, _ = _snapshot_spectrum(grid, _bundle(state, params), params)
    counts = _shell_sum(grid, np.ones(grid.half_shape)).astype(np.int64)
    return Spectrum(t=state.t, energy=energy, raw=raw, counts=counts, d=grid.d, n=grid.n, P=grid.P)


@dataclass(frozen=True)
class SpectrumSeries:
    """Per-snapshot shell spectra plus their trapezoid time integrals.

    mode_power is the time integral of the per-mode |w_hat|^2 on grid's
    half lattice; a series built from per-shell integrals has neither.
    integrability holds the norms of rho, m and w when the pass was run
    with integrability exponents, and is None otherwise.
    """

    times: np.ndarray
    energy: np.ndarray  # (n_times, n_shells)
    raw: np.ndarray
    counts: np.ndarray
    integrated_energy: np.ndarray  # per shell, int_0^T E dt
    integrated_raw: np.ndarray
    d: int
    n: int
    P: float
    grid: PeriodicGrid = None
    mode_power: np.ndarray = None
    integrability: IntegrabilityReport = None

    @classmethod
    def from_integrated(cls, integrated_energy, d, n, P):
        """Build a fit-ready series directly from per-shell integrals."""
        ie = np.asarray(integrated_energy, dtype=np.float64)
        ir = ie.copy()
        return cls(
            times=np.array([0.0, 1.0]), energy=np.vstack([ie, ie]), raw=np.vstack([ir, ir]),
            counts=np.zeros(len(ie), dtype=np.int64),
            integrated_energy=ie, integrated_raw=ir, d=d, n=n, P=P,
        )


def _require_time_series(series: SnapshotSeries):
    if len(series) < 2:
        raise ValueError("time integration needs at least two snapshots")
    return series.times


def trapezoid_weights(times) -> np.ndarray:
    """Weights w with sum_i w_i g(t_i) the trapezoid integral of g over
    the (at least two) sample times."""
    w = np.empty(len(times))
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    if len(times) > 2:
        w[1:-1] = 0.5 * (times[2:] - times[:-2])
    return w


def feed(series, passes) -> list:
    """The results of passes over one sweep of a series, in order, then the
    last State.  A pass is a generator that sets itself up (checking its
    arguments) on the first next(), takes each State by send(), and answers
    the last one with its result; all are set up before the first State is taken."""
    for p in passes:
        next(p)
    for st in series:
        results = [p.send(st) for p in passes]
    return results + [st]


def spectral_pass(series, params: FluidParams, exponents=None):
    """time_integrated_spectrum as a feed pass.  Exponents (q1, q2, q) are
    resolved by integrability_exponents when the pass is set up."""
    times = _require_time_series(series)
    grid = series.grid
    if exponents is not None:
        exponents = integrability_exponents(params.gamma, *exponents)
    sums = np.zeros(3)
    energy = np.empty((len(times), grid.n_shells))
    raw = np.empty_like(energy)
    mode_power = np.zeros(grid.half_shape)
    for i, tw in enumerate(trapezoid_weights(times)):
        st = yield
        w = _bundle(st, params)
        energy[i], raw[i], power = _snapshot_spectrum(grid, w, params)
        mode_power += tw * power
        if exponents is not None:
            sums += spacetime_lp(grid, ((tw, st.rho.values, st.m.values, w),), exponents)
    yield SpectrumSeries(
        times=times, energy=energy, raw=raw,
        counts=_shell_sum(grid, np.ones(grid.half_shape)).astype(np.int64),
        integrated_energy=np.trapezoid(energy, x=times, axis=0),
        integrated_raw=np.trapezoid(raw, x=times, axis=0),
        d=grid.d, n=grid.n, P=grid.P, grid=grid, mode_power=mode_power,
        integrability=None if exponents is None else IntegrabilityReport(
            *(acc ** (1.0 / q) for acc, q in zip(sums, exponents)), *exponents),
    )


def time_integrated_spectrum(series: SnapshotSeries, params: FluidParams, exponents=None) -> SpectrumSeries:
    """The spectral pass: one rfftn of the weighted bundle per snapshot,
    binned into shells and accumulated into the integrated mode power.
    With exponents (q1, q2, q) the same sweep also gives the space-time
    norms of rho, m and the bundle w (see IntegrabilityReport)."""
    return feed(series, [spectral_pass(series, params, exponents)])[0]


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


def fit_window(n: int, k_lo, k_hi) -> tuple:
    """Fit window on an n-point grid: 1 <= k_lo < k_hi <= n/2, default [n//16, n//3] (at least [1, 2])."""
    k_lo = max(1, n // 16) if k_lo is None else int(k_lo)
    k_hi = max(2, n // 3) if k_hi is None else int(k_hi)
    if not (1 <= k_lo < k_hi):
        raise ValueError(f"bad fit window [{k_lo}, {k_hi}]")
    if k_hi > n // 2:
        raise ValueError(f"window end {k_hi} is beyond the resolved shells (n/2 = {n // 2})")
    return k_lo, k_hi


def ckh_fit(spec: SpectrumSeries, k_lo: int = None, k_hi: int = None) -> CkhFit:
    k_lo, k_hi = fit_window(spec.n, k_lo, k_hi)
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
    return CkhFit(
        exponent=float(slope), prefactor=float(np.exp(intercept)),
        residual=residual, m_t=decay_constant(spec.integrated_energy, k_lo, k_hi), k_lo=k_lo, k_hi=k_hi,
    )


def decay_constant(integrated_energy, k_lo: int, k_hi: int) -> float:
    """m_t, the maximum of k^(5/3) * integrated_energy[k] over the shells
    k_lo..k_hi: the empirical constant of the k^(-5/3) decay bound."""
    window = np.asarray(integrated_energy)[k_lo : k_hi + 1]
    return float(np.max(np.arange(k_lo, k_lo + len(window), dtype=np.float64) ** (5.0 / 3.0) * window))


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


def ckhw_k_star(n: int, beta: float, k_star) -> int:
    """First shell in [1, n//3] (default max(1, n//16)) of the decay statistic; beta > 0."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    k_star = max(1, n // 16) if k_star is None else int(k_star)
    if not (1 <= k_star <= n // 3):
        raise ValueError(f"k_star {k_star} outside the resolved dealiased range [1, {n // 3}]")
    return k_star


def ckhw_from_spectrum(spec: SpectrumSeries, beta: float, k_star: int = None) -> CkhwDetail:
    """The weighted-mode decay statistic of a time-integrated spectrum."""
    grid = spec.grid
    k_star, cap = ckhw_k_star(grid.n, beta, k_star), grid.n // 3
    itg = spec.mode_power
    shell_sum = _shell_sum(grid, itg)
    shells = np.arange(k_star, cap + 1)
    nominal = _nominal_shell_measure(grid.d, shells)
    vals = shells.astype(np.float64) ** (3.0 + beta) * shell_sum[k_star : cap + 1] / nominal
    norm = grid.mode_norm_half
    in_range = (norm >= k_star) & (norm <= cap)
    per_mode = float(np.max(norm[in_range] ** (3.0 + beta) * itg[in_range], initial=0.0))
    return CkhwDetail(
        value=float(np.max(vals)), per_mode_sup=per_mode,
        beta=float(beta), k_star=k_star, shells=shells, shell_values=vals,
    )


def ckhw_statistic(series: SnapshotSeries, params: FluidParams, beta: float, k_star: int = None) -> float:
    """Scalar form of the weighted-mode decay statistic (see CkhwDetail)."""
    return ckhw_from_spectrum(time_integrated_spectrum(series, params), beta, k_star).value


def sobolev_order(alpha: float) -> float:
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    return alpha


def sobolev_norm_from_spectrum(spec: SpectrumSeries, alpha: float) -> float:
    """L^2-in-time H^alpha norm of the weighted bundle, sum of the symbol
    times the integrated mode power (see fractional_sobolev_norm)."""
    grid = spec.grid
    symbol = (1.0 + grid.mode_norm_half**2) ** sobolev_order(alpha)
    return float(np.sqrt(np.sum(grid.parseval_weight * symbol * spec.mode_power)))


def fractional_sobolev_norm(series: SnapshotSeries, params: FluidParams, alpha: float) -> float:
    """L^2-in-time H^alpha norm of the weighted bundle.

    Uses the inhomogeneous symbol (1 + |k|^2)^alpha in shell units, so
    alpha = 0 degenerates exactly to the per-volume L^2(0,T; L^2) norm.
    """
    return sobolev_norm_from_spectrum(time_integrated_spectrum(series, params), alpha)


@dataclass(frozen=True)
class ModulusTable:
    """Equicontinuity moduli against shift length, with log-log slopes.

    density[i] = integral over time and space of |rho(.+shift) - rho|^exponent
    with exponent = gamma, momentum[i] the same with the squared momentum
    magnitude.  kind is "space" (lattice shifts) or "time" (snapshot lags).
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


def spacetime_lp(grid: PeriodicGrid, rows, exponents) -> list:
    """Space-time integrals sum_i w_i int |f_i|^p dx, one per exponent p,
    over rows (w_i, f_i, g_i, ...) of a time weight and one sample per
    exponent.  A sample with a leading component axis enters by its
    pointwise Euclidean magnitude; p = 2 sums the squares directly."""
    dxd = grid.dx**grid.d
    acc = [0.0] * len(exponents)
    for w, *samples in rows:
        for j, (f, p) in enumerate(zip(samples, exponents)):
            if p == 2.0:
                total = np.sum(f * f)
            else:
                mag = np.sqrt(np.sum(f**2, axis=0)) if f.ndim > grid.d else np.abs(f)
                total = np.sum(mag**p)
            acc[j] += w * float(total) * dxd
    return acc


def _modulus_table(kind, lengths, dens, mom, exponent) -> ModulusTable:
    lengths, dens, mom = np.array(lengths), np.array(dens), np.array(mom)
    return ModulusTable(
        kind=kind, lengths=lengths, density=dens, momentum=mom,
        density_slope=_fit_loglog(lengths, dens),
        momentum_slope=_fit_loglog(lengths, mom),
        exponent=exponent,
    )


def space_modulus_pass(series, params: FluidParams, shifts):
    """space_modulus as a feed pass."""
    times = _require_time_series(series)
    grid = series.grid
    p_rho = params.gamma
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
    axes = grid.spatial_axes()
    sums = np.zeros((len(offsets), 2))
    for w in trapezoid_weights(times):
        st = yield
        for k, off in enumerate(offsets):
            shift = tuple(-o for o in off)
            sums[k] += spacetime_lp(grid, ((w, np.roll(st.rho.values, shift, axes) - st.rho.values,
                                            np.roll(st.m.values, shift, axes) - st.m.values),), (p_rho, 2.0))
    lengths = [grid.dx * math.sqrt(sum(o * o for o in off)) for off in offsets]
    yield _modulus_table("space", lengths, sums[:, 0], sums[:, 1], p_rho)


def space_modulus(series: SnapshotSeries, params: FluidParams, shifts) -> ModulusTable:
    """Shift moduli int_0^T int |f(x + dx*shift) - f(x)|^p dx dt.

    shifts are integer lattice offsets (scalars act along axis 0); the
    density channel uses p = gamma, momentum p = 2 with the pointwise
    vector magnitude.  Shifts are exact rolls.
    """
    return feed(series, [space_modulus_pass(series, params, shifts)])[0]


def snapshot_lags(lags) -> list:
    """Lags as positive whole numbers of snapshot intervals."""
    for lag in lags:
        if float(lag) != int(lag) or lag < 1:
            raise ValueError(f"lag {lag} is not a positive whole number of cadence steps")
    return [int(lag) for lag in lags]


def time_modulus_pass(series, params: FluidParams, lags):
    """time_modulus as a feed pass, keeping the last max(lags) + 1 states."""
    times = _require_time_series(series)
    grid = series.grid
    p_rho = params.gamma
    spacing = np.diff(times)
    delta = spacing[0]
    if np.max(np.abs(spacing - delta)) > 1e-9 * delta:
        raise ValueError("time moduli need uniform snapshot cadence")
    nt = len(times)
    lags = snapshot_lags(lags)
    for j in lags:
        if j > nt - 2:
            raise ValueError(
                f"lag {j} leaves an empty integration window ({nt} snapshots); "
                "the horizon-sized lag is not integrable"
            )
    weights = [trapezoid_weights(times[: nt - j]) for j in lags]
    ring, sums = {}, np.zeros((len(lags), 2))
    for i in range(nt):
        ring[i] = st = yield
        ring.pop(i - max(lags, default=0) - 1, None)
        # the pair (i - j, i) of lag j comes in the order of its first snapshot
        for k, j in enumerate(lags):
            if i >= j:
                old = ring[i - j]
                sums[k] += spacetime_lp(grid, ((weights[k][i - j], st.rho.values - old.rho.values,
                                                st.m.values - old.m.values),), (p_rho, 2.0))
    yield _modulus_table("time", [j * delta for j in lags], sums[:, 0], sums[:, 1], p_rho)


def time_modulus(series: SnapshotSeries, params: FluidParams, lags) -> ModulusTable:
    """Lag moduli int_0^{T - lag} int |f(t + lag) - f(t)|^p dx dt.

    lags count snapshot intervals (cadence must be uniform).  A lag
    must leave at least two quadrature points in [0, T - lag].
    """
    return feed(series, [time_modulus_pass(series, params, lags)])[0]


@dataclass(frozen=True)
class IntegrabilityReport:
    """Mixed space-time L^q norms above the energy exponents.

    m_norm is the momentum m in L^q2; the paper's bound is on the
    velocity u in L^q2, and a per-rung report must pick one of the two.
    """

    rho_norm: float
    m_norm: float
    w_norm: float
    q1: float
    q2: float
    q: float


def integrability_exponents(gamma: float, q1, q2, q) -> tuple:
    """(q1, q2, q), default (1.2*gamma, 2.5, q2), strictly above (gamma, 2, 2)."""
    q1 = 1.2 * gamma if q1 is None else float(q1)
    q2 = 2.5 if q2 is None else float(q2)
    q = q2 if q is None else float(q)
    if not q1 > gamma:
        raise ValueError(f"q1 must exceed gamma = {gamma}, got {q1}")
    if not (q2 > 2 and q > 2):
        raise ValueError(f"q2 and q must exceed 2, got q2 = {q2}, q = {q}")
    return q1, q2, q


def high_integrability(series: SnapshotSeries, params: FluidParams) -> IntegrabilityReport:
    """Norms ||rho||_{L^q1}, ||m||_{L^q2}, ||w||_{L^q} on [0,T) x box at the
    default exponents (integrability_exponents); the spectral pass takes others."""
    return time_integrated_spectrum(series, params, (None, None, None)).integrability


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
    amplitude per component, so components > 1 gives a vector function;
    grid.trig_sum(terms, components) samples the spatial part and its gradient.
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
        object.__setattr__(self, "terms", trig_terms(self.terms, self.components, self.grid.d))

    def bump(self, t):
        """b(t) at a time or an array of times."""
        y = 1.0 - np.asarray(t, dtype=np.float64) / self.T0
        return np.where(y <= 0.0, 0.0, np.where(y >= 1.0, 1.0, np.polyval(_SMOOTH, y)))

    def bump_dt(self, t):
        """b'(t) at a time or an array of times."""
        y = 1.0 - np.asarray(t, dtype=np.float64) / self.T0
        inside = (y > 0.0) & (y < 1.0)
        return np.where(inside, np.polyval(_SMOOTH_D, y) * (-1.0 / self.T0), 0.0)


def default_test_functions(grid: PeriodicGrid, T: float, vector: bool = False):
    """Deterministic low-mode test set with support ending at T - T/8."""
    T0 = T - T / 8.0
    if T0 <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
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
    """

    euler_residual: float
    viscous_term: float
    ns_residual: float
    viscous_bound: float
    quadrature_scale: float
    quadrature_uncertainty: float
    roundoff_scale: float


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


def weak_residual_momentum(series: SnapshotSeries, params: FluidParams, phi: TestFunction,
                           m0: Field) -> MomentumResidual:
    return weak_residuals(series, params, vectors=(phi,), m0=m0).momentum[0]


def _max_rel(residuals, gross) -> float:
    return max(abs(r) for r in residuals) / max(max(gross), 1e-300)


@dataclass(frozen=True)
class WeakResiduals:
    """Weak residuals of one series: (residual, scale, gross) for each
    scalar test function and a MomentumResidual for each vector one.

    The mass residual is

        int int (rho * d_t phi + m . grad phi) dx dt + int rho0 phi(0) dx,

    zero for exact solutions up to time-quadrature and scheme error.
    scale is |data| plus the time integrals of each term's magnitude;
    gross takes the magnitudes inside the space integral as well.  A
    test function orthogonal to the flow drives residual and scale
    together to round-off, so their ratio means nothing there; gross
    stays at the size of the numbers actually summed and is the honest
    yardstick for how deep the cancellation went.  The *_max_rel ratios
    divide a family's largest |residual| by its largest gross scale
    (see sweep.LimitCandidateReport)."""

    mass: tuple
    momentum: tuple

    @property
    def mass_max_rel(self) -> float:
        return _max_rel([r for r, _, _ in self.mass], [g for _, _, g in self.mass])

    @property
    def ns_max_rel(self) -> float:
        return _max_rel([r.ns_residual for r in self.momentum], [r.roundoff_scale for r in self.momentum])

    @property
    def euler_max_rel(self) -> float:
        return _max_rel([r.euler_residual for r in self.momentum], [r.roundoff_scale for r in self.momentum])


def _record(rows, gross, i, k, factor, products):
    """Term k of every stacked function at snapshot i: factor times the sum
    of each function's products, and |factor| times the sum of their
    magnitudes added to its gross mass.  products are made absolute."""
    flat = products.reshape(len(products), -1)
    rows[:, k, i] = factor * np.sum(flat, axis=-1)
    gross[:, i] += np.abs(factor) * np.sum(np.abs(flat, out=flat), axis=-1)


def _bumps(fns, times) -> tuple:
    """b and b' of every function at every time, (functions, times) each."""
    shape = (len(fns), len(times))
    return (np.array([phi.bump(times) for phi in fns]).reshape(shape),
            np.array([phi.bump_dt(times) for phi in fns]).reshape(shape))


def _sym_grad(grid: PeriodicGrid, u: np.ndarray, pairs) -> tuple:
    """d_b u_a + d_a u_b for the pairs a <= b, flattened per pair (one
    rfftn, one batched irfftn), and the box integral of |grad u|^2."""
    u_h = grid.rfft(u.reshape((grid.d,) + grid.shape))
    sym_h = np.array([grid.ik_half[b] * u_h[a] + grid.ik_half[a] * u_h[b] for a, b in pairs])
    return grid.irfft(sym_h).reshape(len(pairs), -1), grid.grad_sq(u_h)


def _weak_totals(times, terms, gross, data_values, dxd):
    """(residual, scale, gross) of one weak form from its per-snapshot term
    and gross rows and its t = 0 data term (see WeakResiduals)."""
    data = float(np.sum(data_values)) * dxd
    residual = float(np.trapezoid(sum(terms), x=times)) + data
    scale = abs(data) + sum(float(np.trapezoid(np.abs(g), x=times)) for g in terms)
    return residual, scale, float(np.sum(np.abs(data_values))) * dxd + float(np.trapezoid(gross, x=times))


def weak_pass(series, params: FluidParams, scalars, vectors, m0: Field = None):
    """weak_residuals as a feed pass, keeping the first state for the data terms."""
    times = _require_time_series(series)
    grid = series.grid
    d = grid.d
    for phi in (*scalars, *vectors):
        _check_support(times, phi)
    if any(phi.components != 1 for phi in scalars):
        raise ValueError("mass residual takes a scalar test function")
    if any(phi.components != d for phi in vectors):
        raise ValueError(f"momentum residual takes a {d}-component test function")
    size, nt, ns, nv = grid.n**d, len(times), len(scalars), len(vectors)
    # m (x) m / rho and Sigma are symmetric, so both contract with grad phi
    # through the pairs a <= b: with sym_aa = d_a phi_a and
    # sym_ab = d_b phi_a + d_a phi_b, Q : grad phi = sum_pairs Q_ab sym_ab
    # and Sigma : grad phi = mu sum_pairs (d_b u_a + d_a u_b) sym_ab
    # + lam div u div phi.
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    # Each function is sampled straight into its family's C-ordered stacks,
    # one function's samples alive at a time.
    s_space, s_grad = np.empty((ns, size)), np.empty((ns, d, size))
    for f, phi in enumerate(scalars):
        space, grad = grid.trig_sum(phi.terms, 1)
        s_space[f], s_grad[f] = space.reshape(size), grad.reshape(d, size)
    v_space, v_div, v_sym = np.empty((nv, d, size)), np.empty((nv, size)), np.empty((len(pairs), nv, size))
    v_grad_sq = np.empty(nv)
    for f, phi in enumerate(vectors):
        space, grad = grid.trig_sum(phi.terms, d)
        grad = grad.reshape(d, d, size)
        v_space[f], v_div[f], v_grad_sq[f] = space.reshape(d, size), np.einsum("aan->n", grad), np.sum(grad**2)
        for k, (a, b) in enumerate(pairs):
            v_sym[k, f] = grad[a, b] + grad[b, a] if a != b else grad[a, a]
    s_b, s_bdt = _bumps(scalars, times)
    v_b, v_bdt = _bumps(vectors, times)
    force = params.forcing.spatial(grid).reshape(d, size) if vectors and params.forcing.active else None
    # per function and snapshot: mass (dt, flux), momentum (dt, flux, press,
    # force, visc), each with its gross mass
    mass_rows, mass_gross = np.zeros((ns, 2, nt)), np.zeros((ns, nt))
    mom_rows, mom_gross = np.zeros((nv, 5, nt)), np.zeros((nv, nt))
    grad_u_sq, div_u_sq = np.zeros(nt), np.zeros(nt)
    # One term's products with every function at a time, in one buffer for
    # all snapshots: a fresh stacked product per term costs more than the
    # term (at 3D 32^3 it is megabytes).
    products = np.empty((max(ns, nv), d, size))
    for i in range(nt):
        st = yield
        if i == 0:
            first = st
        rho, m = st.rho.values.reshape(size), st.m.values.reshape(d, size)
        if scalars:
            scalar_products = products[:ns, 0]
            np.multiply(rho, s_space, out=scalar_products)
            _record(mass_rows, mass_gross, i, 0, s_bdt[:, i], scalar_products)
            np.einsum("kn,fkn->fn", m, s_grad, out=scalar_products)
            _record(mass_rows, mass_gross, i, 1, s_b[:, i], scalar_products)
        if not vectors:
            continue
        u = params.velocity(rho, m)
        sym_u, grad_u_sq[i] = _sym_grad(grid, u, pairs)
        div_u = 0.5 * sum(sym_u[k] for k, (a, b) in enumerate(pairs) if a == b)
        div_u_sq[i] = np.dot(div_u, div_u)
        b, comp, contracted = v_b[:, i], products[:nv], products[:nv, 0]
        np.multiply(m, v_space, out=comp)
        _record(mom_rows, mom_gross, i, 0, v_bdt[:, i], comp)
        np.einsum("kn,kfn->fn", np.array([m[a] * u[b] for a, b in pairs]), v_sym, out=contracted)
        _record(mom_rows, mom_gross, i, 1, b, contracted)
        np.multiply(params.pressure(rho), v_div, out=contracted)
        _record(mom_rows, mom_gross, i, 2, b, contracted)
        if force is not None:
            np.multiply(v_space, force, out=comp)
            comp *= rho * params.forcing.envelope_at(st.t)
            _record(mom_rows, mom_gross, i, 3, b, comp)
        np.einsum("kn,kfn->fn", sym_u, v_sym, out=contracted)
        contracted *= params.mu
        contracted += params.lam * div_u * v_div
        _record(mom_rows, mom_gross, i, 4, b, contracted)

    dxd = grid.dx**d
    b_sq = v_b**2 * dxd
    for arr in (mass_rows, mass_gross, mom_rows, mom_gross, div_u_sq):  # grad_u_sq is a box integral
        arr *= dxd
    rho0 = first.rho.values.reshape(size)
    mass = [
        _weak_totals(times, rows, gross, rho0 * (phi.bump(0.0) * space), dxd)
        for phi, space, rows, gross in zip(scalars, s_space, mass_rows, mass_gross)
    ]

    def l2(g):
        return math.sqrt(max(float(np.trapezoid(g, x=times)), 0.0))

    m0 = (first.m if m0 is None else m0).values.reshape(d, size)
    momentum = []
    for phi, space, div_g, grad_sq, rows, gross, bf_sq in zip(vectors, v_space, v_div, v_grad_sq,
                                                             mom_rows, mom_gross, b_sq):
        euler, scale, roundoff = _weak_totals(times, rows[:4], gross, m0 * (phi.bump(0.0) * space), dxd)
        visc = float(np.trapezoid(rows[4], x=times))
        bound = (2.0 * params.mu * l2(grad_u_sq) * l2(float(grad_sq) * bf_sq)
                 + abs(params.lam) * l2(div_u_sq) * l2(float(np.sum(div_g**2)) * bf_sq))
        momentum.append(MomentumResidual(
            euler_residual=euler,
            viscous_term=visc,
            ns_residual=euler - visc,
            viscous_bound=bound,
            quadrature_scale=scale,
            quadrature_uncertainty=_trapezoid_refinement_gap(times, (sum(rows[:4]), rows[4]), scale),
            roundoff_scale=roundoff,
        ))
    yield WeakResiduals(mass=tuple(mass), momentum=tuple(momentum))


def weak_residuals(series: SnapshotSeries, params: FluidParams, scalars=(), vectors=(),
                   m0: Field = None) -> WeakResiduals:
    """The weak-form pass: mass residuals of the scalar test functions and
    momentum residuals of the vector ones, in one sweep of the series.

    Per snapshot, u = m / max(rho, rho_min), the symmetric part of grad u
    (one rfftn, one batched irfftn), m (x) m / rho, p and rho f are built
    once.  Each term's products with every test function's spatial part
    form one stacked array, summed per function and scaled by its bump
    b(t) or b'(t).  The mass data term uses the first snapshot's rho, the
    momentum one m0 (default the first snapshot's m); params may be None
    when there are no vector test functions.
    """
    return feed(series, [weak_pass(series, params, scalars, vectors, m0)])[0]


@dataclass(frozen=True)
class AdmissibilityResult:
    """Energy admissibility: E(t) - E(0) - W(t) must stay below tol."""

    times: np.ndarray
    residuals: np.ndarray
    max_residual: float
    tol: float
    admissible: bool


def energy_admissibility(times, energies, work=None) -> AdmissibilityResult:
    """Check that no snapshot holds more energy E than data plus work W (default
    none), to tol = 1e-8 * max(E(0), 1): a run's ledger rows (t, E, W), or
    solver.total_energy of stored snapshots."""
    times = np.asarray(times, dtype=np.float64)
    E = np.asarray(energies, dtype=np.float64)
    W = np.zeros(len(times)) if work is None else np.asarray(work, dtype=np.float64)
    if not len(E) == len(W) == len(times):
        raise ValueError("energies and work must align with the snapshot times")
    res = E - E[0] - W
    tol = 1e-8 * max(E[0], 1.0)
    mx = float(np.max(res))
    return AdmissibilityResult(times=times, residuals=res, max_residual=mx, tol=tol, admissible=mx <= tol)


def energy_pass(series, params: FluidParams):
    """Feed pass judging the snapshots' total energies by energy_admissibility, with no work."""
    energies = []
    for _ in range(len(series)):
        energies.append(total_energy((yield), params))
    yield energy_admissibility(series.times, energies)


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


def vacuum_threshold(theta: float) -> float:
    if not theta > 0:
        raise ValueError(f"vacuum threshold theta must be positive, got {theta}")
    return float(theta)


def reynolds_quotient(state: State, theta: float) -> ReynoldsQuotient:
    theta = vacuum_threshold(theta)
    grid = state.grid
    d = grid.d
    rho = state.rho.values
    m = state.m.values
    mask = rho < theta
    safe = np.where(mask, 1.0, rho)
    M = np.where(mask, 0.0, m[:, None] * m[None, :] / safe)
    V = np.einsum("aa...->...", M)
    return ReynoldsQuotient(
        M=M, mask=mask, V=V, theta=theta,
        vacuum_fraction=float(np.mean(mask)),
    )
