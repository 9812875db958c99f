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


def _bundle_power(grid: PeriodicGrid, w: np.ndarray) -> np.ndarray:
    """One rfftn of a weighted bundle w: its half-lattice |w_hat|^2
    (amplitude-normalized coefficients, as dft_forward), summed over the
    velocity components and of the sonic part, stacked in that order."""
    coef = grid.rfft(w)
    power = (coef.real**2 + coef.imag**2) / float(grid.n**grid.d) ** 2
    return np.stack((np.sum(power[: grid.d], axis=0), power[grid.d]))


def _energy_shells(grid: PeriodicGrid, power: np.ndarray, params: FluidParams) -> np.ndarray:
    """Shell energy of a stacked (velocity, sonic) |w_hat|^2."""
    return _shell_sum(grid, 0.5 * power[0] + power[1] / (params.gamma - 1.0))


@dataclass(frozen=True)
class Spectrum:
    """Shell-binned spectrum of the weighted bundle at one time.

    energy[s] carries the energy weights (1/2 and 1/(gamma-1)) of the
    modes in shell s.
    """

    energy: np.ndarray

    def total(self) -> float:
        return float(np.sum(self.energy))


def shell_spectrum(state: State, params: FluidParams) -> Spectrum:
    """Bin the weighted bundle's spectral energy into integer shells.

    The shell sum reproduces the per-volume total energy exactly
    (Parseval), which is the completeness check run by the tests.
    """
    grid = state.grid
    return Spectrum(energy=_energy_shells(grid, _bundle_power(grid, _bundle(state, params)), params))


@dataclass(frozen=True)
class SpectrumSeries:
    """Trapezoid time integrals of a series' shell spectra.

    mode_power is the time integral of the per-mode |w_hat|^2 on grid's
    half lattice, binned into shells once: integrated_raw[s] is its shell
    sum, and integrated_energy[s] that of its energy-weighted parts, the
    integral int_0^T E(t, s) dt of shell_spectrum's rows.  counts[s] is
    the number of lattice modes in shell s.  A series built from
    per-shell energy integrals (from_integrated) has none of counts,
    integrated_raw and mode_power: they are None.
    integrability holds the norms of rho, m and w when the pass was run
    with integrability exponents, and is None otherwise.
    """

    counts: np.ndarray
    integrated_energy: np.ndarray
    integrated_raw: np.ndarray
    d: int
    n: int
    P: float
    grid: PeriodicGrid = None
    mode_power: np.ndarray = None
    integrability: IntegrabilityReport = None

    @classmethod
    def from_integrated(cls, integrated_energy, d, n, P):
        """Build a fit-ready series directly from per-shell energy
        integrals; it has no counts, raw integrals or mode power."""
        ie = np.asarray(integrated_energy, dtype=np.float64)
        return cls(counts=None, integrated_energy=ie, integrated_raw=None, d=d, n=n, P=P)


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
    the last one with its result; close() before then discards what it
    made.  All are set up before the first State is taken.  solver.run
    drives one pass, its store, the same way while it runs.  Each State but
    the last is let go, here and by the passes, before the next is read."""
    for p in passes:
        next(p)
    states = iter(series)
    for left in reversed(range(len(series))):
        st = next(states)
        results = [p.send(st) for p in passes]
        if left:
            del st
    return results + [st]


def fan_out(passes: dict, count: int, answer):
    """One feed pass of count States that sends each to every pass of the
    dict passes, each set up for count States too, and answers with
    answer(their answers by name).  Closed before then, it closes them."""
    try:
        for p in passes.values():
            next(p)
        for _ in range(count):
            st = yield
            answers = {name: p.send(st) for name, p in passes.items()}
    except BaseException:
        for p in passes.values():
            p.close()
        raise
    yield answer(answers)


def spectral_pass(series, params: FluidParams, exponents=None):
    """time_integrated_spectrum as a feed pass.  Exponents (q1, q2, q) are
    resolved by integrability_exponents when the pass is set up."""
    times = _require_time_series(series)
    grid = series.grid
    if exponents is not None:
        exponents = integrability_exponents(params.gamma, *exponents)
    sums = np.zeros(3)
    power = np.zeros((2,) + grid.half_shape)  # int |w_hat|^2 dt, velocity and sonic parts
    for tw in trapezoid_weights(times):
        st = yield
        w = _bundle(st, params)
        power += tw * _bundle_power(grid, w)
        if exponents is not None:
            sums += spacetime_lp(grid, ((tw, st.rho.values, st.m.values, w),), exponents)
        del st, w  # not kept while the series makes the next State
    mode_power = power[0] + power[1]
    yield SpectrumSeries(
        counts=_shell_sum(grid, np.ones(grid.half_shape)).astype(np.int64),
        integrated_energy=_energy_shells(grid, power, params), integrated_raw=_shell_sum(grid, mode_power),
        d=grid.d, n=grid.n, P=grid.P, grid=grid, mode_power=mode_power,
        integrability=None if exponents is None else IntegrabilityReport(
            *(acc ** (1.0 / q) for acc, q in zip(sums, exponents)), *exponents),
    )


def time_integrated_spectrum(series: SnapshotSeries, params: FluidParams, exponents=None) -> SpectrumSeries:
    """The spectral pass: one rfftn of the weighted bundle per snapshot,
    accumulated into the integrated mode power, binned into shells once.
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
    """Weighted-mode decay statistic of a time-integrated spectrum.

    value is sup over shells k_star <= s <= n/3 of

        s^(3+beta) * (shell sum of int |w_hat|^2 dt) / nominal(s),

    the shell-count-normalized major form; per_mode_sup is the raw
    sup of |n|^(3+beta) * int |w_hat(n)|^2 dt over individual modes.
    """

    value: float
    per_mode_sup: float
    beta: float
    k_star: int


def ckhw_k_star(n: int, beta: float, k_star) -> int:
    """First shell in [1, n//3] (default max(1, n//16)) of the decay statistic; beta > 0."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    k_star = max(1, n // 16) if k_star is None else int(k_star)
    if not (1 <= k_star <= n // 3):
        raise ValueError(f"k_star {k_star} outside the resolved dealiased range [1, {n // 3}]")
    return k_star


def ckhw_from_spectrum(spec: SpectrumSeries, beta: float, k_star: int = None) -> CkhwDetail:
    """The weighted-mode decay statistic of a time-integrated spectrum."""
    grid = spec.grid
    k_star, cap = ckhw_k_star(grid.n, beta, k_star), grid.n // 3
    shells = np.arange(k_star, cap + 1)
    nominal = _nominal_shell_measure(grid.d, shells)
    vals = shells.astype(np.float64) ** (3.0 + beta) * spec.integrated_raw[k_star : cap + 1] / nominal
    norm = grid.mode_norm_half
    in_range = (norm >= k_star) & (norm <= cap)
    per_mode = float(np.max(norm[in_range] ** (3.0 + beta) * spec.mode_power[in_range], initial=0.0))
    return CkhwDetail(value=float(np.max(vals)), per_mode_sup=per_mode, beta=float(beta), k_star=k_star)


def ckhw_statistic(series: SnapshotSeries, params: FluidParams, beta: float, k_star: int = None) -> float:
    """Scalar form of the weighted-mode decay statistic (see CkhwDetail)."""
    return ckhw_from_spectrum(time_integrated_spectrum(series, params), beta, k_star).value


def sobolev_order(alpha: float) -> float:
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
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
    for s in shifts:
        if float(s) != int(s):
            raise ValueError(f"shift {s} is not an integer lattice offset")
    offsets = [int(s) for s in shifts]
    axis = grid.spatial_axes()[0]
    sums = np.zeros((len(offsets), 2))
    for w in trapezoid_weights(times):
        st = yield
        for k, off in enumerate(offsets):
            sums[k] += spacetime_lp(grid, ((w, np.roll(st.rho.values, -off, axis) - st.rho.values,
                                            np.roll(st.m.values, -off, axis) - st.m.values),), (p_rho, 2.0))
        del st  # not kept while the series makes the next State
    yield _modulus_table("space", [grid.dx * abs(off) for off in offsets], sums[:, 0], sums[:, 1], p_rho)


def space_modulus(series: SnapshotSeries, params: FluidParams, shifts) -> ModulusTable:
    """Shift moduli int_0^T int |f(x + dx*shift) - f(x)|^p dx dt.

    shifts are integer lattice offsets along the first axis; the density
    channel uses p = gamma, momentum p = 2 with the pointwise vector
    magnitude.  Shifts are exact rolls.
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
    """(q1, q2, q), default (1.2*gamma, 2.5, q2), finite and strictly above (gamma, 2, 2)."""
    q1 = 1.2 * gamma if q1 is None else float(q1)
    q2 = 2.5 if q2 is None else float(q2)
    q = q2 if q is None else float(q)
    if not gamma < q1 < math.inf:
        raise ValueError(f"q1 must exceed gamma = {gamma} and be finite, got {q1}")
    if not (2 < q2 < math.inf and 2 < q < math.inf):
        raise ValueError(f"q2 and q must exceed 2 and be finite, got q2 = {q2}, q = {q}")
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
    """Space-time test function: one trig mode times a one-sided bump.

    phi(t, x) = b(t) * amps * cos(k.x + phase) for the one term (amps, mode,
    phase) of terms, with b a degree-9 smoothstep in (1 - t/T0): b(0) = 1,
    b and four derivatives vanish at t = T0, identically zero beyond.  amps
    has one amplitude per component, so components > 1 gives a vector
    function; grid.trig_sum(terms, components) samples the spatial part and
    its gradient.
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
        if len(self.terms) != 1:
            raise ValueError(f"a test function takes exactly one (amps, mode, phase) term, got {len(self.terms)}")

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


def _bumps(fns, times) -> tuple:
    """b and b' of every function at every time, (functions, times) each."""
    shape = (len(fns), len(times))
    return (np.array([phi.bump(times) for phi in fns]).reshape(shape),
            np.array([phi.bump_dt(times) for phi in fns]).reshape(shape))


def _sym_grad(grid: PeriodicGrid, u: np.ndarray, pairs) -> tuple:
    """d_b u_a + d_a u_b for the pairs a <= b, flattened per pair (one
    rfftn, one batched inverse in place), and the box integral of |grad u|^2."""
    ik, u_h = grid.ik_half, grid.rfft(u.reshape((grid.d,) + grid.shape))
    grad_sq, sym_h = grid.grad_sq(u_h), np.empty((len(pairs),) + grid.half_shape, dtype=np.complex128)
    for row, (a, b) in zip(sym_h, pairs):
        np.add(np.multiply(ik[b], u_h[a], out=row), ik[a] * u_h[b], out=row)
    del u_h  # dead before the inverse makes its output
    return grid.irfft(sym_h, scratch=sym_h).reshape(len(pairs), -1), grad_sq


def _weak_totals(times, terms, gross, data, dxd):
    """(residual, scale, gross) of one weak form from its per-snapshot term
    and gross rows and its t = 0 data term with that term's gross mass, the
    last two still to be multiplied by dxd (see WeakResiduals)."""
    data, data_gross = (float(v) * dxd for v in data)
    residual = float(np.trapezoid(sum(terms), x=times)) + data
    scale = abs(data) + sum(float(np.trapezoid(np.abs(g), x=times)) for g in terms)
    return residual, scale, data_gross + float(np.trapezoid(gross, x=times))


def weak_pass(series, params: FluidParams, scalars, vectors, m0: Field = None):
    """weak_residuals as a feed pass.

    A test function is one mode, phi = b amps cos(k.x + phase), so each term
    of the weak forms sums a field times cos or sin(k.x + phase) over the
    grid, times scalars of the function.  The pass samples those two fields
    once per distinct (mode, phase) and takes |c x| = |c| |x| for the gross
    sums; after set-up it holds them, d + 1 scratch fields and, for the
    momentum of a forced flow, the forcing's d.  A term whose bump factor is
    zero is not formed (b' at t = 0, b and b' from T0 on).  The data terms
    are summed as the first State arrives, and no State is kept."""
    times = _require_time_series(series)
    grid = series.grid
    d = grid.d
    for phi in (*scalars, *vectors):
        _check_support(times, phi)
    if any(phi.components != 1 for phi in scalars):
        raise ValueError("mass residual takes a scalar test function")
    if any(phi.components != d for phi in vectors):
        raise ValueError(f"momentum residual takes a {d}-component test function")
    size, nt = grid.n**d, len(times)
    keys = list(dict.fromkeys(phi.terms[0][1:] for phi in (*scalars, *vectors)))
    forced = d if vectors and params.forcing.active else 0
    # One block holds the pass's fields: each key's cos and sin, the forcing's
    # d if used, then d + 1 scratch fields.  Freed as one, it lifts glibc's mmap
    # threshold (the largest block freed) above every pass's per-snapshot arrays.
    block = np.empty((2 * len(keys) + forced + d + 1,) + grid.shape)
    flat, waves = block.reshape(len(block), size), {}  # (mode, phase) -> k, cos, sin, the sum of sin^2
    for j, key in enumerate(keys):
        k, block[2 * j], block[2 * j + 1] = grid.trig_mode(*key)
        waves[key] = np.array(k), flat[2 * j], flat[2 * j + 1], float(np.vdot(flat[2 * j + 1], flat[2 * j + 1]))
    force = flat[2 * len(keys) : len(flat) - d - 1]  # empty unless forced
    force[...] = params.forcing.spatial(grid).reshape(d, size) if forced else 0.0
    comp, prod = np.split(flat[len(flat) - d - 1 :], [d])
    s_parts, v_parts = ([(np.array(phi.terms[0][0]),) + waves[phi.terms[0][1:]] for phi in fns]
                        for fns in (scalars, vectors))
    # For the pairs a <= b, sym_ab = d_b phi_a + d_a phi_b (sym_aa = d_a phi_a)
    # is -b c_ab sin, c_ab = amps_a k_b + amps_b k_a (amps_a k_a for a = b), so
    # (m (x) m / rho) : grad phi = -b sin (amps . m)(k . u) and Sigma : grad phi
    # = -b sin sum_pairs (mu c_ab + [a = b] lam (amps . k) / 2)(d_b u_a + d_a u_b).
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    visc = [np.array([params.mu * (amps[a] * k[b] + amps[b] * k[a] if a != b else amps[a] * k[a])
                      + (0.5 * params.lam * (amps @ k) if a == b else 0.0) for a, b in pairs])
            for amps, k, *_ in v_parts]
    s_b, s_bdt = _bumps(scalars, times)
    v_b, v_bdt = _bumps(vectors, times)
    # per function, term (mass: dt, flux; momentum: dt, flux, press, force,
    # visc) and snapshot: the term and its gross mass
    mass, mom = np.zeros((len(scalars), 2, 2, nt)), np.zeros((len(vectors), 5, 2, nt))
    grad_u_sq, div_u_sq = np.zeros(nt), np.zeros(nt)

    def sums(coef, products):
        """coef . the sums of the rows of products, and |coef| . those of
        their magnitudes; products are made absolute."""
        return coef @ products.sum(-1), np.abs(coef) @ np.abs(products, out=products).sum(-1)

    for i in range(nt):
        st = yield
        rho, m = st.rho.values.reshape(1, size), st.m.values.reshape(d, size)
        if i == 0:  # the data terms, b(0) = 1
            mass_data = [sums(amps, np.multiply(rho, cos, out=prod)) for amps, _, cos, *_ in s_parts]
            mom_data = [sums(amps, np.multiply(m if m0 is None else m0.values.reshape(d, size), cos, out=comp))
                        for amps, _, cos, *_ in v_parts]
        for f, (amps, k, cos, sin, _) in enumerate(s_parts):
            if s_bdt[f, i]:  # rho d_t phi
                mass[f, 0, :, i] = sums(s_bdt[f, i] * amps, np.multiply(rho, cos, out=prod))
            if s_b[f, i]:  # m . grad phi = -b amps sin (k . m)
                np.einsum("a,an->n", k, m, out=prod[0])
                mass[f, 1, :, i] = sums(-s_b[f, i] * amps, np.multiply(prod, sin, out=prod))
        if not vectors:
            del st, rho, m
            continue
        u = params.velocity(rho, m)
        sym_u, grad_u_sq[i] = _sym_grad(grid, u, pairs)
        div_u = 0.5 * sum(sym_u[k] for k, (a, b) in enumerate(pairs) if a == b)
        div_u_sq[i] = np.dot(div_u, div_u)
        p = params.pressure(rho) if v_b[:, i].any() else None
        for f, ((amps, k, cos, sin, _), coef) in enumerate(zip(v_parts, visc)):
            b, bdt = v_b[f, i], v_bdt[f, i]
            if bdt:  # m . d_t phi
                mom[f, 0, :, i] = sums(bdt * amps, np.multiply(m, cos, out=comp))
            if not b:
                continue
            np.multiply(np.einsum("a,an->n", amps, m, out=prod[0]), np.einsum("a,an->n", k, u, out=comp[0]),
                        out=prod[0])
            mom[f, 1, :, i] = sums(np.array([-b]), np.multiply(prod, sin, out=prod))
            mom[f, 2, :, i] = sums(np.array([-b * (amps @ k)]), np.multiply(p, sin, out=prod))  # div phi
            if forced:
                np.multiply(force, cos, out=comp)
                mom[f, 3, :, i] = sums(b * params.forcing.envelope_at(st.t) * amps, np.multiply(comp, rho, out=comp))
            np.einsum("k,kn->n", coef, sym_u, out=prod[0])
            mom[f, 4, :, i] = sums(np.array([-b]), np.multiply(prod, sin, out=prod))
        del st, rho, m, u, sym_u, div_u, p  # not kept while the series makes the next State

    dxd = grid.dx**d
    b_sq = v_b**2 * dxd
    div_u_sq *= dxd  # grad_u_sq is a box integral

    def l2(g):
        return math.sqrt(max(float(np.trapezoid(g, x=times)), 0.0))

    momentum = []
    for (amps, k, _, _, sin_sq), terms, data, bf_sq in zip(v_parts, mom, mom_data, b_sq):
        rows = terms[:, 0] * dxd
        euler, scale, roundoff = _weak_totals(times, rows[:4], terms[:, 1].sum(0) * dxd, data, dxd)
        visc_term = float(np.trapezoid(rows[4], x=times))
        # |grad phi|^2 = b^2 |amps|^2 |k|^2 sin^2 and (div phi)^2 = b^2 (amps . k)^2 sin^2
        bound = (2.0 * params.mu * l2(grad_u_sq) * l2(sin_sq * (amps @ amps) * (k @ k) * bf_sq)
                 + abs(params.lam) * l2(div_u_sq) * l2(sin_sq * (amps @ k) ** 2 * bf_sq))
        momentum.append(MomentumResidual(
            euler_residual=euler,
            viscous_term=visc_term,
            ns_residual=euler - visc_term,
            viscous_bound=bound,
            quadrature_scale=scale,
            quadrature_uncertainty=_trapezoid_refinement_gap(times, (sum(rows[:4]), rows[4]), scale),
            roundoff_scale=roundoff,
        ))
    mass = [_weak_totals(times, terms[:, 0] * dxd, terms[:, 1].sum(0) * dxd, data, dxd)
            for terms, data in zip(mass, mass_data)]
    yield WeakResiduals(mass=tuple(mass), momentum=tuple(momentum))


def weak_residuals(series: SnapshotSeries, params: FluidParams, scalars=(), vectors=(),
                   m0: Field = None) -> WeakResiduals:
    """The weak-form pass: mass residuals of the scalar test functions and
    momentum residuals of the vector ones, in one sweep of the series.

    Per snapshot, u = m / max(rho, rho_min), the symmetric part of grad u
    (one rfftn, one batched inverse) and p are built once.  Each term is
    then summed per test function from products with the cos or sin field
    of the function's mode (see weak_pass) and scaled by its bump b(t) or
    b'(t).  The mass data term uses the first snapshot's rho, the momentum
    one m0 (default the first snapshot's m); params may be None when there
    are no vector test functions.
    """
    return feed(series, [weak_pass(series, params, scalars, vectors, m0)])[0]


@dataclass(frozen=True)
class AdmissibilityResult:
    """Energy admissibility: E(t) - E(0) - W(t) must stay below tol."""

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
    return AdmissibilityResult(residuals=res, max_residual=mx, tol=tol, admissible=mx <= tol)


def energy_pass(series, params: FluidParams):
    """Feed pass judging the snapshots' total energies by energy_admissibility, with no work."""
    energies = []
    for _ in range(len(series)):
        energies.append(total_energy((yield), params))
    yield energy_admissibility(series.times, energies)


@dataclass(frozen=True)
class ReynoldsQuotient:
    """Trace V = |m|^2/rho of the momentum quotient (m x m)/rho, the
    quotient's kinetic-energy density, zeroed where rho < theta;
    vacuum_fraction is the share of grid points with rho < theta.
    """

    V: np.ndarray
    theta: float
    vacuum_fraction: float


def vacuum_threshold(theta: float) -> float:
    if not 0 < theta < math.inf:
        raise ValueError(f"vacuum threshold theta must be positive and finite, got {theta}")
    return float(theta)


def reynolds_quotient(state: State, theta: float) -> ReynoldsQuotient:
    theta = vacuum_threshold(theta)
    rho = state.rho.values
    m = state.m.values
    mask = rho < theta
    safe = np.where(mask, 1.0, rho)
    V = np.where(mask, 0.0, np.sum(m * m / safe, axis=0))
    return ReynoldsQuotient(V=V, theta=theta, vacuum_fraction=float(np.mean(mask)))
