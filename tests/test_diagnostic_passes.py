"""The diagnostics' two streaming passes against full-lattice references.

The spectral pass (time_integrated_spectrum and the reductions of its
integrated mode power) and the weak-form pass (weak_residuals) must
reproduce the per-diagnostic forms they replaced: complex transforms on
the full mode lattice through dft_forward, and one series sweep per test
function with the forcing sampled through evaluate.  Those forms are
kept here as test-only references.
"""

import math

import numpy as np
import pytest

from baroflow.diagnostics import (
    MomentumResidual,
    ckhw_from_spectrum,
    ckhw_statistic,
    default_test_functions,
    fractional_sobolev_norm,
    shell_spectrum,
    sobolev_norm_from_spectrum,
    time_integrated_spectrum,
    weak_residual_momentum,
    weak_residuals,
    _nominal_shell_measure,
    _trapezoid_refinement_gap,
)
from baroflow.fields import dft_forward, make_grid, weighted_fields
from baroflow.solver import FluidParams, ForcingSpec, preset_ic, run

TWO_PI = 2.0 * np.pi
REL = 1e-12


# ------------------------------------------------------------ references


def reference_power(state, params):
    """Full-lattice |w_hat|^2, velocity and sonic parts."""
    w = weighted_fields(state.rho, state.m, params.gamma, params.kappa, params.rho_min)
    coef = dft_forward(w).coefficients
    d = state.grid.d
    return np.sum(np.abs(coef[:d]) ** 2, axis=0), np.abs(coef[d]) ** 2


def reference_shell(grid):
    return np.rint(grid.mode_norm).astype(np.int64)


def reference_spectrum_rows(series, params):
    grid = series.grid
    idx = reference_shell(grid).ravel()
    n_shells = int(idx.max()) + 1
    energy, raw = [], []
    for st in series:
        pu, pc = reference_power(st, params)
        dens = 0.5 * pu + pc / (params.gamma - 1.0)
        energy.append(np.bincount(idx, weights=dens.ravel(), minlength=n_shells))
        raw.append(np.bincount(idx, weights=(pu + pc).ravel(), minlength=n_shells))
    counts = np.bincount(idx, minlength=n_shells)
    return np.vstack(energy), np.vstack(raw), counts


def reference_mode_power(series, params):
    times = series.times
    out = np.zeros(series.grid.shape)
    for i, st in enumerate(series):
        w = 0.5 * (times[min(i + 1, len(times) - 1)] - times[max(i - 1, 0)])
        pu, pc = reference_power(st, params)
        out += w * (pu + pc)
    return out


def reference_ckhw(series, params, beta, k_star):
    grid = series.grid
    cap = grid.n // 3
    itg = reference_mode_power(series, params)
    shell = reference_shell(grid)
    shell_sum = np.bincount(shell.ravel(), weights=itg.ravel())
    shells = np.arange(k_star, cap + 1)
    vals = shells.astype(np.float64) ** (3.0 + beta) * shell_sum[k_star : cap + 1]
    vals = vals / _nominal_shell_measure(grid.d, shells)
    in_range = (grid.mode_norm >= k_star) & (grid.mode_norm <= cap)
    per_mode = float(np.max(grid.mode_norm[in_range] ** (3.0 + beta) * itg[in_range]))
    return float(np.max(vals)), per_mode


def reference_sobolev(series, params, alpha):
    symbol = (1.0 + series.grid.mode_norm**2) ** alpha
    g = []
    for st in series:
        pu, pc = reference_power(st, params)
        g.append(float(np.sum(symbol * (pu + pc))))
    return float(np.sqrt(np.trapezoid(np.array(g), x=series.times)))


def reference_mass(series, phi, rho0):
    """One sweep of the series for one scalar test function."""
    times = series.times
    dxd = series.grid.dx**series.grid.d
    g_dt, g_flux, g_gross = [], [], []
    for st in series:
        rho_dt = st.rho.values * (phi.bump_dt(st.t) * phi.space)[0]
        flux = np.sum(st.m.values * (phi.bump(st.t) * phi.grad)[0], axis=0)
        g_dt.append(float(np.sum(rho_dt)) * dxd)
        g_flux.append(float(np.sum(flux)) * dxd)
        g_gross.append((float(np.sum(np.abs(rho_dt))) + float(np.sum(np.abs(flux)))) * dxd)
    data_values = rho0.values * (phi.bump(0.0) * phi.space)[0]
    data = float(np.sum(data_values)) * dxd
    residual = float(np.trapezoid(np.array(g_dt) + np.array(g_flux), x=times)) + data
    scale = abs(data) + sum(float(np.trapezoid(np.abs(np.array(g)), x=times)) for g in (g_dt, g_flux))
    gross = float(np.sum(np.abs(data_values))) * dxd + float(np.trapezoid(np.array(g_gross), x=times))
    return residual, scale, gross


def reference_momentum(series, params, phi, m0):
    """One sweep of the series for one vector test function, rebuilding
    grad u and sampling the forcing through evaluate at every snapshot."""
    times = series.times
    grid = series.grid
    d = grid.d
    dxd = grid.dx**d
    ik = grid.ik_half
    g_euler, g_visc, g_dt, g_flux, g_press, g_force, g_gross = ([] for _ in range(7))
    grad_u_sq, div_u_sq, grad_phi_sq, div_phi_sq = [], [], [], []
    for st in series:
        rho, m = st.rho.values, st.m.values
        b = phi.bump(st.t)
        pt, gphi = phi.bump_dt(st.t) * phi.space, b * phi.grad
        dphi = b * np.einsum("aa...->...", phi.grad)
        rho_floor = np.maximum(rho, params.rho_min)
        quot = np.einsum("a...,b...,ab...->...", m, m, gphi) / rho_floor
        p = params.kappa * np.maximum(rho, 0.0) ** params.gamma
        t_dt = float(np.sum(m * pt)) * dxd
        t_flux = float(np.sum(quot)) * dxd
        t_press = float(np.sum(p * dphi)) * dxd
        t_force = 0.0
        gross = (float(np.sum(np.abs(m * pt))) + float(np.sum(np.abs(quot)))
                 + float(np.sum(np.abs(p * dphi))))
        if params.forcing.active:
            force_density = rho * params.forcing.evaluate(st.t, grid) * (b * phi.space)
            t_force = float(np.sum(force_density)) * dxd
            gross += float(np.sum(np.abs(force_density)))
        g_dt.append(t_dt)
        g_flux.append(t_flux)
        g_press.append(t_press)
        g_force.append(t_force)
        g_euler.append(t_dt + t_flux + t_press + t_force)
        u_h = grid.rfft(m / rho_floor)
        grad_h = np.empty((d, d) + grid.half_shape, dtype=np.complex128)
        for axis in range(d):
            np.multiply(ik[axis], u_h, out=grad_h[:, axis])
        grad_u = grid.irfft(grad_h)
        div_u = np.einsum("aa...->...", grad_u)
        sym = 0.5 * (grad_u + np.swapaxes(grad_u, 0, 1))
        sigma = 2.0 * params.mu * np.einsum("ab...,ab...->...", sym, gphi) + params.lam * div_u * dphi
        g_visc.append(float(np.sum(sigma)) * dxd)
        g_gross.append((gross + float(np.sum(np.abs(sigma)))) * dxd)
        grad_u_sq.append(float(np.sum(grad_u**2)) * dxd)
        div_u_sq.append(float(np.sum(div_u**2)) * dxd)
        grad_phi_sq.append(float(np.sum(gphi**2)) * dxd)
        div_phi_sq.append(float(np.sum(dphi**2)) * dxd)

    def trap(g):
        return float(np.trapezoid(np.array(g), x=times))

    data = float(np.sum(m0.values * (phi.bump(0.0) * phi.space))) * dxd
    data_gross = float(np.sum(np.abs(m0.values * (phi.bump(0.0) * phi.space)))) * dxd
    euler = trap(g_euler) + data
    visc = trap(g_visc)
    scale = abs(data) + sum(trap(np.abs(np.array(g))) for g in (g_dt, g_flux, g_press, g_force))
    l2 = [math.sqrt(max(trap(g), 0.0)) for g in (grad_u_sq, div_u_sq, grad_phi_sq, div_phi_sq)]
    return MomentumResidual(
        euler_residual=euler,
        viscous_term=visc,
        ns_residual=euler - visc,
        viscous_bound=2.0 * params.mu * l2[0] * l2[2] + abs(params.lam) * l2[1] * l2[3],
        quadrature_scale=scale,
        quadrature_uncertainty=_trapezoid_refinement_gap(times, (g_euler, g_visc), scale),
        roundoff_scale=data_gross + trap(g_gross),
    )


# ---------------------------------------------------------------- series


def _forcing(d):
    terms = [((0.3,) + (0.0,) * (d - 1), (1,) + (0,) * (d - 1), 0.3)]
    if d > 1:
        terms.append(((0.0, 0.2) + (0.0,) * (d - 2), (0, 2) + (1,) * (d - 2), -0.5))
    return ForcingSpec(mode="trig", terms=tuple(terms), envelope="cos", rate=2.0)


CASES = [(d, forced) for d in (1, 2, 3) for forced in (False, True)]


@pytest.fixture(scope="module", params=CASES, ids=[f"{d}d-{'forced' if f else 'free'}" for d, f in CASES])
def case(request):
    d, forced = request.param
    n = {1: 32, 2: 16, 3: 8}[d]
    grid = make_grid(d, n, TWO_PI)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=0.02, forcing=_forcing(d) if forced else ForcingSpec())
    initial = preset_ic("random-band", grid, params, seed=40 + d, amplitude=0.6)
    result = run(initial, params, T=0.4, snapshots=12)
    return result.series, params


def _close(got, want, rel=REL):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want))) <= rel * float(np.max(np.abs(want)))


# ----------------------------------------------------------------- tests


class TestSpectralPass:
    def test_shell_rows_counts_and_integrals(self, case):
        series, params = case
        energy, raw, counts = reference_spectrum_rows(series, params)
        spec = time_integrated_spectrum(series, params)
        assert np.array_equal(spec.counts, counts)
        for got, want in zip(spec.energy, energy):
            assert _close(got, want)
        for got, want in zip(spec.raw, raw):
            assert _close(got, want)
        assert _close(spec.integrated_energy, np.trapezoid(energy, x=series.times, axis=0))
        assert _close(spec.integrated_raw, np.trapezoid(raw, x=series.times, axis=0))
        one = shell_spectrum(series[-1], params)
        assert np.array_equal(one.counts, counts)
        assert _close(one.energy, energy[-1]) and _close(one.raw, raw[-1])

    def test_mode_power_is_the_full_lattice_integral(self, case):
        series, params = case
        grid = series.grid
        spec = time_integrated_spectrum(series, params)
        full = reference_mode_power(series, params)
        h = grid.n // 2 + 1
        assert _close(spec.mode_power, full[..., :h])
        total = float(np.sum(grid.parseval_weight * spec.mode_power))
        assert math.isclose(total, float(np.sum(full)), rel_tol=REL)

    @pytest.mark.parametrize("beta,k_star", [(2.0 / 3.0, 1), (1.0, 2)])
    def test_ckhw_matches_reference(self, case, beta, k_star):
        series, params = case
        value, per_mode = reference_ckhw(series, params, beta, k_star)
        det = ckhw_from_spectrum(time_integrated_spectrum(series, params), beta, k_star)
        assert math.isclose(det.value, value, rel_tol=REL)
        assert math.isclose(det.per_mode_sup, per_mode, rel_tol=REL)
        assert ckhw_statistic(series, params, beta, k_star) == det.value

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_sobolev_matches_reference(self, case, alpha):
        series, params = case
        want = reference_sobolev(series, params, alpha)
        assert math.isclose(fractional_sobolev_norm(series, params, alpha), want, rel_tol=REL)
        spec = time_integrated_spectrum(series, params)
        assert math.isclose(sobolev_norm_from_spectrum(spec, alpha), want, rel_tol=REL)


class TestWeakFormPass:
    def test_mass_matches_per_function_sweeps(self, case):
        series, params = case
        scalars = default_test_functions(series.grid, float(series.times[-1]))
        weak = weak_residuals(series, params, scalars=scalars)
        assert weak.momentum == ()
        for phi, got in zip(scalars, weak.mass):
            residual, scale, gross = reference_mass(series, phi, series[0].rho)
            assert abs(got[0] - residual) <= REL * gross
            assert math.isclose(got[1], scale, rel_tol=REL)
            assert math.isclose(got[2], gross, rel_tol=REL)
            assert weak_residuals(series, None, scalars=(phi,)).mass[0] == got

    def test_momentum_matches_per_function_sweeps(self, case):
        series, params = case
        vectors = default_test_functions(series.grid, float(series.times[-1]), vector=True)
        weak = weak_residuals(series, params, vectors=vectors)
        for phi, got in zip(vectors, weak.momentum):
            want = reference_momentum(series, params, phi, series[0].m)
            gross = want.roundoff_scale
            for name in ("euler_residual", "viscous_term", "ns_residual"):
                assert abs(getattr(got, name) - getattr(want, name)) <= REL * gross, name
            for name in ("viscous_bound", "quadrature_scale", "roundoff_scale"):
                assert math.isclose(getattr(got, name), getattr(want, name), rel_tol=REL), name
            # a refinement gap of the same integrals, so it carries their error
            gap = abs(got.quadrature_uncertainty - want.quadrature_uncertainty)
            assert gap <= REL * gross
            assert weak_residual_momentum(series, params, phi, series[0].m) == got

    def test_one_pass_equals_separate_calls(self, case):
        series, params = case
        T = float(series.times[-1])
        scalars = default_test_functions(series.grid, T)
        vectors = default_test_functions(series.grid, T, vector=True)
        weak = weak_residuals(series, params, scalars, vectors)
        assert weak.mass == tuple(
            weak_residuals(series, None, scalars=(phi,)).mass[0] for phi in scalars
        )
        assert weak.momentum == tuple(
            weak_residual_momentum(series, params, phi, series[0].m) for phi in vectors
        )
        ns = max(abs(r.ns_residual) for r in weak.momentum)
        assert weak.ns_max_rel == ns / max(r.roundoff_scale for r in weak.momentum)
