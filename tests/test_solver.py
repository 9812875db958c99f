"""Solver physics: RHS correctness, conservation, ledger closure, accuracy."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from baroflow.fields import Field, dft_forward, make_grid
from baroflow.solver import (
    BlowUpError,
    FluidParams,
    ForcingSpec,
    MassDriftError,
    SnapshotSeries,
    State,
    _Stepper,
    block_pass,
    _check_alive,
    _fields,
    cfl_dt,
    preset_ic,
    rhs,
    run,
    sonic_speed,
    step,
    total_energy,
)

TWO_PI = 2.0 * np.pi


def state_from(grid, rho, m, t=0.0):
    return State(t=t, rho=Field(grid=grid, values=rho), m=Field(grid=grid, values=m))


def l2_err(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def reference_rhs(rho, m, t, grid, params, lattice):
    """Complex-FFT right-hand side on the full lattice (the conftest
    full_lattice formulas of grid), with the pressure transformed on its
    own and the forcing sampled at time t: the reference the
    real-transform core must reproduce."""
    axes, ik, keep = grid.spatial_axes(), lattice.ik, lattice.dealias
    d = grid.d
    k2 = lattice.k2  # Nyquist included
    u = m / np.maximum(rho, params.rho_min)
    p = params.kappa * np.maximum(rho, 0.0) ** params.gamma
    m_h = np.fft.fftn(m, axes=axes)
    u_h = np.fft.fftn(u, axes=axes)
    p_h = np.fft.fftn(p)
    drho_h = np.zeros(grid.shape, dtype=np.complex128)
    div_u_h = np.zeros(grid.shape, dtype=np.complex128)
    for a in range(d):
        drho_h -= ik[a] * m_h[a]
        div_u_h += ik[a] * u_h[a]
    dm_h = np.empty((d,) + grid.shape, dtype=np.complex128)
    for a in range(d):
        acc = -ik[a] * p_h - params.mu * k2 * u_h[a] + (params.mu + params.lam) * ik[a] * div_u_h
        for b in range(d):
            acc = acc - ik[b] * np.fft.fftn(m[a] * u[b])
        dm_h[a] = acc
    work_rate = 0.0
    if params.forcing.active:
        f_phys = params.forcing.spatial(grid) * params.forcing.envelope_at(t)
        dm_h += np.fft.fftn(rho * f_phys, axes=axes)
        work_rate = float(np.sum(m * f_phys)) * grid.dx**d
    drho = np.real(np.fft.ifftn(drho_h * keep))
    dm = np.real(np.fft.ifftn(dm_h * keep, axes=axes))
    par = grid.dx**d / float(grid.n**d)
    grad_sq = float(np.sum(k2 * np.sum(np.abs(u_h) ** 2, axis=0))) * par
    div_sq = float(np.sum(np.abs(div_u_h) ** 2)) * par
    diss_rate = params.mu * grad_sq + (params.mu + params.lam) * div_sq
    return drho, dm, diss_rate, work_rate


def physical_rhs_core(rho, m, t, grid, params, force_xy, extra_source=None, want_rates=False):
    """The physical-state RHS the coefficient-space stepper replaced: it
    transforms m and rho*f forward and the dealiased increments back."""
    ik, k2 = grid.ik_half, grid.k2_half
    d = grid.d
    u = params.velocity(rho, m)
    p = params.pressure(rho)
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    flux = np.empty((len(pairs),) + grid.shape)
    for i, (a, b) in enumerate(pairs):
        np.multiply(m[a], u[b], out=flux[i])
        if a == b:
            flux[i] += p
    slot = {pair: i for i, pair in enumerate(pairs)}
    m_h = grid.rfft(m)
    u_h = grid.rfft(u)
    flux_h = grid.rfft(flux)
    div_u_h = ik[0] * u_h[0]
    for a in range(1, d):
        div_u_h += ik[a] * u_h[a]
    out_h = np.empty((d + 1,) + grid.half_shape, dtype=np.complex128)
    out_h[0] = -ik[0] * m_h[0]
    for a in range(1, d):
        out_h[0] -= ik[a] * m_h[a]
    for a in range(d):
        acc = (params.mu + params.lam) * ik[a] * div_u_h - params.mu * k2 * u_h[a]
        for b in range(d):
            acc -= ik[b] * flux_h[slot[(min(a, b), max(a, b))]]
        out_h[1 + a] = acc
    work_rate = 0.0
    if params.forcing.active:
        f_phys = force_xy * params.forcing.envelope_at(t)
        out_h[1:] += grid.rfft(rho * f_phys)
        if want_rates:
            work_rate = float(np.sum(m * f_phys)) * grid.dx**d
    out_h *= grid.dealias_half
    out = grid.irfft(out_h)
    drho, dm = out[0], out[1:]
    if extra_source is not None:
        s_rho, s_m = extra_source(t, rho, m)
        drho = drho + s_rho
        dm = dm + s_m
    if not want_rates:
        return drho, dm, 0.0, 0.0
    grad_sq = grid.parseval(k2 * np.abs(u_h) ** 2)
    div_sq = grid.parseval(np.abs(div_u_h) ** 2)
    diss_rate = params.mu * grad_sq + (params.mu + params.lam) * div_sq
    return drho, dm, diss_rate, work_rate


def batched_flux_rhs(grid, params, state_h, state, t, extra_source=None, ledger=False):
    """_Stepper.rhs as it was when it formed all d(d+1)/2 flux fields first
    and transformed them in one batch, each operation as it was, into
    fresh arrays: (out, dissipation rate, work rate)."""
    ik, d = grid.ik_half, grid.d
    rho, m = state[0], state[1:]
    u = params.velocity(rho, m)
    p = params.pressure(rho)
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    slot = {pair: i for i, pair in enumerate(pairs)}
    flux = np.empty((len(pairs),) + grid.shape)
    for i, (a, b) in enumerate(pairs):
        np.multiply(m[a], u[b], out=flux[i])
        if a == b:
            flux[i] += p
    u_h, flux_h = grid.rfft(u), grid.rfft(flux)
    div_u_h = ik[0] * u_h[0]
    for a in range(1, d):
        div_u_h += ik[a] * u_h[a]
    out = np.empty_like(state_h)
    out[0] = -ik[0] * state_h[1]
    for a in range(1, d):
        out[0] -= ik[a] * state_h[1 + a]
    for a in range(d):
        acc = out[1 + a]
        acc[...] = (params.mu + params.lam) * ik[a] * div_u_h
        acc -= (params.mu * grid.k2_half) * u_h[a]
        for b in range(d):
            acc -= ik[b] * flux_h[slot[(min(a, b), max(a, b))]]
    grid.dealias(out)  # the mask multiply's zeros keep its products' signs
    work_rate = 0.0
    forcing = params.forcing
    if forcing.active:
        targets, shift = grid.trig_shift(grid.dealiased_terms(forcing.terms), d)
        moved = shift(state_h[0])
        moved *= forcing.envelope_at(t)
        np.add.at(out[1:].reshape(-1), targets, moved)
        if ledger:
            # the sum of m_a f over the grid is the mean mode of rfft(m_a f)
            mean = grid.trig_shift(forcing.terms, d, modes=np.zeros(1, np.intp))[1]
            work = sum(float(mean(state_h[1 + a])[a].real) for a in range(d))
            work_rate = forcing.envelope_at(t) * work * grid.dx**d
    if extra_source is not None:
        source = np.empty_like(state)
        source[0], source[1:] = extra_source(t, rho, m)
        out += grid.rfft(source)
    if not ledger:
        return out, 0.0, 0.0
    scale = grid.dx**d / float(grid.n**d)
    k2_weight = (grid.k2_half * grid.parseval_weight).ravel()
    power = (np.square(u_h.real) + np.square(u_h.imag)).reshape(d, -1)
    grad_sq = float(np.einsum("ij,j->", power, k2_weight)) * scale
    power = (np.square(div_u_h.real) + np.square(div_u_h.imag)).reshape(-1, grid.half_shape[-1])
    div_sq = float(np.einsum("ij,j->", power, grid.parseval_weight)) * scale
    return out, params.mu * grad_sq + (params.mu + params.lam) * div_sq, work_rate


def physical_advance(rho, m, t, dt, grid, params, force_xy, extra_source=None, with_ledger=False):
    """The physical-state RK4 step: (rho', m', dD, dW)."""
    extra = (force_xy, extra_source, with_ledger)
    k1r, k1m, d1, w1 = physical_rhs_core(rho, m, t, grid, params, *extra)
    k2r, k2m, d2, w2 = physical_rhs_core(
        rho + 0.5 * dt * k1r, m + 0.5 * dt * k1m, t + 0.5 * dt, grid, params, *extra
    )
    k3r, k3m, d3, w3 = physical_rhs_core(
        rho + 0.5 * dt * k2r, m + 0.5 * dt * k2m, t + 0.5 * dt, grid, params, *extra
    )
    k4r, k4m, d4, w4 = physical_rhs_core(rho + dt * k3r, m + dt * k3m, t + dt, grid, params, *extra)
    sixth = dt / 6.0
    rho_new = rho + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    m_new = m + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    dD = sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    dW = sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
    return rho_new, m_new, dD, dW


def two_term_forcing(d, envelope="cos", rate=2.0):
    terms = [((0.05,) + (0.0,) * (d - 1), (1,) + (0,) * (d - 1), 0.3)]
    if d > 1:
        terms.append(((0.0, 0.04) + (0.0,) * (d - 2), (0, 2) + (1,) * (d - 2), -0.5))
    return ForcingSpec(mode="trig", terms=tuple(terms), envelope=envelope, rate=rate)


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


class TestParams:
    def test_lambda_defaults_to_minus_two_thirds_mu(self):
        p = FluidParams(mu=3e-3)
        assert p.lam == pytest.approx(-2e-3)
        assert p.lam + 2 * p.mu > 0

    def test_explicit_lambda_accepted(self):
        p = FluidParams(mu=1e-3, lam=0.5e-3)
        assert p.lam == pytest.approx(0.5e-3)

    def test_lam_plus_two_mu_must_be_positive(self):
        with pytest.raises(ValueError, match="lam"):
            FluidParams(mu=1e-3, lam=-2e-3)

    def test_inviscid_reference_mode(self):
        p = FluidParams(mu=0.0)
        assert p.lam == 0.0
        with pytest.raises(ValueError, match="inviscid"):
            FluidParams(mu=0.0, lam=1e-4)

    def test_gamma_and_kappa_validated(self):
        with pytest.raises(ValueError, match="gamma"):
            FluidParams(gamma=1.0)
        with pytest.raises(ValueError, match="kappa"):
            FluidParams(kappa=0.0)

    def test_pressure_and_sonic_values(self):
        p = FluidParams(gamma=2.0, kappa=1.0, mu=1e-3)
        assert p.pressure(np.array(4.0)) == pytest.approx(16.0)
        assert sonic_speed(np.array(4.0), p) == pytest.approx(2.0)

    def test_forcing_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ForcingSpec(mode="white-noise")
        with pytest.raises(ValueError, match="term"):
            ForcingSpec(mode="trig")

    def test_an_exp_envelope_that_overflows_is_a_blow_up(self):
        forcing = ForcingSpec(mode="trig", terms=(((0.1,), (1,), 0.0),), envelope="exp", rate=-1e7)
        assert forcing.envelope_at(0.0) == 1.0
        with pytest.raises(BlowUpError, match=r"forcing envelope exp\(-rate \* t\) overflows at t = 0.001$") as info:
            forcing.envelope_at(1e-3)
        assert info.value.t == 1e-3


class TestRhs:
    def test_equilibrium_is_stationary(self):
        """Constant density at rest has an identically zero derivative."""
        for d in (1, 2, 3):
            g = make_grid(d, 8, TWO_PI)
            st = preset_ic("equilibrium", g, FluidParams())
            drho, dm = rhs(st, FluidParams())
            assert np.max(np.abs(drho.values)) < 1e-13
            assert np.max(np.abs(dm.values)) < 1e-13

    def test_pressure_gradient_closed_form(self):
        """At rest the momentum derivative is exactly -grad p(rho)."""
        g = make_grid(1, 64, TWO_PI)
        (x,) = g.axes_coordinates()
        eps, gamma, kappa = 0.1, 1.4, 1.7
        rho = 1.0 + eps * np.cos(x)
        st = state_from(g, rho, np.zeros((1,) + g.shape))
        params = FluidParams(gamma=gamma, kappa=kappa, mu=0.0)
        drho, dm = rhs(st, params)
        expect = kappa * gamma * (1.0 + eps * np.cos(x)) ** (gamma - 1.0) * eps * np.sin(x)
        assert np.max(np.abs(drho.values)) < 1e-13
        assert np.max(np.abs(dm.values[0] - expect)) < 1e-12

    def test_linearized_acoustics(self):
        """Small pulses obey d_t m = kappa*gamma*eps*sin(x) + O(eps^2)."""
        g = make_grid(1, 32, TWO_PI)
        (x,) = g.axes_coordinates()
        eps, gamma, kappa = 1e-4, 1.4, 1.0
        st = state_from(g, 1.0 + eps * np.cos(x), np.zeros((1,) + g.shape))
        _, dm = rhs(st, FluidParams(gamma=gamma, kappa=kappa, mu=0.0))
        lin = kappa * gamma * eps * np.sin(x)
        assert np.max(np.abs(dm.values[0] - lin)) < 3.0 * kappa * gamma * (gamma - 1.0) * eps**2

    def test_mass_flux_mean_free(self):
        """The density derivative is a divergence, so its mean vanishes."""
        rng = np.random.default_rng(2)
        g = make_grid(2, 16, 3.0)
        rho = 1.0 + 0.3 * rng.random(g.shape)
        m = rng.standard_normal((2,) + g.shape)
        drho, dm = rhs(state_from(g, rho, m), FluidParams(mu=2e-3))
        assert abs(np.mean(drho.values)) < 1e-15
        assert np.max(np.abs(np.mean(dm.values, axis=(1, 2)))) < 1e-15

    def test_viscous_term_single_mode(self):
        """For u = sin(x) e_x at rho = 1, div Sigma = -(2 mu + lam) sin(x)."""
        g = make_grid(1, 32, TWO_PI)
        (x,) = g.axes_coordinates()
        mu, lam = 2e-3, -1e-3
        u = np.sin(x)[None]
        st = state_from(g, np.ones(g.shape), u.copy())
        params = FluidParams(mu=mu, lam=lam, kappa=1.0, gamma=1.4)
        _, dm = rhs(st, params)
        # remove the inviscid part by differencing against mu = 0
        _, dm0 = rhs(st, FluidParams(mu=0.0, kappa=1.0, gamma=1.4))
        visc = dm.values[0] - dm0.values[0]
        assert np.max(np.abs(visc + (2 * mu + lam) * np.sin(x))) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("forced", [False, True])
    def test_matches_complex_fft_reference(self, full_lattice, d, forced):
        """The half-lattice core agrees with the full-lattice complex-FFT
        form to round-off, ledger rates included."""
        n = 12 if d == 3 else 16
        g = make_grid(d, n, TWO_PI)
        params = FluidParams(mu=0.05, forcing=two_term_forcing(d) if forced else ForcingSpec())
        st = preset_ic("random-band", g, params, seed=3 + d, amplitude=1.0)
        fields, t = _fields(st), 0.7
        stepper = _Stepper(g, params, ledger=True)
        out_h, diss, work = stepper.rhs(g.rfft(fields), fields, t, stepper.k)
        out = g.irfft(out_h)
        got = (out[0], out[1:], diss, work)
        want = reference_rhs(st.rho.values, st.m.values, t, g, params, full_lattice(g))
        for a, b in zip(got[:2], want[:2]):
            assert float(np.max(np.abs(a - b))) <= 1e-12 * float(np.max(np.abs(b)))
        assert want[2] > 0
        for a, b in zip(got[2:], want[2:]):
            assert abs(a - b) <= 1e-12 * abs(b)
        if forced:
            assert want[3] != 0.0


class TestCfl:
    def test_rest_state_sonic_limit(self):
        g = make_grid(2, 32, TWO_PI)
        st = preset_ic("equilibrium", g, FluidParams())
        params = FluidParams(gamma=1.4, kappa=1.0, mu=0.0)
        got = cfl_dt(st, params, cfl=0.4)
        assert got == pytest.approx(0.4 * g.dx / math.sqrt(1.4))

    def test_viscous_limit_engages_for_large_mu(self):
        g = make_grid(2, 32, TWO_PI)
        st = preset_ic("equilibrium", g, FluidParams())
        params = FluidParams(mu=5.0, kappa=1.0, gamma=1.4)
        visc = 2 * params.mu + abs(params.lam)
        expect = 0.4 * g.dx**2 / (2 * g.d * visc)
        assert cfl_dt(st, params) == pytest.approx(expect)

    def test_bad_cfl_rejected(self):
        g = make_grid(1, 8, 1.0)
        st = preset_ic("equilibrium", g, FluidParams())
        with pytest.raises(ValueError, match="cfl"):
            cfl_dt(st, FluidParams(), cfl=0.0)


class TestStep:
    def test_equilibrium_fixed_point(self):
        g = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=1e-3)
        st = preset_ic("equilibrium", g, params)
        for _ in range(5):
            st = step(st, params, 0.01)
        assert np.max(np.abs(st.rho.values - 1.0)) < 1e-14
        assert np.max(np.abs(st.m.values)) < 1e-14

    def test_mass_conserved_per_step(self):
        g = make_grid(2, 24, TWO_PI)
        params = FluidParams(mu=1e-3)
        st = preset_ic("random-band", g, params, seed=5, amplitude=0.5)
        mass0 = np.mean(st.rho.values)
        st = step(st, params, 5e-3)
        assert abs(np.mean(st.rho.values) - mass0) < 1e-12 * abs(mass0)

    def test_one_step_error_is_fifth_order(self):
        """Halving dt shrinks the local error by about 2^5."""
        g = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=1e-3, gamma=1.4, kappa=1.0)
        st0 = preset_ic("taylor-green", g, params)
        dt = 0.08

        def err(h, substeps_exact=64):
            coarse = step(st0, params, h)
            fine = st0
            for _ in range(substeps_exact):
                fine = step(fine, params, h / substeps_exact)
            return l2_err(coarse.m.values, fine.m.values)

        ratio = err(dt) / err(dt / 2)
        assert 22.0 < ratio < 44.0

    def test_blow_up_detected(self):
        """A violently supersonic state leaves the representable regime."""
        g = make_grid(1, 16, TWO_PI)
        params = FluidParams(mu=1e-6, kappa=1.0, gamma=1.4)
        st = preset_ic("random-band", g, params, seed=0, amplitude=1e3)
        with pytest.raises(BlowUpError):
            for _ in range(2000):
                st = step(st, params, 5e-3)

    def test_vacuum_breakdown_raises_blow_up(self):
        """Density crossing zero is a solution failure, not a crash."""
        g = make_grid(1, 32, TWO_PI)
        params = FluidParams(gamma=1.4, kappa=1.0, mu=0.3)
        st = preset_ic("random-band", g, params, seed=7, amplitude=8.0)
        with pytest.raises(BlowUpError, match="positivity"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run(st, params, T=0.5, snapshots=4)

    def test_mass_drift_is_a_named_blow_up(self):
        g = make_grid(1, 16, TWO_PI)
        params = FluidParams(mu=1e-2)

        def inject_mass(t, rho, m):
            return np.full_like(rho, 1e-3), np.zeros_like(m)

        st = preset_ic("acoustic-pulse", g, params)
        with pytest.raises(MassDriftError, match="mass drifted") as info:
            run(st, params, T=0.1, snapshots=2, extra_source=inject_mass)
        assert isinstance(info.value, BlowUpError)
        assert info.value.t == pytest.approx(0.1)

    def test_invalid_dt(self):
        g = make_grid(1, 8, 1.0)
        st = preset_ic("equilibrium", g, FluidParams())
        with pytest.raises(ValueError, match="dt"):
            step(st, FluidParams(), -1.0)


class TestRun:
    def test_snapshot_times_uniform_and_exact(self):
        g = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=1e-3)
        res = run(preset_ic("taylor-green", g, params), params, T=0.2, snapshots=4)
        times = res.series.times
        assert len(times) == 5
        spacing = np.diff(times)
        assert np.max(np.abs(spacing - 0.05)) < 1e-12
        assert res.dt * res.steps_per_snapshot == pytest.approx(0.05, rel=1e-15)

    def test_energy_ledger_closes_on_taylor_green(self):
        """E + D - E0 - W stays below 1e-6 * E0 for a resolved vortex."""
        g = make_grid(2, 64, TWO_PI)
        params = FluidParams(mu=1e-2, gamma=1.4, kappa=1.0)
        res = run(preset_ic("taylor-green", g, params), params, T=1.0, snapshots=8)
        rep = res.report
        assert np.max(np.abs(rep.R)) <= 1e-6 * rep.E0
        assert np.all(np.diff(rep.D) >= 0)
        assert rep.M_T >= rep.E0 - 1e-12 * rep.E0

    def test_dissipation_strictly_positive_for_vortex(self):
        g = make_grid(2, 32, TWO_PI)
        params = FluidParams(mu=5e-3)
        res = run(preset_ic("taylor-green", g, params), params, T=0.5, snapshots=4)
        assert res.report.D[-1] > 0
        assert res.report.E[-1] < res.report.E0

    def test_forcing_work_matches_quadrature(self):
        """Ledger W agrees with a trapezoid of int m.f over the snapshots."""
        g = make_grid(2, 32, TWO_PI)
        forcing = ForcingSpec(mode="trig", terms=(((0.05, 0.0), (1, 0), 0.0),))
        params = FluidParams(mu=1e-3, forcing=forcing)
        res = run(preset_ic("equilibrium", g, params), params, T=1.0, snapshots=100)
        rates = []
        for st in res.series:
            f = forcing.spatial(g) * forcing.envelope_at(st.t)
            rates.append(float(np.sum(st.m.values * f)) * g.dx**g.d)
        w_quad = np.concatenate([[0.0], np.cumsum((np.array(rates[:-1]) + np.array(rates[1:])) / 2 * np.diff(res.series.times))])
        scale = max(abs(res.report.W[-1]), 1e-30)
        assert abs(res.report.W[-1] - w_quad[-1]) < 2e-4 * scale
        assert res.report.W[-1] > 0

    def test_momentum_conserved_without_forcing(self):
        g = make_grid(2, 32, TWO_PI)
        params = FluidParams(mu=2e-3)
        st0 = preset_ic("random-band", g, params, seed=9, amplitude=0.4)
        res = run(st0, params, T=0.5, snapshots=4)
        p0 = np.sum(st0.m.values, axis=(1, 2))
        p1 = np.sum(res.series[-1].m.values, axis=(1, 2))
        assert np.max(np.abs(p1 - p0)) < 1e-10 * max(1.0, np.max(np.abs(p0)))

    def test_inviscid_warns(self):
        g = make_grid(1, 16, TWO_PI)
        params = FluidParams(mu=0.0)
        with pytest.warns(RuntimeWarning, match="inviscid"):
            run(preset_ic("acoustic-pulse", g, params), params, T=0.05, snapshots=1)

    def test_galilean_boost_commutes_with_evolution(self):
        """Evolving a boosted state equals boosting and lattice-shifting."""
        g = make_grid(1, 64, TWO_PI)
        (x,) = g.axes_coordinates()
        params = FluidParams(mu=0.0, gamma=1.4, kappa=1.0)
        rho0 = 1.0 + 0.2 * np.cos(x)
        u0 = 0.1 * np.sin(x)
        T, shift_cells = 0.5, 5
        U = shift_cells * g.dx / T  # boost crosses a whole number of cells

        def advance(rho, u):
            st = state_from(g, rho, (rho * u)[None])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = run(st, params, T=T, snapshots=1, cfl=0.05)
            return res.series[-1]

        plain = advance(rho0, u0)
        boosted = advance(rho0, u0 + U)
        # boosted solution samples the plain one at x - U*t, a +shift roll
        rolled_rho = np.roll(plain.rho.values, shift_cells)
        rolled_m = np.roll(plain.rho.values * (plain.m.values[0] / plain.rho.values + U), shift_cells)
        assert np.max(np.abs(boosted.rho.values - rolled_rho)) < 1e-6
        assert np.max(np.abs(boosted.m.values[0] - rolled_m)) < 1e-6

    def test_bad_horizon(self):
        g = make_grid(1, 8, 1.0)
        st = preset_ic("equilibrium", g, FluidParams())
        with pytest.raises(ValueError, match="horizon"):
            run(st, FluidParams(), T=-1.0)

    @staticmethod
    def recorder(count, calls):
        """A collecting pass that logs what run asks of it in calls."""
        states = []
        try:
            for _ in range(count):
                st = yield
                calls.append(("send", st.t))
                states.append(st)
        except GeneratorExit:
            calls.append(("close", len(states)))
            raise
        calls.append(("answer",))
        yield SnapshotSeries(states=tuple(states))

    def test_each_snapshot_goes_to_the_store_in_order(self):
        g = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=1e-2, forcing=ForcingSpec(mode="trig", terms=(((0.05, 0.0), (1, 0), 0.0),)))
        st = preset_ic("random-band", g, params, seed=4, amplitude=0.3)
        calls = []
        res = run(st, params, T=0.1, snapshots=4, store=self.recorder(5, calls))
        plain = run(st, params, T=0.1, snapshots=4)
        assert calls == [("send", t) for t in plain.series.times] + [("answer",)]
        assert res.series.states[0] is st
        for a, b in zip(res.series, plain.series):
            assert np.array_equal(a.rho.values, b.rho.values) and np.array_equal(a.m.values, b.m.values)
        for name in ("t", "E", "D", "W", "R"):
            assert np.array_equal(getattr(res.report, name), getattr(plain.report, name))

    @pytest.mark.parametrize("failure", ["blow-up", "mass drift"])
    def test_a_run_that_raises_discards_its_snapshots(self, failure):
        # the pass is closed before it answers: the mass check comes before
        # the last snapshot is sent
        g = make_grid(1, 16, TWO_PI)
        params = FluidParams(mu=1e-2)
        value = np.nan if failure == "blow-up" else 1e-3

        def source(t, rho, m):
            return np.full_like(rho, value if t > 0.027 else 0.0), np.zeros_like(m)

        calls = []
        with pytest.raises(BlowUpError):
            run(preset_ic("acoustic-pulse", g, params), params, T=0.1, snapshots=2, dt_cap=0.01,
                extra_source=source, store=self.recorder(3, calls))
        sends = 1 if failure == "blow-up" else 2  # the drift shows only at the end
        assert [call[0] for call in calls] == ["send"] * sends + ["close"]
        assert calls[-1] == ("close", sends)


class TestCopyFreeStates:
    @pytest.mark.parametrize("store", ["collect", "block"])
    def test_the_states_are_read_only_and_equal_a_copying_build(self, store):
        # run's States and a BlockSeries' rebuilt ones take the solver's fresh
        # arrays without a copy; the public constructor's copies equal them
        grid = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=0.02)
        initial = preset_ic("random-band", grid, params, seed=3, amplitude=0.5)
        series = run(initial, params, 0.2, snapshots=4, store=block_pass(5) if store == "block" else None).series
        for st in list(series)[1:]:
            assert st.rho.values.base is not None and st.rho.values.base is st.m.values.base  # one array, not copies
            copied = State(t=st.t, rho=Field(grid=grid, values=st.rho.values), m=Field(grid=grid, values=st.m.values))
            for mine, theirs in ((st.rho, copied.rho), (st.m, copied.m)):
                assert not np.shares_memory(mine.values, theirs.values)
                assert mine.values.tobytes() == theirs.values.tobytes() and mine.values.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    mine.values[...] = 0.0


class TestManufacturedSolution:
    """Traveling-wave solution with a symbolic momentum source."""

    @staticmethod
    def build(mu, gamma, kappa):
        import sympy as sp

        x, t = sp.symbols("x t", real=True)
        c, A = 1.0, 0.15
        rho = 1 + sp.Rational(1, 5) * sp.sin(x - c * t)
        u = c + A / rho  # makes d_t rho + d_x (rho u) vanish identically
        m = rho * u
        lam = -(2.0 / 3.0) * mu
        p = kappa * rho**gamma
        sigma = (2 * mu + lam) * sp.diff(u, x)
        source = sp.diff(m, t) + sp.diff(m * u, x) + sp.diff(p, x) - sp.diff(sigma, x)
        mass_check = sp.simplify(sp.diff(rho, t) + sp.diff(m, x))
        assert mass_check == 0
        return (
            sp.lambdify((t, x), rho, "numpy"),
            sp.lambdify((t, x), m, "numpy"),
            sp.lambdify((t, x), source, "numpy"),
        )

    def test_temporal_convergence_is_fourth_order(self):
        mu, gamma, kappa = 2e-3, 1.4, 1.0
        rho_fn, m_fn, src_fn = self.build(mu, gamma, kappa)
        g = make_grid(1, 64, TWO_PI)
        (x,) = g.axes_coordinates()
        params = FluidParams(mu=mu, gamma=gamma, kappa=kappa)
        T = 0.5

        def extra_source(tt, rho, m):
            return np.zeros_like(rho), src_fn(tt, x)[None]

        errors = []
        dts = [0.02, 0.01, 0.005]
        for dt in dts:
            st = state_from(g, rho_fn(0.0, x), m_fn(0.0, x)[None])
            for k in range(round(T / dt)):
                st = step(st, params, dt, extra_source=extra_source)
            errors.append(l2_err(st.m.values[0], m_fn(T, x)) + l2_err(st.rho.values, rho_fn(T, x)))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope > 3.8
        assert slope < 4.5


class TestPresets:
    def test_taylor_green_divergence_free(self, full_lattice):
        for d in (2, 3):
            g = make_grid(d, 16, TWO_PI)
            st = preset_ic("taylor-green", g, FluidParams())
            u_hat = dft_forward(st.m).coefficients  # rho = 1 so m = u
            div = np.zeros(g.shape, dtype=complex)
            for a in range(d):
                div += full_lattice(g).k[a] * u_hat[a]
            assert np.max(np.abs(div)) < 1e-13

    def test_taylor_green_needs_two_dimensions(self):
        g = make_grid(1, 16, TWO_PI)
        with pytest.raises(ValueError, match="d >= 2"):
            preset_ic("taylor-green", g, FluidParams())

    def test_acoustic_pulse_positive_density(self):
        g = make_grid(3, 8, 1.0)
        st = preset_ic("acoustic-pulse", g, FluidParams(), amplitude=2.0)
        assert np.min(st.rho.values) > 0
        assert np.max(np.abs(st.m.values)) == 0

    def test_random_band_confinement_and_determinism(self):
        g = make_grid(2, 32, TWO_PI)
        a = preset_ic("random-band", g, FluidParams(), seed=42)
        b = preset_ic("random-band", g, FluidParams(), seed=42)
        c = preset_ic("random-band", g, FluidParams(), seed=43)
        assert np.array_equal(a.rho.values, b.rho.values)
        assert np.array_equal(a.m.values, b.m.values)
        assert not np.array_equal(a.m.values, c.m.values)
        coef = dft_forward(a.rho).coefficients
        outside = g.mode_norm > g.n / 8.0
        assert np.max(np.abs(coef[outside])) < 1e-15

    def test_random_band_needs_a_seed(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(ValueError, match="random-band needs a seed"):
            preset_ic("random-band", g, FluidParams())

    @pytest.mark.parametrize("name,d", [("equilibrium", 1), ("taylor-green", 2), ("acoustic-pulse", 1)])
    def test_a_seed_is_rejected_by_the_other_presets(self, name, d):
        g = make_grid(d, 8, 1.0)
        with pytest.raises(ValueError, match=f"{name} takes no seed"):
            preset_ic(name, g, FluidParams(), seed=3)

    def test_unknown_preset(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(ValueError, match="preset"):
            preset_ic("vortex-sheet", g, FluidParams())

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
    def test_total_energy_is_the_whole_field_expression(self, d, n):
        g = make_grid(d, n, TWO_PI)
        rng = np.random.default_rng(d)
        for gamma in (1.4, 5.0 / 3.0):
            params = FluidParams(gamma=gamma, kappa=0.7, rho_min=1e-3)
            rho = rng.uniform(-1e-13, 2.0, g.shape)
            rho.reshape(-1)[:3] = 0.0, -1e-13, 5e-4  # at, below and above zero, under rho_min
            m = rng.standard_normal((d,) + g.shape) * 10.0 ** rng.uniform(-3, 3)
            st = state_from(g, rho, m)
            kinetic = 0.5 * np.sum(m**2, axis=0) / np.maximum(rho, params.rho_min)
            internal = params.pressure(rho) / (params.gamma - 1.0)
            assert total_energy(st, params) == float(np.sum(kinetic + internal)) * g.dx**d

    @pytest.mark.parametrize("d,n", [(2, 128), (3, 32)])
    def test_total_energy_builds_the_density_and_one_scratch_field(self, traced_peak, d, n):
        g = make_grid(d, n, TWO_PI)
        params = FluidParams()
        st = preset_ic("random-band", g, params, seed=3, amplitude=0.5)
        traced_peak(lambda: total_energy(st, params))
        assert traced_peak(lambda: total_energy(st, params)) < 2.5 * 8 * n**d

    def test_total_energy_uniform_state(self):
        g = make_grid(2, 8, TWO_PI)
        st = preset_ic("equilibrium", g, FluidParams())
        params = FluidParams(gamma=1.4, kappa=2.0)
        assert total_energy(st, params) == pytest.approx(2.0 / 0.4 * g.vol, rel=1e-12)


class TestForcingShift:
    """The forcing product rho*f as a shift of rho's half-lattice
    coefficients, against the transform of the sampled product."""

    @pytest.mark.parametrize("d, n, terms", [
        # negative mode; mode across 0 and n/2 of the last axis; mode >= n/2 (aliased)
        (1, 16, [((0.3,), (-3,), 0.4), ((0.2,), (7,), 1.1), ((0.1,), (21,), -0.3)]),
        (2, 12, [((0.3, 0.1), (1, -2), 0.4), ((0.2, 0.5), (0, 5), 1.1), ((0.1, 0.7), (9, 7), -0.3)]),
        (3, 8, [((0.3, 0.1, 0.2), (1, 0, -1), 0.4), ((0.2, 0.5, 0.1), (2, -1, 4), 1.1),
                ((0.1, 0.7, 0.3), (5, 9, 3), -0.3)]),
    ])
    def test_matches_transform_of_sampled_product(self, d, n, terms):
        g = make_grid(d, n, 2.5)
        forcing = ForcingSpec(mode="trig", terms=tuple(terms), envelope="exp", rate=0.7)
        rho = 1.0 + 0.3 * np.random.default_rng(d).standard_normal(g.shape)
        t = 0.4
        targets, shift = g.trig_shift(forcing.terms, d)
        assert len(targets) == d * int(np.sum(g.dealias_half))
        want = (g.rfft(rho * forcing.spatial(g)) * forcing.envelope_at(t)).ravel()[targets]
        got = forcing.envelope_at(t) * shift(g.rfft(rho))
        assert rel_err(got, want) <= 1e-14
        # scratch for the gathered sources and the moved modes lends the map
        # its buffers; one entry fewer does not
        need = len(targets) // d * (2 * len(terms) + d)
        for size, lent in ((need, True), (need - 1, False)):
            scratch = np.empty(size, dtype=np.complex128)
            moved = g.trig_shift(forcing.terms, d, scratch=scratch)[1](g.rfft(rho))
            assert np.array_equal(forcing.envelope_at(t) * moved, got)
            assert np.shares_memory(moved, scratch) == lent


    @pytest.mark.parametrize("d, n, terms", [
        # mirrored modes (last entry negative), modes on the last axis's 0 plane, nonzero phases
        (1, 16, [((0.3,), (-3,), 0.4), ((0.2,), (5,), 1.1), ((0.1,), (0,), -0.3)]),
        (2, 12, [((0.3, 0.1), (1, -2), 0.4), ((0.2, 0.5), (-4, 3), 1.1), ((0.1, 0.7), (3, 0), -0.3)]),
        (3, 8, [((0.3, 0.1, 0.2), (1, 0, -1), 0.4), ((0.2, 0.5, 0.1), (2, -1, 2), 1.1),
                ((0.1, 0.7, 0.3), (-2, 2, 0), -2.9)]),
    ])
    def test_work_rate_matches_the_sampled_product(self, d, n, terms):
        # the ledger's int f . m dx, read from m^ at the forcing modes, against
        # the sum of the sampled product it replaced
        g = make_grid(d, n, 2.5)
        forcing = ForcingSpec(mode="trig", terms=tuple(terms), envelope="exp", rate=0.7)
        stepper = _Stepper(g, FluidParams(mu=0.05, forcing=forcing), ledger=True)
        rng = np.random.default_rng(d)
        fields = np.concatenate((1.0 + 0.1 * rng.standard_normal((1,) + g.shape), rng.standard_normal((d,) + g.shape)))
        for t in (0.0, 0.4):
            _, _, work = stepper.rhs(g.rfft(fields), fields, t, np.empty((d + 1,) + g.half_shape, np.complex128))
            want = float(np.sum(forcing.spatial(g) * forcing.envelope_at(t) * fields[1:])) * g.dx**d
            assert abs(work - want) <= 1e-13 * abs(want)

    def test_a_forced_stage_allocates_no_more_than_an_unforced_one(self, traced_peak):
        # the shift gathers, maps and scales into buffers made with the stepper
        g = make_grid(2, 64, TWO_PI)
        terms = (((0.05, 0.0), (1, 0), 0.0), ((0.0, 0.03), (0, 2), 0.5))
        peaks = []
        for forcing in (ForcingSpec(), ForcingSpec(mode="trig", terms=terms, envelope="exp", rate=0.7)):
            params = FluidParams(mu=1e-3, forcing=forcing)
            st = preset_ic("random-band", g, params, seed=3, amplitude=0.5)
            fields = np.concatenate((st.rho.values[None], st.m.values))
            fields_h, stepper = g.rfft(fields), _Stepper(g, params)
            out = np.empty_like(fields_h)
            stepper.rhs(fields_h, fields, 0.1, out)
            peaks.append(traced_peak(lambda: stepper.rhs(fields_h, fields, 0.1, out)))
        assert peaks[1] <= peaks[0] + 1024
        # nor does it keep buffers of its own: the flux coefficients' memory is free by then
        assert np.shares_memory(stepper.force[1](fields_h[0]), stepper.flux_h)

    @pytest.mark.parametrize("mode", [(6, 0), (8, 0), (0, -6), (7, 2)])
    def test_forcing_past_the_cutoff_is_rejected(self, mode):
        # at n = 16 the dealiased modes reach n//3 = 5; a term past them
        # would leave the RHS unforced and the ledger's work at zero
        g = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=1e-3, forcing=ForcingSpec(mode="trig", terms=(((0.05, 0.0), mode, 0.0),)))
        st = preset_ic("equilibrium", g, params)
        for call in (lambda: rhs(st, params), lambda: step(st, params, 0.01),
                     lambda: run(st, params, T=0.05, snapshots=1)):
            with pytest.raises(ValueError, match="two-thirds cutoff"):
                call()

    def test_forcing_at_the_cutoff_is_applied(self):
        g = make_grid(2, 16, TWO_PI)
        forcing = ForcingSpec(mode="trig", terms=(((0.05, 0.02), (5, -5), 0.3),))
        params = FluidParams(mu=1e-3, forcing=forcing)
        st = preset_ic("equilibrium", g, params)
        _, dm = rhs(st, params)
        assert np.max(np.abs(dm.values - forcing.spatial(g))) < 1e-15
        assert run(st, params, T=0.05, snapshots=1).report.W[-1] > 0


class TestCoefficientState:
    """run and step keep (rho^, m^) on the half lattice between stages."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("forced", [False, True])
    def test_run_and_step_match_the_physical_state_reference(self, d, forced):
        g = make_grid(d, 12 if d == 3 else 16, TWO_PI)
        params = FluidParams(mu=0.05, forcing=two_term_forcing(d) if forced else ForcingSpec())
        st = preset_ic("random-band", g, params, seed=3 + d, amplitude=1.0)
        dt_cap = 0.5 * cfl_dt(st, params)
        result = run(st, params, T=10 * dt_cap, snapshots=2, dt_cap=dt_cap)
        dt = result.dt
        assert result.steps_per_snapshot == 5 and result.series[0] is st
        rho, m, D, W = st.rho.values, st.m.values, 0.0, 0.0
        stepped = st
        for i in range(10):
            rho, m, dD, dW = physical_advance(
                rho, m, i * dt, dt, g, params, params.forcing.spatial(g), with_ledger=True
            )
            D, W = D + dD, W + dW
            stepped = step(stepped, params, dt)
            if i % 5 == 4:
                snap = result.series[(i + 1) // 5]
                assert snap.t == (i + 1) * dt
                assert rel_err(snap.rho.values, rho) <= 1e-12
                assert rel_err(snap.m.values, m) <= 1e-12
                assert abs(result.report.D[(i + 1) // 5] - D) <= 1e-12 * D
                assert abs(result.report.W[(i + 1) // 5] - W) <= 1e-12 * abs(W)
        assert rel_err(stepped.rho.values, rho) <= 1e-12
        assert rel_err(stepped.m.values, m) <= 1e-12
        assert (W != 0.0) == forced

    @pytest.mark.parametrize("d, forced, per_rhs", [(2, True, 8), (3, True, 13), (3, False, 13)])
    def test_real_fields_transformed_per_rhs(self, monkeypatch, d, forced, per_rhs):
        """Each RK4 stage inverts the d + 1 state fields and transforms u
        (d fields) and the symmetric flux (d(d+1)/2) forward, the flux
        pruned to the two-thirds block (grid.rfft_block).  An inverse is
        d - 1 complex passes over the leading axes and one real pass over
        the last; the real passes count the fields."""
        g = make_grid(d, 8, TWO_PI)
        params = FluidParams(mu=0.05, forcing=two_term_forcing(d) if forced else ForcingSpec())
        st = preset_ic("random-band", g, params, seed=1, amplitude=0.5)
        fields = _fields(st)
        fields_h, stepper = g.rfft(fields), _Stepper(g, params, ledger=True)
        counted, passes = [], []

        def counting(fn, lattice, into):
            def wrapper(a, *args, **kwargs):
                into.append(a.size // math.prod(lattice))
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "rfftn", counting(np.fft.rfftn, g.shape, counted))
        monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft, g.shape, counted))
        monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft, g.half_shape, counted))
        monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft, g.half_shape, passes))
        stepper.advance(fields_h, fields, 0.0, 1e-3)
        assert sum(counted) == 4 * per_rhs
        assert passes == [d + 1] * (4 * (d - 1))

    def test_blow_up_is_reported_at_the_end_of_its_step(self):
        """A state made non-finite inside the third of five steps per
        snapshot is reported at that step's end, not at the snapshot."""
        g = make_grid(1, 16, TWO_PI)
        params = FluidParams(mu=1e-2)

        def poison(t, rho, m):
            return np.full_like(rho, np.nan if t > 0.027 else 0.0), np.zeros_like(m)

        st = preset_ic("acoustic-pulse", g, params)
        with pytest.raises(BlowUpError, match="t = 0.03 ") as info:
            run(st, params, T=0.1, snapshots=2, dt_cap=0.01, extra_source=poison)
        assert type(info.value) is BlowUpError
        assert info.value.t == pytest.approx(0.03, rel=1e-12)

    @pytest.mark.parametrize("field, value", [("m", np.nan), ("rho", np.inf), ("m", -np.inf)])
    def test_a_non_finite_sample_is_a_blow_up_at_its_step(self, field, value):
        # one min and max per field, NaN-propagating, whichever field holds it
        g = make_grid(2, 8, TWO_PI)
        rho, m = np.ones(g.shape), np.zeros((2,) + g.shape)
        (rho if field == "rho" else m[1])[3, 5] = value
        with pytest.raises(BlowUpError, match="t = 0.03 ") as info:
            _check_alive(rho, m, 0.03)
        assert info.value.t == 0.03


class TestWorkspace:
    """run, step and rhs build one stepper per call, whose stage buffers
    every step reuses; nothing a step returns or a series holds is one of
    them."""

    # The traced transient of the 128^2 run below, peak minus what the
    # result retains, as the stepper measured before it reused buffers:
    # 5,362,996 bytes (numpy 2.4).  The workspace stepper reads 4,749,508.
    TRANSIENT_BEFORE_WORKSPACE = 5_362_996

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_later_step_leaves_earlier_results_alone(self, d):
        g = make_grid(d, 8 if d == 3 else 16, TWO_PI)
        params = FluidParams(mu=0.05, forcing=two_term_forcing(d))
        st = preset_ic("random-band", g, params, seed=5, amplitude=0.5)
        fields = _fields(st)
        fields_h, stepper = g.rfft(fields), _Stepper(g, params, ledger=True)
        inputs = fields_h.copy(), fields.copy()
        first_h, first, _, _ = stepper.advance(fields_h, fields, 0.0, 1e-3)
        kept = first_h.copy(), first.copy()
        stepper.advance(first_h, first, 1e-3, 1e-3)
        for got, want in zip((fields_h, fields, first_h, first), inputs + kept):
            assert np.array_equal(got, want)
        for buf in vars(stepper).values():
            if isinstance(buf, np.ndarray):
                assert not any(np.shares_memory(buf, a) for a in (first_h, first))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_ledger_leaves_the_step_alone(self, monkeypatch, d):
        """A forced stepper built without the ledger steps to the same
        coefficients and samples, bit for bit, as one built with it; it
        returns zero rates and never builds the forcing's spatial factor."""
        g = make_grid(d, 8 if d == 3 else 16, TWO_PI)
        params = FluidParams(mu=0.05, forcing=two_term_forcing(d))
        st = preset_ic("random-band", g, params, seed=4, amplitude=0.5)
        fields = _fields(st)
        fields_h = g.rfft(fields)
        want_h, want, dD, dW = _Stepper(g, params, ledger=True).advance(fields_h, fields, 0.2, 1e-3)
        assert dD > 0 and dW != 0.0

        def spatial(self, grid):
            raise AssertionError("ForcingSpec.spatial called without the ledger")

        monkeypatch.setattr(ForcingSpec, "spatial", spatial)
        got_h, got, dD, dW = _Stepper(g, params).advance(fields_h, fields, 0.2, 1e-3)
        assert np.array_equal(got_h, want_h) and np.array_equal(got, want)
        assert (dD, dW) == (0.0, 0.0)

    def test_series_states_survive_the_later_steps(self):
        # the first snapshot of a two-snapshot run is the end of a run over
        # its first half on the same dt, bit for bit, so no later step
        # wrote into it
        g = make_grid(2, 16, TWO_PI)
        params = FluidParams(mu=0.02, forcing=two_term_forcing(2))
        st = preset_ic("random-band", g, params, seed=6, amplitude=0.5)
        whole = run(st, params, T=0.04, snapshots=2, dt_cap=0.004)
        half = run(st, params, T=0.02, snapshots=1, dt_cap=0.004)
        assert whole.dt == half.dt and whole.steps_per_snapshot == 5
        for field in ("rho", "m"):
            assert np.array_equal(getattr(whole.series[1], field).values, getattr(half.series[1], field).values)

    def test_two_runs_agree_bit_for_bit(self):
        g = make_grid(3, 8, TWO_PI)
        params = FluidParams(mu=0.05, forcing=two_term_forcing(3))
        st = preset_ic("random-band", g, params, seed=8, amplitude=0.5)
        one, two = (run(st, params, T=0.05, snapshots=3) for _ in range(2))
        for a, b in zip(one.series, two.series):
            assert a.t == b.t
            assert np.array_equal(a.rho.values, b.rho.values) and np.array_equal(a.m.values, b.m.values)
        for name in ("t", "E", "D", "W", "R"):
            assert np.array_equal(getattr(one.report, name), getattr(two.report, name))

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 16), (3, 8), (3, 32)])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("ledger", [False, True])
    def test_buffer_bytes_match_their_count(self, d, n, forced, ledger):
        """3d + 4 complex and 2d + 3 real grid fields, the viscous symbol,
        the ledger's Parseval weights k2 * weight, and one spare complex
        buffer: a flux pair's coefficients, the ledger's squared parts, or
        the forcing shift's gathered and moved modes, the largest.  Neither
        the shift nor the work rate's map owns a buffer of its own."""
        params = FluidParams(mu=0.05, forcing=two_term_forcing(d) if forced else ForcingSpec())
        stepper = _Stepper(make_grid(d, n, TWO_PI), params, ledger=ledger)
        half, cells = n ** (d - 1) * (n // 2 + 1), n**d
        dealiased = (2 * (n // 3) + 1) ** (d - 1) * (n // 3 + 1)
        terms = len(params.forcing.terms)
        spare = max(half, d * half if ledger else 0, (2 * terms + d) * dealiased if forced else 0)
        real = 2 * d + 3
        symbols = 2 if ledger else 1  # mu * k2, and the ledger's k2 * weight
        want = 16 * ((3 * d + 4) * half + spare) + 8 * (real * cells + symbols * half)
        owned = [a for a in vars(stepper).values() if isinstance(a, np.ndarray) and a.base is None]
        maps = ([stepper.force[1]] if forced else []) + ([stepper.work] if forced and ledger else [])
        for shift in maps:
            cells_of = dict(zip(shift.__code__.co_freevars, (c.cell_contents for c in shift.__closure__)))
            lent = [cells_of[name] for name in ("values", "moved")]
            assert all(np.shares_memory(buf, stepper.flux_h) for buf in lent)
        assert sum(a.nbytes for a in owned) == want
        if (d, n, forced, ledger) == (3, 32, True, True):  # 16 complex and 9 real grid fields
            assert want - 16 * half == 16 * 16 * half + 9 * 8 * cells == 6.5 * 2**20

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", ["unforced", "forced", "extra source"])
    @pytest.mark.parametrize("ledger", [False, True])
    def test_rhs_equals_the_batched_flux_assembly(self, d, case, ledger):
        # one flux pair at a time, each subtracted at once, in pair order:
        # every component's increments come in the batched order
        g = make_grid(d, 8 if d == 3 else 16, TWO_PI)
        params = FluidParams(mu=0.05, forcing=ForcingSpec() if case == "unforced" else two_term_forcing(d))

        def extra(t, rho, m):
            return 0.01 * rho * rho, 0.02 * m * np.cos(t)

        source = extra if case == "extra source" else None
        st = preset_ic("random-band", g, params, seed=9, amplitude=0.5)
        fields = _fields(st)
        fields_h, stepper = g.rfft(fields), _Stepper(g, params, source, ledger=ledger)
        for t in (0.0, 0.7):
            got, diss, work = stepper.rhs(fields_h, fields, t, np.empty_like(fields_h))
            want, want_diss, want_work = batched_flux_rhs(g, params, fields_h, fields, t, source, ledger)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert (diss, work) == (want_diss, want_work)
            assert (diss > 0) == ledger and (work != 0.0) == (ledger and case != "unforced")

    def test_memory_stays_below_the_fresh_array_stepper(self):
        # the tracemalloc pattern of the diagnose memory test: a collection
        # before the call keeps earlier garbage out of the peak
        g = make_grid(2, 128, TWO_PI)
        params = FluidParams(mu=1e-3, forcing=two_term_forcing(2))
        st = preset_ic("random-band", g, params, seed=7, amplitude=0.5)

        def transient():
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = run(st, params, T=0.02, snapshots=2)
                current, peak = tracemalloc.get_traced_memory()
                assert result.steps_per_snapshot == 1
                del result
                gc.collect()
                left = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            return peak - current, left

        transient()  # first use: lazy imports and FFT plan caches
        peak, left = transient()
        assert peak <= self.TRANSIENT_BEFORE_WORKSPACE
        # no workspace buffer outlives the run: not one grid field is left
        assert left < 8 * g.n**2
        assert not any(isinstance(o, _Stepper) for o in gc.get_objects())
