"""Diagnostics tests: shell spectra, decay statistics, Sobolev norms,
moduli, mixed-norm integrability, weak residuals, admissibility and the
momentum quotient.  Closed-form oracles are spelled out inline."""

import math

import numpy as np
import pytest

from baroflow.diagnostics import (
    SpectrumSeries,
    TestFunction,
    ckh_fit,
    ckhw_from_spectrum,
    ckhw_statistic,
    decay_constant,
    default_test_functions,
    energy_admissibility,
    fractional_sobolev_norm,
    high_integrability,
    reynolds_quotient,
    shell_spectrum,
    space_modulus,
    spectral_pass,
    time_integrated_spectrum,
    time_modulus,
    weak_residual_momentum,
    weak_residuals,
)
from baroflow.fields import Field, dft_forward, make_grid
from baroflow.solver import (
    FluidParams,
    ForcingSpec,
    SnapshotSeries,
    State,
    preset_ic,
    run,
    total_energy,
)


def make_state(grid, rho, m, t=0.0):
    return State(t=t, rho=Field(grid=grid, values=rho), m=Field(grid=grid, values=m))


def series_from(grid, entries):
    """entries: list of (t, rho_values, m_values)."""
    return SnapshotSeries(states=tuple(make_state(grid, r, mv, t=t) for t, r, mv in entries))


def cosine_state(grid, mode_vec, amp, t=0.0, component=0, rho_pattern=None):
    """Unit density (or rho_pattern) with amp*cos(k.x) in one momentum slot."""
    coords = grid.axes_coordinates()
    arg = np.zeros(grid.shape)
    for axis, mv in enumerate(mode_vec):
        arg = arg + (2.0 * np.pi / grid.P) * mv * coords[axis]
    rho = np.ones(grid.shape) if rho_pattern is None else rho_pattern
    m = np.zeros((grid.d,) + grid.shape)
    m[component] = amp * np.cos(arg)
    return make_state(grid, rho, m, t=t)


class TestShellSpectrum:
    def test_single_mode_lands_in_rounded_shell(self):
        # |(2,1,0)| = sqrt(5) = 2.236 rounds to shell 2.  A*cos splits into
        # A/2 at +/-k, so raw = A^2/2 and energy = A^2/4 in that shell; the
        # constant sonic field sqrt(kappa) puts kappa/(gamma-1) in shell 0.
        grid = make_grid(3, 16, 2.0 * np.pi)
        params = FluidParams(gamma=1.5, kappa=1.3, mu=1e-3)
        st = cosine_state(grid, (2, 1, 0), amp=0.6)
        sp = shell_spectrum(st, params)
        assert abs(sp.energy[2] - 0.09) < 1e-14
        assert abs(sp.raw[2] - 0.18) < 1e-14
        assert abs(sp.energy[0] - 1.3 / 0.5) < 1e-12
        others = [s for s in sp.shells if s not in (0, 2)]
        assert max(abs(sp.energy[s]) for s in others) < 1e-15

    def test_counts_cover_the_lattice(self):
        grid = make_grid(2, 12, 1.0)
        params = FluidParams()
        sp = shell_spectrum(make_state(grid, np.ones(grid.shape), np.zeros((2,) + grid.shape)), params)
        assert int(np.sum(sp.counts)) == 12**2
        assert sp.counts[0] == 1

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
    def test_shell_sum_equals_volume_energy(self, d, n):
        grid = make_grid(d, n, 2.0 * np.pi)
        params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-3)
        st = preset_ic("random-band", grid, params, seed=900 + d, amplitude=0.7)
        sp = shell_spectrum(st, params)
        per_vol = total_energy(st, params) / grid.vol
        assert abs(sp.total() - per_vol) < 1e-10 * per_vol

    def test_per_shell_density_divides_by_sphere_area(self):
        grid = make_grid(3, 16, 2.0 * np.pi)
        params = FluidParams(gamma=1.5, kappa=1.0)
        sp = shell_spectrum(cosine_state(grid, (3, 0, 0), amp=1.0), params)
        dens = sp.per_shell_density()
        assert abs(dens[3] - sp.energy[3] / (4.0 * np.pi * 9.0)) < 1e-16


class TestSpectrumSeries:
    def test_integral_matches_trapezoid_of_rows(self):
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams(gamma=1.4)
        times = np.linspace(0.0, 1.0, 9)
        entries = [
            (t, np.ones(grid.shape), (0.5 + 0.1 * t) * np.cos(grid.axes_coordinates()[0])[None])
            for t in times
        ]
        ss = time_integrated_spectrum(series_from(grid, entries), params)
        ref = np.trapezoid(ss.energy, x=ss.times, axis=0)
        assert np.max(np.abs(ss.integrated_energy - ref)) < 1e-15

    def test_exponential_decay_against_closed_form(self):
        # m = exp(-t)*cos(x) puts exp(-2t)/4 in shell 1, so the shell-1
        # integral is (1 - exp(-2T))/8.  The trapezoid error is bounded by
        # T*h^2/12 * max|g''| with g'' = exp(-2t), i.e. h^2*T/3 * (1/4).
        grid = make_grid(1, 16, 2.0 * np.pi)
        params = FluidParams()
        T, nt = 1.0, 51
        times = np.linspace(0.0, T, nt)
        x = grid.axes_coordinates()[0]
        entries = [(t, np.ones(grid.shape), (math.exp(-t) * np.cos(x))[None]) for t in times]
        ss = time_integrated_spectrum(series_from(grid, entries), params)
        exact = (1.0 - math.exp(-2.0 * T)) / 8.0
        # kinetic weight 1/2 on |w_hat|^2 = exp(-2t)/4 at each of +/-k
        exact = exact  # energy = 2 * (1/2) * exp(-2t)/4 = exp(-2t)/4
        h = T / (nt - 1)
        bound = T * h**2 / 12.0 * 1.0  # max |d^2/dt^2 exp(-2t)/4| = 1
        err = abs(ss.integrated_energy[1] - exact)
        assert err < bound
        assert err > 0.0

    def test_single_snapshot_rejected(self):
        grid = make_grid(1, 16, 1.0)
        series = series_from(grid, [(0.0, np.ones(grid.shape), np.zeros((1,) + grid.shape))])
        with pytest.raises(ValueError, match="two snapshots"):
            time_integrated_spectrum(series, FluidParams())


class TestCkhFit:
    def synthetic(self, exponent, n=64, prefactor=2.7, wobble=0.0):
        shells = np.arange(n // 2 + 1, dtype=np.float64)
        vals = np.zeros_like(shells)
        vals[1:] = prefactor * shells[1:] ** exponent
        if wobble:
            vals[1:] *= 1.0 + wobble * np.sin(shells[1:])
        return SpectrumSeries.from_integrated(vals, d=3, n=n, P=2.0 * np.pi)

    def test_recovers_pure_power_law(self):
        fit = ckh_fit(self.synthetic(-5.0 / 3.0))
        assert abs(fit.exponent + 5.0 / 3.0) < 1e-12
        assert abs(fit.prefactor - 2.7) < 1e-10
        assert fit.residual < 1e-13
        # k^(5/3) * 2.7 * k^(-5/3) = 2.7 on every shell
        assert abs(fit.m_t - 2.7) < 1e-12

    def test_recovers_steeper_law_and_window(self):
        fit = ckh_fit(self.synthetic(-2.0), k_lo=6, k_hi=20)
        assert abs(fit.exponent + 2.0) < 1e-12
        assert (fit.k_lo, fit.k_hi) == (6, 20)
        # m_t = max over window of 2.7 * k^(-1/3), attained at k_lo
        assert abs(fit.m_t - 2.7 * 6.0 ** (-1.0 / 3.0)) < 1e-12

    def test_default_window_is_n16_to_n3(self):
        fit = ckh_fit(self.synthetic(-5.0 / 3.0, n=64))
        assert (fit.k_lo, fit.k_hi) == (4, 21)

    def test_small_wobble_moves_exponent_little(self):
        fit = ckh_fit(self.synthetic(-5.0 / 3.0, wobble=0.01))
        assert abs(fit.exponent + 5.0 / 3.0) < 0.02

    def test_decay_constant_is_the_filtered_window_maximum(self):
        # the form ckh_fit used before it shared decay_constant: shells in
        # the window with positive energy only; empty shells add 0 to a
        # maximum that is positive, so both forms agree bit for bit
        ie = self.synthetic(-5.0 / 3.0, wobble=0.3).integrated_energy.copy()
        ie[[5, 6, 9, 14]] = 0.0
        for k_lo, k_hi in ((1, 21), (4, 12), (5, 11), (2, 32)):
            shells = np.arange(len(ie))
            sel = (shells >= k_lo) & (shells <= k_hi) & (ie > 0)
            want = float(np.max(shells[sel].astype(np.float64) ** (5.0 / 3.0) * ie[sel]))
            assert decay_constant(ie, k_lo, k_hi) == want
            assert ckh_fit(SpectrumSeries.from_integrated(ie, d=3, n=64, P=2.0 * np.pi), k_lo, k_hi).m_t == want

    def test_bad_windows_rejected(self):
        ss = self.synthetic(-2.0)
        with pytest.raises(ValueError, match="bad fit window"):
            ckh_fit(ss, k_lo=9, k_hi=9)
        with pytest.raises(ValueError, match="beyond the resolved"):
            ckh_fit(ss, k_lo=4, k_hi=40)

    def test_too_few_nonempty_shells_rejected(self):
        vals = np.zeros(33)
        vals[5] = vals[7] = vals[9] = 1.0
        ss = SpectrumSeries.from_integrated(vals, d=3, n=64, P=2.0 * np.pi)
        with pytest.raises(ValueError, match="need at least 4"):
            ckh_fit(ss)


class TestCkhw:
    def two_snapshot_series(self, grid, rho, m, T=1.0):
        return series_from(grid, [(0.0, rho, m), (T, rho, m)])

    def test_velocity_mode_oracle(self):
        # Static m = 0.8*cos(3x) for one unit of time: per-mode integral is
        # 0.16 at each of +/-(3,0,0); shell sum 0.32; statistic at beta=2/3
        # is 3^(11/3) * 0.32 / (4 pi 9), per-mode sup 3^(11/3) * 0.16.
        grid = make_grid(3, 16, 2.0 * np.pi)
        params = FluidParams(gamma=1.4)
        st = cosine_state(grid, (3, 0, 0), amp=0.8)
        series = self.two_snapshot_series(grid, st.rho.values, st.m.values)
        det = ckhw_from_spectrum(time_integrated_spectrum(series, params), beta=2.0 / 3.0, k_star=1)
        expect_shell = 3.0 ** (11.0 / 3.0) * 0.32 / (4.0 * np.pi * 9.0)
        expect_mode = 3.0 ** (11.0 / 3.0) * 0.16
        assert abs(det.value - expect_shell) < 1e-12
        assert abs(det.per_mode_sup - expect_mode) < 1e-12
        assert ckhw_statistic(series, params, beta=2.0 / 3.0, k_star=1) == det.value

    def test_sonic_channel_counts_with_gamma_two(self):
        # gamma = 2 makes w_c = sqrt(kappa)*rho exactly, so rho = 1 + d*cos(4x)
        # contributes kappa*d^2/4 per mode at +/-(4,0,0).
        grid = make_grid(3, 16, 2.0 * np.pi)
        kappa, dlt = 1.3, 0.05
        params = FluidParams(gamma=2.0, kappa=kappa)
        x = grid.axes_coordinates()[0]
        rho = 1.0 + dlt * np.cos(4.0 * x) * np.ones(grid.shape)
        series = self.two_snapshot_series(grid, rho, np.zeros((3,) + grid.shape))
        beta = 0.5
        det = ckhw_from_spectrum(time_integrated_spectrum(series, params), beta=beta, k_star=2)
        expect = 4.0 ** (3.0 + beta) * (kappa * dlt**2 / 2.0) / (4.0 * np.pi * 16.0)
        assert abs(det.value - expect) < 1e-12 * expect

    def test_sup_picks_the_largest_shell_value(self):
        grid = make_grid(3, 16, 2.0 * np.pi)
        params = FluidParams(gamma=1.4)
        x, y = grid.axes_coordinates()[0], grid.axes_coordinates()[1]
        m = np.zeros((3,) + grid.shape)
        m[0] = 1.0 * np.cos(2.0 * x) + 0.01 * np.cos(4.0 * y)
        series = self.two_snapshot_series(grid, np.ones(grid.shape), m)
        det = ckhw_from_spectrum(time_integrated_spectrum(series, params), beta=1.0, k_star=2)
        shell2 = 2.0**4.0 * (1.0 / 2.0) / (4.0 * np.pi * 4.0)
        assert abs(det.value - shell2) < 1e-12
        assert det.shells[np.argmax(det.shell_values)] == 2

    def test_parameter_validation(self):
        grid = make_grid(3, 16, 2.0 * np.pi)
        params = FluidParams()
        st = cosine_state(grid, (1, 0, 0), amp=0.1)
        series = self.two_snapshot_series(grid, st.rho.values, st.m.values)
        with pytest.raises(ValueError, match="beta must be positive"):
            ckhw_statistic(series, params, beta=0.0)
        with pytest.raises(ValueError, match="outside the resolved"):
            ckhw_statistic(series, params, beta=0.5, k_star=6)  # cap is 16//3 = 5

    def test_decay_fit_bounded_by_weighted_statistic(self):
        # With beta = 2/3, k^(5/3) * E_int(k) <= max(1/2, 1/(gamma-1)) *
        # 4 pi * ckhw for every shell k >= k_star, since the energy weights
        # are dominated by the raw sum times that constant.
        grid = make_grid(3, 32, 2.0 * np.pi)
        params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-3)
        sts = [preset_ic("random-band", grid, params, seed=s, amplitude=0.8) for s in (11, 12, 13)]
        series = SnapshotSeries(
            states=tuple(State(t=t, rho=st.rho, m=st.m) for t, st in zip((0.0, 0.4, 0.9), sts))
        )
        k_star = 3
        stat = ckhw_statistic(series, params, beta=2.0 / 3.0, k_star=k_star)
        ss = time_integrated_spectrum(series, params)
        shells = np.arange(k_star, grid.n // 3 + 1)
        window_max = float(np.max(shells ** (5.0 / 3.0) * ss.integrated_energy[k_star : grid.n // 3 + 1]))
        c = max(0.5, 1.0 / (params.gamma - 1.0)) * 4.0 * np.pi
        assert window_max <= c * stat * (1.0 + 1e-12)


class TestSobolev:
    def test_single_mode_oracle(self):
        # Static bundle: velocity mode at |k| = 2 with |w_hat|^2 = A^2/4 at
        # each of +/-k (symbol 1 + 4 = 5), sonic constant kappa at k = 0
        # (symbol 1).  Norm^2 = T * (2 * 5 * A^2/4 + kappa) at alpha = 1.
        grid = make_grid(3, 16, 2.0 * np.pi)
        A, kappa, T = 0.4, 1.3, 0.75
        params = FluidParams(gamma=1.4, kappa=kappa)
        st = cosine_state(grid, (2, 0, 0), amp=A)
        series = series_from(grid, [(0.0, st.rho.values, st.m.values), (T, st.rho.values, st.m.values)])
        val = fractional_sobolev_norm(series, params, alpha=1.0)
        expect = math.sqrt(T * (2.0 * 5.0 * A**2 / 4.0 + kappa))
        assert abs(val - expect) < 1e-12

    def test_alpha_zero_is_plain_space_time_norm(self):
        grid = make_grid(2, 16, 2.0 * np.pi)
        A, kappa, T = 0.3, 0.7, 0.5
        params = FluidParams(gamma=1.6, kappa=kappa)
        st = cosine_state(grid, (1, 1), amp=A)
        series = series_from(grid, [(0.0, st.rho.values, st.m.values), (T, st.rho.values, st.m.values)])
        val = fractional_sobolev_norm(series, params, alpha=0.0)
        expect = math.sqrt(T * (A**2 / 2.0 + kappa))
        assert abs(val - expect) < 1e-12

    def test_monotone_in_alpha(self):
        grid = make_grid(2, 16, 2.0 * np.pi)
        params = FluidParams()
        st = preset_ic("random-band", grid, params, seed=5, amplitude=0.5)
        series = series_from(grid, [(0.0, st.rho.values, st.m.values), (1.0, st.rho.values, st.m.values)])
        vals = [fractional_sobolev_norm(series, params, a) for a in (0.0, 0.2, 0.5, 1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_alpha_rejected(self):
        grid = make_grid(1, 8, 1.0)
        series = series_from(grid, [(0.0, np.ones(grid.shape), np.zeros((1,) + grid.shape)),
                                    (1.0, np.ones(grid.shape), np.zeros((1,) + grid.shape))])
        with pytest.raises(ValueError, match="nonnegative"):
            fractional_sobolev_norm(series, FluidParams(), alpha=-0.1)


class TestSpaceModulus:
    def test_half_period_shift_closed_form(self):
        # rho = 1 + sin(x)/2, shift by half a period: difference is -sin(x),
        # |diff|^2 integrates to pi, times T = 2 gives 2 pi exactly.
        grid = make_grid(1, 64, 2.0 * np.pi)
        params = FluidParams(gamma=2.0)
        x = grid.axes_coordinates()[0]
        rho = 1.0 + 0.5 * np.sin(x)
        zero_m = np.zeros((1,) + grid.shape)
        series = series_from(grid, [(t, rho, zero_m) for t in (0.0, 1.0, 2.0)])
        table = space_modulus(series, params, shifts=[32])
        assert abs(table.lengths[0] - np.pi) < 1e-14
        assert abs(table.density[0] - 2.0 * np.pi) < 1e-12
        assert table.momentum[0] == 0.0

    def test_small_shift_slopes_match_field_smoothness(self):
        # Smooth fields scale as |shift|^p: exponent p = 1.7 for the density
        # channel, 2 for the squared momentum magnitude.
        grid = make_grid(1, 64, 2.0 * np.pi)
        params = FluidParams(gamma=1.7)
        x = grid.axes_coordinates()[0]
        rho = 1.0 + 0.25 * np.sin(x)
        m = (0.4 * np.cos(x))[None]
        series = series_from(grid, [(0.0, rho, m), (0.5, rho, m), (1.0, rho, m)])
        table = space_modulus(series, params, shifts=[1, 2, 4])
        assert abs(table.density_slope - 1.7) < 0.05 * 1.7
        assert abs(table.momentum_slope - 2.0) < 0.05 * 2.0
        assert table.exponent == 1.7

    def test_scalar_and_tuple_shifts_agree(self):
        grid = make_grid(2, 16, 2.0 * np.pi)
        params = FluidParams()
        st = preset_ic("random-band", grid, params, seed=21, amplitude=0.4)
        series = series_from(grid, [(0.0, st.rho.values, st.m.values),
                                    (1.0, st.rho.values, st.m.values)])
        a = space_modulus(series, params, shifts=[3])
        b = space_modulus(series, params, shifts=[(3, 0)])
        assert a.density[0] == b.density[0]
        assert a.momentum[0] == b.momentum[0]

    def test_zero_shift_gives_zero_and_no_fit_point(self):
        grid = make_grid(1, 16, 1.0)
        params = FluidParams()
        rho = np.ones(grid.shape)
        series = series_from(grid, [(0.0, rho, rho[None] * 0.3), (1.0, rho, rho[None] * 0.3)])
        table = space_modulus(series, params, shifts=[0, 4])
        assert table.density[0] == 0.0 and table.momentum[0] == 0.0

    def test_fractional_shift_rejected(self):
        grid = make_grid(1, 16, 1.0)
        series = series_from(grid, [(0.0, np.ones(grid.shape), np.zeros((1,) + grid.shape)),
                                    (1.0, np.ones(grid.shape), np.zeros((1,) + grid.shape))])
        with pytest.raises(ValueError, match="lattice offset"):
            space_modulus(series, FluidParams(), shifts=[0.5])


class TestTimeModulus:
    def linear_series(self, grid, a=0.2, b=0.3, T=1.0, nt=21):
        x = grid.axes_coordinates()[0]
        times = np.linspace(0.0, T, nt)
        entries = [(t, 1.0 + a * t * np.sin(x), (b * t * np.cos(x))[None]) for t in times]
        return series_from(grid, entries), times[1] - times[0]

    def test_linear_drift_closed_form(self):
        # rho(t) = 1 + a t sin x: a lag of j steps differs by a*j*delta*sin x,
        # so the squared modulus is (a j delta)^2 * pi * (T - j delta).
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams(gamma=2.0)
        a, b, T = 0.2, 0.3, 1.0
        series, delta = self.linear_series(grid, a=a, b=b, T=T)
        table = time_modulus(series, params, lags=[2, 5])
        for i, j in enumerate((2, 5)):
            lag_t = j * delta
            assert abs(table.lengths[i] - lag_t) < 1e-14
            expect_r = (a * lag_t) ** 2 * np.pi * (T - lag_t)
            expect_m = (b * lag_t) ** 2 * np.pi * (T - lag_t)
            assert abs(table.density[i] - expect_r) < 1e-12
            assert abs(table.momentum[i] - expect_m) < 1e-12

    def test_small_lag_slope_near_two(self):
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams(gamma=2.0)
        series, _ = self.linear_series(grid, nt=41)
        table = time_modulus(series, params, lags=[1, 2])
        assert 1.85 < table.density_slope < 2.0

    def test_horizon_lag_rejected(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        series, _ = self.linear_series(grid, nt=6)
        with pytest.raises(ValueError, match="empty integration window"):
            time_modulus(series, FluidParams(gamma=2.0), lags=[5])

    def test_zero_lag_rejected(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        series, _ = self.linear_series(grid, nt=6)
        with pytest.raises(ValueError, match="positive whole number"):
            time_modulus(series, FluidParams(gamma=2.0), lags=[0])

    def test_nonuniform_cadence_rejected(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        x = grid.axes_coordinates()[0]
        entries = [(t, 1.0 + 0.1 * t * np.sin(x), np.zeros((1,) + grid.shape)) for t in (0.0, 0.1, 0.3)]
        with pytest.raises(ValueError, match="uniform"):
            time_modulus(series_from(grid, entries), FluidParams(gamma=2.0), lags=[1])


class TestIntegrability:
    def test_constant_state_closed_form(self):
        # Constant fields reduce every mixed norm to value * (T * vol)^(1/q).
        grid = make_grid(2, 8, 2.0 * np.pi)
        params = FluidParams(gamma=1.5, kappa=2.0)
        rho0, T = 1.7, 0.8
        m = np.zeros((2,) + grid.shape)
        m[0], m[1] = 0.3, 0.4
        series = series_from(grid, [(0.0, rho0 * np.ones(grid.shape), m),
                                    (T, rho0 * np.ones(grid.shape), m)])
        rep = high_integrability(series, params)
        tv = T * grid.vol
        assert abs(rep.q1 - 1.8) < 1e-15 and (rep.q2, rep.q) == (2.5, 2.5)
        assert abs(rep.rho_norm - rho0 * tv ** (1.0 / rep.q1)) < 1e-12 * rep.rho_norm
        assert abs(rep.m_norm - 0.5 * tv**0.4) < 1e-12 * rep.m_norm
        wmag = math.sqrt(0.25 / rho0 + 2.0 * rho0**1.5)
        assert abs(rep.w_norm - wmag * tv**0.4) < 1e-12 * rep.w_norm

    def test_exponents_must_beat_energy_ones(self):
        grid = make_grid(1, 8, 1.0)
        series = series_from(grid, [(0.0, np.ones(grid.shape), np.zeros((1,) + grid.shape)),
                                    (1.0, np.ones(grid.shape), np.zeros((1,) + grid.shape))])
        params = FluidParams(gamma=1.5)
        with pytest.raises(ValueError, match="q1 must exceed gamma"):
            time_integrated_spectrum(series, params, (1.5, None, None))
        with pytest.raises(ValueError, match="q2 and q must exceed 2"):
            time_integrated_spectrum(series, params, (None, 2.0, None))
        with pytest.raises(ValueError, match="q2 and q must exceed 2"):
            time_integrated_spectrum(series, params, (None, None, 1.9))
        # resolved when the pass is set up, before it takes a snapshot
        with pytest.raises(ValueError, match="q1 must exceed gamma"):
            next(spectral_pass(series, params, (1.5, None, None)))

    def test_no_exponents_no_report(self):
        grid = make_grid(1, 8, 1.0)
        series = series_from(grid, [(0.0, np.ones(grid.shape), np.zeros((1,) + grid.shape)),
                                    (1.0, np.ones(grid.shape), np.zeros((1,) + grid.shape))])
        params = FluidParams(gamma=1.5)
        assert time_integrated_spectrum(series, params).integrability is None
        assert time_integrated_spectrum(series, params, (None, None, None)).integrability == \
            high_integrability(series, params)


class TestTestFunction:
    def test_bump_endpoint_values(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        fn = TestFunction(grid=grid, T0=0.8, terms=(((1.0,), (1,), 0.0),), components=1)
        assert fn.bump(0.0) == 1.0
        assert fn.bump(0.8) == 0.0
        assert fn.bump(5.0) == 0.0
        assert abs(fn.bump_dt(0.0)) < 1e-15
        assert abs(fn.bump_dt(0.8)) < 1e-15

    def test_bump_derivative_integrates_superconvergently(self):
        # int_0^T0 b'(t) dt = -1; four vanishing end derivatives push the
        # trapezoid error to O(h^6).
        grid = make_grid(1, 8, 1.0)
        fn = TestFunction(grid=grid, T0=1.0, terms=(((1.0,), (1,), 0.0),), components=1)
        errs = []
        for nt in (20, 40):
            ts = np.linspace(0.0, 1.0, nt + 1)
            vals = np.array([fn.bump_dt(t) for t in ts])
            errs.append(abs(np.trapezoid(vals, x=ts) + 1.0))
        assert errs[0] < 1e-6
        rate = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert rate > 5.0

    def test_gradient_matches_spectral_derivative(self):
        grid = make_grid(2, 16, 2.0 * np.pi)
        fn = TestFunction(
            grid=grid, T0=1.0,
            terms=(((0.7, -0.2), (2, 1), 0.3), ((0.1, 0.5), (0, 3), -1.1)),
            components=2,
        )
        t = 0.3
        space, grad = grid.trig_sum(fn.terms, fn.components)
        val = fn.bump(t) * space
        grad = fn.bump(t) * grad
        for comp in range(2):
            coef = dft_forward(Field(grid=grid, values=val[comp])).coefficients
            for axis in range(2):
                spectral = np.real(
                    np.fft.ifftn(grid.ik_deriv[axis] * np.fft.fftn(val[comp]))
                )
                assert np.max(np.abs(spectral - grad[comp, axis])) < 1e-12
            assert np.all(np.isfinite(coef))

    def test_default_set_shapes(self):
        grid = make_grid(2, 16, 2.0 * np.pi)
        fns = default_test_functions(grid, T=1.0)
        assert len(fns) == 3
        assert all(f.components == 1 for f in fns)
        assert all(abs(f.T0 - 0.875) < 1e-15 for f in fns)
        vec = default_test_functions(grid, T=1.0, vector=True)
        assert all(f.components == 2 for f in vec)

    def test_bad_term_shapes_rejected(self):
        grid = make_grid(2, 8, 1.0)
        with pytest.raises(ValueError, match="term shape"):
            TestFunction(grid=grid, T0=1.0, terms=(((1.0, 2.0), (1, 0), 0.0),), components=1)
        with pytest.raises(ValueError, match="T0 must be positive"):
            TestFunction(grid=grid, T0=0.0, terms=(((1.0,), (1, 0), 0.0),), components=1)


def acoustic_run(snapshots=160):
    grid = make_grid(1, 64, 2.0 * np.pi)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-2)
    st = preset_ic("acoustic-pulse", grid, params, amplitude=0.2)
    return run(st, params, T=1.0, snapshots=snapshots), grid, params


@pytest.fixture(scope="module")
def acoustic():
    return acoustic_run()


def mass_residual(series, phi):
    return weak_residuals(series, None, scalars=(phi,)).mass[0][0]


class TestWeakMass:
    def test_constant_state_residual_is_quadrature_small(self):
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams()
        rho = 1.3 * np.ones(grid.shape)
        m = np.zeros((1,) + grid.shape)
        times = np.linspace(0.0, 1.0, 49)
        series = series_from(grid, [(t, rho, m) for t in times])
        phi = TestFunction(grid=grid, T0=0.875, terms=(((0.9,), (2,), 0.4),), components=1)
        res = mass_residual(series, phi)
        assert abs(res) < 1e-7

    def test_simulated_run_satisfies_weak_mass(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.875, terms=(((1.0,), (1,), 0.3),), components=1)
        res = mass_residual(result.series, phi)
        assert abs(res) < 1e-6

    def test_corrupted_snapshot_is_detected(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.875, terms=(((1.0,), (1,), 0.3),), components=1)
        clean = abs(mass_residual(result.series, phi))
        states = list(result.series.states)
        # corrupt the snapshot with the largest mass flux against this phi
        dxd = grid.dx**grid.d
        grad = grid.trig_sum(phi.terms, 1)[1]
        fluxes = [
            abs(float(np.sum(st.m.values * (phi.bump(st.t) * grad)[0]))) * dxd
            for st in states
        ]
        k = int(np.argmax(fluxes))
        bad = State(t=states[k].t, rho=states[k].rho,
                    m=Field(grid=grid, values=1.5 * states[k].m.values))
        states[k] = bad
        broken = SnapshotSeries(states=tuple(states))
        assert abs(mass_residual(broken, phi)) > 100.0 * max(clean, 1e-9)

    def test_support_must_fit_horizon(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=1.5, terms=(((1.0,), (1,), 0.0),), components=1)
        with pytest.raises(ValueError, match="exceeds the series horizon"):
            mass_residual(result.series, phi)

    def test_vector_test_function_rejected(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.5, terms=(((1.0,), (1,), 0.0),), components=1)
        with pytest.raises(ValueError, match="scalar test function"):
            mass_residual(result.series, TestFunction(
                grid=make_grid(2, 8, 2.0 * np.pi), T0=0.5,
                terms=(((1.0, 0.0), (1, 0), 0.0),), components=2,
            ))


class TestWeakMomentum:
    def test_viscous_term_closed_form_and_linearity(self):
        # Static u = A sin x, rho = 1, phi = B cos(x - pi/2) = B sin x:
        # Sigma : grad phi = (2 mu + lam) A B cos^2 x * b(t), whose box
        # integral is (2 mu + lam) A B pi.  Linear in the viscosities.
        grid = make_grid(1, 64, 2.0 * np.pi)
        A, B = 0.4, 0.9
        x = grid.axes_coordinates()[0]
        rho = np.ones(grid.shape)
        m = (A * np.sin(x))[None]
        times = np.linspace(0.0, 1.0, 33)
        series = series_from(grid, [(t, rho, m) for t in times])
        phi = TestFunction(grid=grid, T0=0.9, terms=(((B,), (1,), -np.pi / 2.0),), components=1)
        bump_int = float(np.trapezoid(np.array([phi.bump(t) for t in times]), x=times))

        mu1, lam1 = 3e-3, -2e-3
        p1 = FluidParams(gamma=1.4, mu=mu1, lam=lam1)
        r1 = weak_residual_momentum(series, p1, phi, series[0].m)
        expect = (2.0 * mu1 + lam1) * A * B * np.pi * bump_int
        assert abs(r1.viscous_term - expect) < 1e-12

        p2 = FluidParams(gamma=1.4, mu=2.0 * mu1, lam=2.0 * lam1)
        r2 = weak_residual_momentum(series, p2, phi, series[0].m)
        assert abs(r2.viscous_term - 2.0 * r1.viscous_term) < 1e-14
        assert r1.ns_residual == r1.euler_residual - r1.viscous_term

    def test_constant_state_residual_vanishes(self):
        grid = make_grid(2, 16, 2.0 * np.pi)
        params = FluidParams(gamma=1.4, kappa=2.0, mu=1e-3)
        rho = np.ones(grid.shape)
        m = np.zeros((2,) + grid.shape)
        times = np.linspace(0.0, 1.0, 17)
        series = series_from(grid, [(t, rho, m) for t in times])
        phi = TestFunction(grid=grid, T0=0.875,
                           terms=(((0.8, 0.3), (1, 1), 0.2),), components=2)
        res = weak_residual_momentum(series, params, phi, series[0].m)
        # pressure is constant and trig terms integrate to zero exactly
        assert abs(res.ns_residual) < 1e-12
        assert abs(res.euler_residual) < 1e-12

    def test_simulated_run_needs_the_viscous_correction(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.875, terms=(((1.0,), (1,), 1.1),), components=1)
        res = weak_residual_momentum(result.series, params, phi, result.series[0].m)
        assert abs(res.ns_residual) < 1e-5
        assert abs(res.viscous_term) > 10.0 * abs(res.ns_residual)
        assert abs(res.euler_residual - res.viscous_term) == abs(res.ns_residual)

    def test_viscous_bound_dominates_measured_term(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.875, terms=(((1.0,), (2,), 0.0),), components=1)
        res = weak_residual_momentum(result.series, params, phi, result.series[0].m)
        assert abs(res.viscous_term) <= res.viscous_bound * (1.0 + 1e-12)

    def test_component_count_enforced(self, acoustic):
        result, grid, params = acoustic
        bad = TestFunction(grid=grid, T0=0.5, terms=(((1.0, 0.0), (1,), 0.0),), components=2)
        with pytest.raises(ValueError, match="-component test function"):
            weak_residual_momentum(result.series, params, bad, result.series[0].m)

    def test_quadrature_uncertainty_tracks_refinement(self, acoustic):
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.875, terms=(((1.0,), (1,), 1.1),), components=1)
        fine = weak_residual_momentum(result.series, params, phi, result.series[0].m)
        assert abs(fine.ns_residual) <= 2.0 * fine.quadrature_uncertainty
        halved = SnapshotSeries(states=result.series.states[::2])
        coarse = weak_residual_momentum(halved, params, phi, halved[0].m)
        assert abs(coarse.ns_residual) <= 2.0 * coarse.quadrature_uncertainty
        # the estimate scales like the h^2 rule it audits
        ratio = coarse.quadrature_uncertainty / fine.quadrature_uncertainty
        assert 2.5 < ratio < 6.0

    def test_two_snapshots_give_infinite_uncertainty(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        params = FluidParams()
        rho = np.ones(grid.shape)
        m = np.zeros((1,) + grid.shape)
        series = series_from(grid, [(0.0, rho, m), (1.0, rho, m)])
        phi = TestFunction(grid=grid, T0=0.5, terms=(((1.0,), (1,), 0.0),), components=1)
        res = weak_residual_momentum(series, params, phi, series[0].m)
        assert math.isinf(res.quadrature_uncertainty)

    def test_roundoff_scale_survives_cancellation(self, acoustic):
        # abs-inside-the-integral dominates abs-outside, and it stays
        # O(pressure mass) even when every signed term cancels exactly
        result, grid, params = acoustic
        phi = TestFunction(grid=grid, T0=0.875, terms=(((1.0,), (1,), 1.1),), components=1)
        res = weak_residual_momentum(result.series, params, phi, result.series[0].m)
        assert res.roundoff_scale >= res.quadrature_scale

        flat = make_grid(2, 16, 2.0 * np.pi)
        flat_params = FluidParams(gamma=1.4, kappa=2.0, mu=1e-3)
        rho = np.ones(flat.shape)
        m = np.zeros((2,) + flat.shape)
        times = np.linspace(0.0, 1.0, 17)
        series = series_from(flat, [(t, rho, m) for t in times])
        psi = TestFunction(grid=flat, T0=0.875,
                           terms=(((0.8, 0.3), (1, 1), 0.2),), components=2)
        still = weak_residual_momentum(series, flat_params, psi, series[0].m)
        assert abs(still.euler_residual) < 1e-12
        assert still.roundoff_scale > 1.0


def stored_energies(series, params):
    """The times and total energies of a series' snapshots, as diagnose
    gives them to energy_admissibility."""
    return series.times, [total_energy(st, params) for st in series]


class TestAdmissibility:
    def test_constant_energy_is_admissible(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        params = FluidParams()
        rho = np.ones(grid.shape)
        m = np.zeros((1,) + grid.shape)
        series = series_from(grid, [(0.0, rho, m), (1.0, rho, m)])
        rep = energy_admissibility(*stored_energies(series, params))
        assert rep.admissible
        assert np.max(np.abs(rep.residuals)) == 0.0
        assert rep.tol == 1e-8 * max(total_energy(series[0], params), 1.0)

    def test_decaying_amplitude_is_admissible(self):
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams()
        x = grid.axes_coordinates()[0]
        entries = [(t, np.ones(grid.shape), (0.5 * math.exp(-t) * np.cos(x))[None])
                   for t in (0.0, 0.5, 1.0)]
        rep = energy_admissibility(*stored_energies(series_from(grid, entries), params))
        assert rep.admissible
        assert rep.max_residual <= 0.0

    def test_unexplained_energy_growth_flagged(self):
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams()
        x = grid.axes_coordinates()[0]
        entries = [(t, np.ones(grid.shape), ((0.5 + 0.2 * t) * np.cos(x))[None])
                   for t in (0.0, 0.5, 1.0)]
        rep = energy_admissibility(*stored_energies(series_from(grid, entries), params))
        assert not rep.admissible
        assert rep.max_residual > rep.tol

    def test_work_array_explains_growth(self):
        grid = make_grid(1, 32, 2.0 * np.pi)
        params = FluidParams()
        x = grid.axes_coordinates()[0]
        entries = [(t, np.ones(grid.shape), ((0.5 + 0.2 * t) * np.cos(x))[None])
                   for t in (0.0, 0.5, 1.0)]
        times, E = stored_energies(series_from(grid, entries), params)
        rep = energy_admissibility(times, E, work=np.array(E) - E[0])
        assert rep.admissible
        assert np.max(np.abs(rep.residuals)) == 0.0

    def test_viscous_run_ledger_is_admissible(self):
        grid = make_grid(2, 32, 2.0 * np.pi)
        params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-2)
        result = run(preset_ic("taylor-green", grid, params), params, T=0.5, snapshots=8)
        ledger = result.report
        rep = energy_admissibility(ledger.t, ledger.E, ledger.W)
        assert rep.admissible
        # the t = 0 row is exactly zero; dissipation pushes the rest down
        assert rep.max_residual == 0.0
        assert np.max(rep.residuals[1:]) < 0.0

    @pytest.mark.parametrize("forced", [False, True])
    def test_ledger_energies_are_the_snapshots_energies(self, forced):
        """The rule on a run's ledger rows equals the rule on energies
        recomputed from its snapshots, bit for bit."""
        grid = make_grid(2, 16, 2.0 * np.pi)
        forcing = ForcingSpec(mode="trig", terms=(((0.2, 0.0), (1, 0), 0.3),), envelope="cos", rate=1.5)
        params = FluidParams(mu=1e-2, forcing=forcing if forced else ForcingSpec())
        result = run(preset_ic("random-band", grid, params, seed=8, amplitude=0.6), params, T=0.3, snapshots=6)
        ledger = result.report
        got = energy_admissibility(ledger.t, ledger.E, ledger.W)
        times, E = stored_energies(result.series, params)
        want = energy_admissibility(times, E, ledger.W)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.residuals, want.residuals)
        assert (got.max_residual, got.tol, got.admissible) == (want.max_residual, want.tol, want.admissible)

    def test_work_length_mismatch_rejected(self):
        grid = make_grid(1, 16, 1.0)
        rho = np.ones(grid.shape)
        series = series_from(grid, [(0.0, rho, rho[None] * 0.0), (1.0, rho, rho[None] * 0.0)])
        times, E = stored_energies(series, FluidParams())
        with pytest.raises(ValueError, match="align with the snapshot times"):
            energy_admissibility(times, E, work=np.zeros(3))
        with pytest.raises(ValueError, match="align with the snapshot times"):
            energy_admissibility(times, E[:1])


class TestReynoldsQuotient:
    def random_state(self, seed=3):
        grid = make_grid(2, 8, 2.0 * np.pi)
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.2, 2.0, size=grid.shape)
        m = rng.normal(0.0, 0.5, size=(2,) + grid.shape)
        return make_state(grid, rho, m)

    def test_entries_match_direct_quotient(self):
        st = self.random_state()
        theta = 0.9
        q = reynolds_quotient(st, theta)
        rho = st.rho.values
        m = st.m.values
        mask = rho < theta
        for a in range(2):
            for b in range(2):
                expect = np.where(mask, 0.0, m[a] * m[b] / np.where(mask, 1.0, rho))
                assert np.max(np.abs(q.M[a, b] - expect)) < 1e-15
        assert np.array_equal(q.mask, mask)
        assert abs(q.vacuum_fraction - float(np.mean(mask))) < 1e-16

    def test_trace_is_kinetic_quotient(self):
        st = self.random_state(seed=8)
        q = reynolds_quotient(st, theta=0.5)
        trace = q.M[0, 0] + q.M[1, 1]
        assert np.max(np.abs(q.V - trace)) == 0.0
        off = np.abs(q.M[0, 1] - q.M[1, 0])
        assert np.max(off) == 0.0

    def test_threshold_above_density_masks_everything(self):
        st = self.random_state(seed=9)
        q = reynolds_quotient(st, theta=10.0)
        assert q.vacuum_fraction == 1.0
        assert np.max(np.abs(q.M)) == 0.0
        assert np.max(np.abs(q.V)) == 0.0

    def test_nonpositive_threshold_rejected(self):
        st = self.random_state(seed=10)
        with pytest.raises(ValueError, match="theta must be positive"):
            reynolds_quotient(st, theta=0.0)
