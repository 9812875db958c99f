"""Rules defined once, against the per-module copies they replaced.

The space-time L^p kernel must reproduce the modulus, distance and
integrability loops; the grid's trig sampler the forcing and
test-function loops; its grad_sq the smallness table's |rfft(u)|^2 form
(to round-off); FluidParams' closure the inline velocity floor and
pressure law; check_closure the gamma and kappa rule of FluidParams and
the weighted bundle; snapshot_step the sweep's copy of the fixed-step
rule.
The replaced forms are kept here as test-only references.
"""

import math

import numpy as np
import pytest

from baroflow import solver
from baroflow.diagnostics import (
    TestFunction,
    space_modulus,
    spacetime_lp,
    time_integrated_spectrum,
    time_modulus,
    trapezoid_weights,
)
from baroflow.fields import RHO_TOLERANCE, Field, make_grid, weighted_fields
from baroflow.solver import FluidParams, ForcingSpec, State, total_energy
from baroflow.sweep import plan_sweep, run_sweep, series_distance, viscous_smallness

KERNEL_REL = 1e-14
# grid.grad_sq squares the real and imaginary parts, the reference |.|
SMALLNESS_REL = 1e-13


# ------------------------------------------------------------ references


def reference_difference_moduli(diffs, p_rho, dxd):
    gr = gm = 0.0
    for w, dr, dm in diffs:
        gr += w * float(np.sum(np.abs(dr) ** p_rho)) * dxd
        gm += w * float(np.sum(dm**2)) * dxd
    return gr, gm


def reference_series_distance(a, b, p1, p2):
    grid = a.grid
    dxd = grid.dx**grid.d
    acc_r = acc_m = 0.0
    for sa, sb, wi in zip(a, b, trapezoid_weights(a.times)):
        dr = sa.rho.values - sb.rho.values
        dm = sa.m.values - sb.m.values
        acc_r += wi * float(np.sum(np.abs(dr) ** p1)) * dxd
        # spacetime_lp's p = 2 sums the squares directly, with no magnitude's root to square again
        mm = np.sum(dm * dm) if p2 == 2.0 else np.sum(np.sqrt(np.sum(dm**2, axis=0)) ** p2)
        acc_m += wi * float(mm) * dxd
    return acc_r ** (1.0 / p1), acc_m ** (1.0 / p2)


def reference_integrability(series, params, q1, q2, q):
    dxd = series.grid.dx**series.grid.d
    acc_r = acc_m = acc_w = 0.0
    for st, w in zip(series, trapezoid_weights(series.times)):
        acc_r += w * float(np.sum(np.abs(st.rho.values) ** q1)) * dxd
        mmag = np.sqrt(np.sum(st.m.values**2, axis=0))
        acc_m += w * float(np.sum(mmag**q2)) * dxd
        wf = weighted_fields(st.rho, st.m, params.gamma, params.kappa, params.rho_min)
        wmag = np.sqrt(np.sum(wf.values**2, axis=0))
        acc_w += w * float(np.sum(wmag**q)) * dxd
    return acc_r ** (1.0 / q1), acc_m ** (1.0 / q2), acc_w ** (1.0 / q)


def reference_smallness_grad(entry):
    """||grad u||_{L^2 t,x} of one sweep entry, squaring |rfft(u)|."""
    series = entry.result.series
    grid = series.grid
    k2_deriv = sum(np.abs(ik) ** 2 for ik in grid.ik_half)  # Nyquist zeroed
    g = [grid.parseval(k2_deriv * np.abs(grid.rfft(entry.params.velocity(st.rho.values, st.m.values))) ** 2)
         for st in series]
    return math.sqrt(max(float(np.trapezoid(np.array(g), x=series.times)), 0.0))


def reference_forcing_spatial(spec, grid):
    out = np.zeros((grid.d,) + grid.shape)
    if not spec.active:
        return out
    coords = grid.axes_coordinates()
    for amps, mode_vec, phase in spec.terms:
        arg = np.full(grid.shape, phase)
        for axis in range(grid.d):
            arg = arg + (2.0 * np.pi / grid.P) * mode_vec[axis] * coords[axis]
        c = np.cos(arg)
        for axis in range(grid.d):
            out[axis] += amps[axis] * c
    return out


def reference_test_function_parts(grid, terms, components):
    coords = grid.axes_coordinates()
    d = grid.d
    space = np.zeros((components,) + grid.shape)
    grad = np.zeros((components, d) + grid.shape)
    for amps, mode_vec, phase in terms:
        arg = np.full(grid.shape, phase)
        kvec = [2.0 * np.pi / grid.P * v for v in mode_vec]
        for axis in range(d):
            arg = arg + kvec[axis] * coords[axis]
        c, s = np.cos(arg), np.sin(arg)
        for comp in range(components):
            space[comp] += amps[comp] * c
            for axis in range(d):
                grad[comp, axis] += -amps[comp] * kvec[axis] * s
    return space, grad


# ---------------------------------------------------------------- series


def _terms(d, components):
    amps = [tuple(0.05 * (1 + c + i) * (-1) ** i for c in range(components)) for i in range(3)]
    modes = [(1,) + (0,) * (d - 1), (0,) * (d - 1) + (2,), (1,) * d]
    return tuple(zip(amps, modes, (0.0, 0.4, -1.3)))


@pytest.fixture(scope="module", params=(1, 2, 3), ids=lambda d: f"{d}d")
def sweep(request):
    d = request.param
    n = {1: 32, 2: 16, 3: 8}[d]
    forcing = ForcingSpec(mode="trig", terms=_terms(d, d), envelope="cos", rate=2.0)
    plan = plan_sweep(
        0.04, 0.5, 2, d=d, n=n, P=5.0, ic="random-band", ic_seed=20 + d, ic_amplitude=0.6,
        T=0.2, snapshots=8, forcing=forcing,
    )
    return run_sweep(plan)


def _rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------- kernel


def test_kernel_matches_difference_moduli(sweep):
    series = sweep.entries[0].result.series
    grid = series.grid
    tw = trapezoid_weights(series.times)
    for p_rho in (1.0, 1.4, 2.0):
        diffs = [(w, np.roll(st.rho.values, -1, 0) - st.rho.values, np.roll(st.m.values, -1, 1) - st.m.values)
                 for st, w in zip(series, tw)]
        gr, gm = spacetime_lp(grid, diffs, (p_rho, 2.0))
        want_r, want_m = reference_difference_moduli(diffs, p_rho, grid.dx**grid.d)
        assert gr == want_r
        assert _rel(gm, want_m) <= KERNEL_REL


def test_l2_kernel_equals_the_magnitude_form(sweep):
    series = sweep.entries[0].result.series
    grid = series.grid
    dxd = grid.dx**grid.d
    rows = [(w, st.rho.values, st.m.values) for st, w in zip(series, trapezoid_weights(series.times))]
    got_r, got_m = spacetime_lp(grid, rows, (2.0, 2.0))
    want_r = sum(w * float(np.sum(np.abs(r) ** 2.0)) * dxd for w, r, _ in rows)
    want_m = sum(w * float(np.sum(np.sqrt(np.sum(m**2, axis=0)) ** 2.0)) * dxd for w, _, m in rows)
    assert _rel(got_r, want_r) <= KERNEL_REL
    assert _rel(got_m, want_m) <= KERNEL_REL


def test_moduli_tables_match_reference(sweep):
    series, params = sweep.entries[0].result.series, sweep.entries[0].params
    grid = series.grid
    dxd = grid.dx**grid.d
    times = series.times
    sm = space_modulus(series, params, (1, 2))
    for k, s in enumerate((1, 2)):
        diffs = [(w, np.roll(st.rho.values, -s, 0) - st.rho.values, np.roll(st.m.values, -s, 1) - st.m.values)
                 for st, w in zip(series, trapezoid_weights(times))]
        want_r, want_m = reference_difference_moduli(diffs, params.gamma, dxd)
        assert sm.density[k] == want_r
        assert _rel(sm.momentum[k], want_m) <= KERNEL_REL
    tm = time_modulus(series, params, (1, 3))
    for k, j in enumerate((1, 3)):
        tw = trapezoid_weights(times[: len(times) - j])
        diffs = [(w, series[i + j].rho.values - series[i].rho.values,
                  series[i + j].m.values - series[i].m.values) for i, w in enumerate(tw)]
        want_r, want_m = reference_difference_moduli(diffs, params.gamma, dxd)
        assert tm.density[k] == want_r
        assert _rel(tm.momentum[k], want_m) <= KERNEL_REL


@pytest.mark.parametrize("p1, p2", [(1.4, 2.0), (1.0, 1.0), (2.5, 3.0)])
def test_series_distance_is_bit_identical(sweep, p1, p2):
    a, b = (e.result.series for e in sweep.entries)
    assert series_distance(a, b, p1, p2) == reference_series_distance(a, b, p1, p2)


def test_integrability_matches_weighted_bundle(sweep):
    series, params = sweep.entries[1].result.series, sweep.entries[1].params
    q1, q2, q = 1.9, 2.5, 3.0
    rep = time_integrated_spectrum(series, params, (q1, q2, q)).integrability
    want_r, want_m, want_w = reference_integrability(series, params, q1, q2, q)
    assert (rep.rho_norm, rep.m_norm, rep.w_norm) == (want_r, want_m, want_w)


def test_smallness_matches_the_magnitude_form(sweep):
    table = viscous_smallness(sweep)
    for row, entry in zip(table.rows, sweep.entries):
        want = reference_smallness_grad(entry)
        assert _rel(row.grad_u_l2, want) <= SMALLNESS_REL
        assert _rel(row.mu_grad, entry.mu * want) <= SMALLNESS_REL
        assert _rel(row.sqrt_mu_grad, math.sqrt(entry.mu) * want) <= SMALLNESS_REL


# ---------------------------------------------------------------- trig sampler


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("P", (2.0 * np.pi, 1.7))
def test_forcing_spatial_is_bit_identical(d, P):
    grid = make_grid(d, 8, P)
    spec = ForcingSpec(mode="trig", terms=_terms(d, d))
    assert np.array_equal(spec.spatial(grid), reference_forcing_spatial(spec, grid))
    assert np.array_equal(ForcingSpec().spatial(grid), np.zeros((d,) + grid.shape))


def test_forcing_spatial_builds_no_gradient(traced_peak):
    # the cos fields are summed as they are sampled: a traced peak of the d
    # result fields, one mode's phase, cos and sin, and one product, where
    # building trig_sum's d x d gradient too read 4.32 MiB at 32^3
    grid = make_grid(3, 32, 2.0 * np.pi)
    spec = ForcingSpec(mode="trig", terms=_terms(3, 3))
    field = 8 * 32**3
    traced_peak(lambda: spec.spatial(grid))
    assert traced_peak(lambda: spec.spatial(grid)) <= (3 + 5) * field


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("components", (1, 2, 3))
def test_test_function_parts_are_bit_identical(d, components):
    # a test function takes one term; the sampler sums any number of them
    grid = make_grid(d, 8, 1.7)
    terms = sum((TestFunction(grid=grid, T0=1.0, terms=(term,), components=components).terms
                 for term in _terms(d, components)), ())
    space, grad = reference_test_function_parts(grid, terms, components)
    got_space, got_grad = grid.trig_sum(terms, components)
    assert np.array_equal(got_space, space)
    assert np.array_equal(got_grad, grad)


def test_sampler_rejects_mismatched_terms():
    grid = make_grid(2, 8, 1.0)
    with pytest.raises(ValueError, match="term shape"):
        ForcingSpec(mode="trig", terms=(((0.1,), (1, 0), 0.0),)).spatial(grid)


# ---------------------------------------------------------------- closure and step rule


def test_closure_methods_match_inline_forms():
    grid = make_grid(2, 8, 1.0)
    rng = np.random.default_rng(4)
    rho = rng.uniform(0.5, 1.5, grid.shape)
    rho[0, 0], rho[1, 1], rho[2, 2] = 0.0, -1e-13, 5e-4  # at, below and above zero, under rho_min
    m = rng.standard_normal((2,) + grid.shape)
    params = FluidParams(gamma=1.6, kappa=0.7, mu=0.01, rho_min=1e-3)
    assert np.array_equal(params.velocity(rho, m), m / np.maximum(rho, params.rho_min))
    assert np.array_equal(params.pressure(rho), params.kappa * np.maximum(rho, 0.0) ** params.gamma)
    state = State(t=0.0, rho=Field(grid=grid, values=rho), m=Field(grid=grid, values=m))
    r = np.maximum(rho, params.rho_min)
    internal = params.kappa * np.maximum(rho, 0.0) ** params.gamma / (params.gamma - 1.0)
    want = 0.5 * np.sum(m**2, axis=0) / r + internal
    assert total_energy(state, params) == float(np.sum(want)) * grid.dx**grid.d


def test_state_checks_density_but_the_rhs_does_not():
    grid = make_grid(1, 8, 1.0)
    params = FluidParams(mu=0.01)
    rho = np.ones(grid.shape)
    rho[3] = -1e-6
    with pytest.raises(ValueError, match="density below tolerance"):
        State(t=0.0, rho=Field(grid=grid, values=rho), m=Field(grid=grid, values=np.zeros((1,) + grid.shape)))
    # A stage value below zero is the run's to report as a blow-up, not a crash.
    fields = np.concatenate((rho[None], np.zeros((1,) + grid.shape)))
    stepper = solver._Stepper(grid, params)
    out_h, _, _ = stepper.rhs(stepper.take(grid.rfft(fields)), fields, 0.0, stepper.k)
    assert np.all(np.isfinite(out_h))


def test_one_density_tolerance():
    # State, the run's health check and the weighted bundle share one bound
    grid = make_grid(1, 8, 1.0)
    m = Field(grid=grid, values=np.zeros((1,) + grid.shape))
    for low, ok in ((-RHO_TOLERANCE, True), (-2.0 * RHO_TOLERANCE, False)):
        rho = np.ones(grid.shape)
        rho[3] = low
        checks = (
            (ValueError, "density below tolerance", lambda: State(t=0.0, rho=Field(grid=grid, values=rho), m=m)),
            (solver.BlowUpError, "density lost positivity", lambda: solver._check_alive(rho, m.values, 0.0)),
            (ValueError, "negative values beyond tolerance",
             lambda: weighted_fields(Field(grid=grid, values=rho), m, 1.4, 1.0, 1e-10)),
        )
        for error, message, check in checks:
            if ok:
                check()
            else:
                with pytest.raises(error, match=message):
                    check()


@pytest.mark.parametrize("gamma, kappa, message", [
    (math.nan, 1.0, "gamma must exceed 1"),
    (1.0, 1.0, "gamma must exceed 1"),
    (1.4, math.nan, "kappa must be positive"),
    (1.4, 0.0, "kappa must be positive"),
])
def test_one_closure_rule(gamma, kappa, message):
    # FluidParams and the weighted bundle reject the same constants, NaN
    # included: a NaN gamma would pass 1**nan == 1 through the bundle
    grid = make_grid(1, 8, 1.0)
    rho = Field(grid=grid, values=np.ones(grid.shape))
    m = Field(grid=grid, values=np.zeros((1,) + grid.shape))
    for check in (lambda: FluidParams(gamma=gamma, kappa=kappa), lambda: weighted_fields(rho, m, gamma, kappa)):
        with pytest.raises(ValueError, match=message):
            check()


def test_snapshot_step_is_the_largest_dividing_step():
    for spacing, stable in ((0.1, 0.03), (0.1, 0.025), (1.0, 2.0), (0.3, 0.3 / 7)):
        per, dt = solver.snapshot_step(spacing, stable, 1)
        assert dt == spacing / per and dt <= stable * (1 + 1e-12)
        assert per == 1 or spacing / (per - 1) > stable


def test_snapshot_step_rejects_a_run_past_the_step_bound():
    # 2 * MAX_STEPS steps, 2 * MAX_STEPS intervals of 2 steps, 4e302 steps, an infinite ratio
    for stable, snapshots in ((2.0 / solver.MAX_STEPS, 4), (0.5, 2 * solver.MAX_STEPS), (1e-302, 4), (5e-324, 1)):
        with pytest.raises(ValueError, match=rf"^the run needs .* steps of the stable step {stable:.3e}, more "
                                             rf"than the {solver.MAX_STEPS} a run may take$"):
            solver.snapshot_step(1.0, stable, snapshots)
    assert solver.snapshot_step(1.0, 2.0 / solver.MAX_STEPS, 1)[0] == solver.MAX_STEPS // 2  # half the bound runs


def test_sweep_shares_the_runs_step(sweep):
    assert all(e.result.dt == sweep.shared_dt for e in sweep.entries)
