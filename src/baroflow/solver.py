"""Pseudo-spectral solver for compressible barotropic flow on the torus.

Evolves density rho and momentum m = rho*u under

    d_t rho + div m                          = 0
    d_t m   + div(m x u) + grad p(rho)       = div Sigma + rho*f

with pressure p = kappa*rho^gamma and Newtonian stress
Sigma = 2*mu*D(grad u) + lam*(div u)*I.  Derivatives are spectral,
quadratic fluxes are two-thirds-rule dealiased, time stepping is
classical RK4 with a fixed dt chosen from the initial CFL state.
The cumulative dissipation D(t) and forcing work W(t) ride along as
extra RK4 variables so the energy ledger closes at the scheme's order.

The RK4 state is kept as the coefficients (rho^, m^) on the grid's half
lattice.  Each RHS makes one batched inverse of the d + 1 stage fields and
forward transforms of u (d fields) and of the symmetric flux
Pi = m x u + p*I (d(d+1)/2): 8 real-field transforms in 2D, 13 in 3D.
The forcing product rho*f is rho^ shifted by the forcing modes
(PeriodicGrid.trig_shift), exact for the grid product.  Each step's
inverse is checked for blow-up and feeds the next first stage.

rhs, step and run each build one stepper (_Stepper) and drop it when
they return.  It owns the call's grid, fluid, forcing and extra source,
whether the ledger rates ride along (run's only), and the buffers the
stages write into: the stage coefficients and their samples, the
velocity, pressure and flux with their forward transforms, the assembled
increment and the product scratch; the forcing shift's gathered and
moved modes take the flux coefficients' memory once those are summed.
The four increments collapse into a running sum, in the classical
formula's order, held by the step's own result array; an increment,
once summed, takes the complex passes of the next inverse.  No buffer
outlives the call that built it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import RHO_TOLERANCE, Field, PeriodicGrid, check_closure, trig_terms

__all__ = [
    "ForcingSpec",
    "FluidParams",
    "State",
    "EnergyReport",
    "SnapshotSeries",
    "BlockSeries",
    "collect_pass",
    "block_pass",
    "times_pass",
    "RunResult",
    "BlowUpError",
    "MassDriftError",
    "sonic_speed",
    "rhs",
    "cfl_dt",
    "step",
    "snapshot_step",
    "run_window",
    "run",
    "preset_ic",
]

BLOWUP_THRESHOLD = 1e12


class BlowUpError(RuntimeError):
    """Raised when a run leaves the representable regime."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class MassDriftError(BlowUpError):
    """Raised when a run ends with its total mass changed beyond round-off."""


@dataclass(frozen=True)
class ForcingSpec:
    """Momentum forcing f(t, x) as a finite trigonometric sum.

    Each term is (amplitudes, mode, phase): a length-d amplitude vector,
    an integer mode vector, and a scalar phase, contributing
    amplitudes * cos(k.x + phase).  The shared time envelope is
    "const" (1, with rate 0), "cos" (cos(rate*t)) or "exp" (exp(-rate*t)).
    """

    mode: str = "none"
    terms: tuple = ()
    envelope: str = "const"
    rate: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "trig"):
            raise ValueError(f"forcing mode must be 'none' or 'trig', got {self.mode!r}")
        if self.envelope not in ("const", "cos", "exp"):
            raise ValueError(f"unknown envelope {self.envelope!r}")
        if self.mode == "trig" and not self.terms:
            raise ValueError("trig forcing requires at least one term")
        if self.mode != "trig" and (self.terms or self.envelope != "const" or self.rate != 0.0):
            raise ValueError("forcing terms, envelope and rate need mode 'trig'")
        if self.envelope == "const" and self.rate != 0.0:
            raise ValueError(f"the const envelope takes no rate, got {self.rate}")
        object.__setattr__(self, "terms", trig_terms(self.terms))

    @property
    def active(self) -> bool:
        return self.mode != "none"

    def envelope_at(self, t: float) -> float:
        if self.envelope == "const":
            return 1.0
        if self.envelope == "cos":
            return math.cos(self.rate * t)
        return math.exp(-self.rate * t)

    def spatial(self, grid: PeriodicGrid) -> np.ndarray:
        """The time-independent factor of f: the term sum without the
        envelope, shape (d,) + grid.shape (zeros when inactive)."""
        return grid.trig_sum(self.terms, grid.d)[0]


@dataclass(frozen=True)
class FluidParams:
    """Barotropic fluid constants.

    lam defaults to -(2/3)*mu; pass lam explicitly to override.  The
    combination lam + 2*mu must stay positive for mu > 0, which also
    keeps the dissipation integral nonnegative.  mu = 0 is allowed only
    as an inviscid reference (lam must then vanish too).
    """

    gamma: float = 1.4
    kappa: float = 1.0
    mu: float = 1e-3
    lam: float = None
    rho_min: float = 1e-10
    forcing: ForcingSpec = field(default_factory=ForcingSpec)

    def __post_init__(self):
        check_closure(self.gamma, self.kappa)
        if not (self.mu >= 0):
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not (self.rho_min > 0):
            raise ValueError(f"rho_min must be positive, got {self.rho_min}")
        lam = -(2.0 / 3.0) * self.mu if self.lam is None else float(self.lam)
        object.__setattr__(self, "lam", lam)
        if self.mu > 0:
            if not (lam + 2.0 * self.mu > 0):
                raise ValueError(f"lam + 2*mu must be positive, got {lam + 2.0 * self.mu}")
        elif lam != 0.0:
            raise ValueError("mu = 0 requires lam = 0 (inviscid reference mode)")

    def velocity(self, rho: np.ndarray, m: np.ndarray, out=None, floor=None) -> np.ndarray:
        """u = m / max(rho, rho_min), the floored velocity; out and floor,
        if given, take u and the floored density."""
        return np.divide(m, np.maximum(rho, self.rho_min, out=floor), out=out)

    def pressure(self, rho: np.ndarray, out=None) -> np.ndarray:
        """Barotropic pressure kappa * max(rho, 0)^gamma, unchecked: State rejects
        negative density, and a negative RK4 stage is the run's to report.
        out, if given, takes the result."""
        p = np.maximum(rho, 0.0, out=out)
        p **= self.gamma
        p *= self.kappa
        return p


@dataclass(frozen=True)
class State:
    """Flow snapshot: time, scalar density and d-component momentum.

    coef is None except while run sends the State to its store: then it is
    the stacked half-lattice coefficients (rho^, m^) whose grid.irfft gave
    the samples, for block_pass.  Equality and repr ignore it."""

    t: float
    rho: Field
    m: Field
    coef: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.rho.is_scalar:
            raise ValueError("rho must be a scalar field")
        if self.m.components != self.grid.d:
            raise ValueError(f"momentum needs {self.grid.d} components, got {self.m.components}")
        if self.m.grid != self.rho.grid:
            raise ValueError("rho and m live on different grids")
        if float(np.min(self.rho.values)) < -RHO_TOLERANCE:
            raise ValueError(f"density below tolerance: min {np.min(self.rho.values):.3e}")

    @property
    def grid(self) -> PeriodicGrid:
        return self.rho.grid


@dataclass(frozen=True)
class EnergyReport:
    """Ledger rows (t, E, D, W, R) with R = E + D - E0 - W.

    E(t) is the box-integrated total energy, D the accumulated viscous
    dissipation, W the accumulated forcing work.  M_T records the
    largest E(t) + D(t) seen, the empirical energy-estimate constant.
    """

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    W: np.ndarray
    R: np.ndarray
    E0: float
    M_T: float


@dataclass(frozen=True)
class SnapshotSeries:
    """Uniformly spaced snapshots of one run."""

    states: tuple

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("series needs at least one snapshot")
        ts = [s.t for s in self.states]
        if not all(b > a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot times must increase strictly")
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def grid(self) -> PeriodicGrid:
        return self.states[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i):
        return self.states[i]


def collect_pass(count: int):
    """run's default store, a feed pass (diagnostics.feed) that keeps the
    count States it is sent and answers with their SnapshotSeries."""
    states = []
    for _ in range(count):
        states.append((yield))
    yield SnapshotSeries(states=tuple(states))


@dataclass(frozen=True)
class BlockSeries:
    """The series block_pass keeps, read lazily like snapshots.StoredSeries:
    held has one entry per time, a State or the two-thirds block, shape
    (d + 1, len(grid.dealias_modes)), of a State's coefficients, whose
    other modes are outer, shared.  Iterating rebuilds each blocked State
    by the run's own grid.irfft of those coefficients, so every sample is
    the run's to the bit; no rebuilt State is kept."""

    grid: PeriodicGrid
    times: np.ndarray
    held: tuple
    outer: np.ndarray  # None when no State is blocked

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        grid = self.grid
        outside = np.flatnonzero(~grid.dealias_half)
        for t, item in zip(self.times.tolist(), self.held):
            if isinstance(item, State):
                yield item
                continue
            coef = np.empty((grid.d + 1,) + grid.half_shape, dtype=np.complex128)
            for row, block, outer in zip(coef.reshape(grid.d + 1, -1), item, self.outer):
                row[grid.dealias_modes] = block
                row[outside] = outer
            yield _state(t, grid, grid.irfft(coef, scratch=coef))  # coef is spent on the complex passes


def block_pass(count: int):
    """A feed pass like collect_pass that holds a run's States in about a
    third of their samples' bytes in 3D: each State that carries its
    coefficients (State.coef) is kept as their two-thirds block when its
    other modes equal those of the first such State bit for bit (compared
    as int64), and every other State as it is: the initial state, and a run
    with an extra source, which moves those modes.  It answers with their
    BlockSeries."""
    times, held, outer = [], [], None
    for _ in range(count):
        st = yield
        grid = st.grid
        times.append(st.t)
        if st.coef is not None:  # C-ordered copies of its modes, no view of it
            other = np.take(st.coef.reshape(grid.d + 1, -1), np.flatnonzero(~grid.dealias_half), axis=1)
            outer = other if outer is None else outer
            if np.array_equal(other.view(np.int64), outer.view(np.int64)):
                st = np.take(st.coef.reshape(grid.d + 1, -1), grid.dealias_modes, axis=1)
        held.append(st)
    yield BlockSeries(grid=grid, times=np.array(times), held=tuple(held), outer=outer)


def times_pass(count: int):
    """A feed pass that keeps no State, for a run whose States are not read
    afterwards: it answers with the times of the count States, an array."""
    times = []
    for _ in range(count):
        times.append((yield).t)
    yield np.array(times)


@dataclass(frozen=True)
class RunResult:
    series: SnapshotSeries  # or whatever else run's store answers with
    report: EnergyReport
    dt: float
    steps_per_snapshot: int


def sonic_speed(rho: np.ndarray, params: FluidParams) -> np.ndarray:
    """Sonic weight c with c^2 = p/rho = kappa*rho^(gamma-1).

    The characteristic speed of the pressure system is sqrt(gamma)*c;
    the CFL bound uses that corrected value.
    """
    r = np.maximum(np.asarray(rho, dtype=np.float64), 0.0)
    return math.sqrt(params.kappa) * r ** (0.5 * (params.gamma - 1.0))


def _fields(state: State) -> np.ndarray:
    """(rho, m) stacked as d + 1 real fields."""
    return np.concatenate((state.rho.values[None], state.m.values))


def _state(t: float, grid: PeriodicGrid, fields: np.ndarray, coef=None) -> State:
    """The State on fields, a fresh (d + 1)-field array of the solver's that
    it only reads from then on: frozen and taken without a copy."""
    fields.setflags(write=False)
    return State(t=t, rho=Field._adopt(grid, fields[0]), m=Field._adopt(grid, fields[1:]), coef=coef)


class _Stepper:
    """One call's RK4 stepper of the half-lattice state (rho^, m^): its grid,
    fluid, extra source, forcing mode shift, ledger flag and stage buffers
    (module docstring).  Only a ledger stepper builds the forcing's spatial
    factor, for the work rate.  Forcing modes must pass grid.dealiased_terms:
    the shift maps onto dealiased modes only."""

    def __init__(self, grid: PeriodicGrid, params: FluidParams, extra_source=None, ledger=False):
        d = grid.d
        self.grid, self.params, self.extra_source, self.ledger = grid, params, extra_source, ledger
        forcing = params.forcing
        self.force_xy = forcing.spatial(grid) if forcing.active and ledger else None
        self.pairs = [(a, b) for a in range(d) for b in range(a, d)]
        self.slot = {pair: i for i, pair in enumerate(self.pairs)}
        real = lambda *lead: np.empty(lead + grid.shape)
        half = lambda *lead: np.empty(lead + grid.half_shape, dtype=np.complex128)
        self.stage_h, self.k, self.stage = half(d + 1), half(d + 1), real(d + 1)
        self.u, self.p, self.flux = real(d), real(), real(len(self.pairs))
        self.u_h, self.flux_h = half(d), half(len(self.pairs))
        self.div_u_h, self.tmp = half(), half()
        # the shift's buffers, in flux_h's memory when they fit: the flux
        # coefficients are dead once the increments are assembled
        self.force = (grid.trig_shift(grid.dealiased_terms(forcing.terms), d, scratch=self.flux_h)
                      if forcing.active else None)
        self.mu_k2 = params.mu * grid.k2_half
        # the rates' squared real and imaginary parts, in flux_h's memory too
        size = d * math.prod(grid.half_shape)
        flat = self.flux_h.reshape(-1).view(np.float64)
        self.re2, self.im2 = (flat[i * size:(i + 1) * size].reshape((d,) + grid.half_shape) for i in (0, 1))

    def rhs(self, state_h, state, t, out):
        """Spectral time derivative of the half-lattice state (rho^, m^),
        shape (d + 1,) + grid.half_shape, whose samples are state, written
        into out, and the dissipation and forcing-work rates (zeros without
        the ledger).  Returns (out, dissipation rate, work rate).

        out, shaped like state_h, may be self.k but no other buffer of the
        stepper, nor state_h.  The increments are dealiased except for the
        extra source, whose physical source is transformed as it is.
        """
        grid, params, tmp = self.grid, self.params, self.tmp
        ik, d = grid.ik_half, grid.d
        rho, m = state[0], state[1:]
        u = params.velocity(rho, m, out=self.u, floor=self.p)
        p = params.pressure(rho, out=self.p)

        # Symmetric flux Pi_ab = m_a u_b + p delta_ab, upper triangle only.
        flux = self.flux
        for i, (a, b) in enumerate(self.pairs):
            np.multiply(m[a], u[b], out=flux[i])
            if a == b:
                flux[i] += p

        u_h = grid.rfft(u, out=self.u_h)
        flux_h = grid.rfft(flux, out=self.flux_h)

        div_u_h = np.multiply(ik[0], u_h[0], out=self.div_u_h)
        for a in range(1, d):
            div_u_h += np.multiply(ik[a], u_h[a], out=tmp)

        np.multiply(-ik[0], state_h[1], out=out[0])
        for a in range(1, d):
            out[0] -= np.multiply(ik[a], state_h[1 + a], out=tmp)
        for a in range(d):
            acc = out[1 + a]
            np.multiply((params.mu + params.lam) * ik[a], div_u_h, out=acc)
            acc -= np.multiply(self.mu_k2, u_h[a], out=tmp)
            for b in range(d):
                acc -= np.multiply(ik[b], flux_h[self.slot[(min(a, b), max(a, b))]], out=tmp)
        out *= grid.dealias_half

        work_rate = 0.0
        if self.force is not None:
            targets, shift = self.force
            envelope = params.forcing.envelope_at(t)
            moved = shift(state_h[0])
            moved *= envelope
            np.add.at(out[1:].reshape(-1), targets, moved)  # unbuffered; the targets are distinct
            if self.ledger:
                product = np.multiply(self.force_xy, envelope, out=flux[:d])  # the flux is transformed
                product *= m
                work_rate = float(np.sum(product)) * grid.dx**d

        if self.extra_source is not None:
            source = np.empty_like(state)
            source[0], source[1:] = self.extra_source(t, rho, m)
            out += grid.rfft(source)

        if not self.ledger:
            return out, 0.0, 0.0

        # Parseval forms of int |grad u|^2 dx and int (div u)^2 dx.  The first
        # keeps the Nyquist mode that grid.grad_sq zeroes: it is -int u . lap u,
        # with the diffusion term's Laplacian symbol -k2, which is unambiguous
        # at the Nyquist mode (only odd derivatives zero it there).
        re2, im2 = self.re2, self.im2
        power = np.add(np.square(u_h.real, out=re2), np.square(u_h.imag, out=im2), out=re2)
        grad_sq = grid.parseval(np.multiply(grid.k2_half, power, out=power))
        power = np.add(np.square(div_u_h.real, out=re2[0]), np.square(div_u_h.imag, out=im2[0]), out=re2[0])
        div_sq = grid.parseval(power)
        diss_rate = params.mu * grad_sq + (params.mu + params.lam) * div_sq
        return out, diss_rate, work_rate

    def advance(self, state_h, state, t, dt):
        """One classical RK4 step of the half-lattice state (rho^, m^) whose
        samples are state; returns the new coefficients, their samples, dD
        and dW.  The samples feed the next step's first stage.

        The new coefficients are a fresh array that takes k1, then the
        running sum k1 + 2 k2 + 2 k3 + k4 in the order of the classical
        formula; the returned arrays are never stepper buffers, so a later
        step leaves them alone."""
        grid, k, stage_h, stage = self.grid, self.k, self.stage_h, self.stage
        acc = np.empty_like(state_h)

        def to_stage(c, inc, acc=None):
            """stage_h = state_h + c*inc, then acc += 2.0*inc if acc is given,
            then stage_h's samples in stage; k is dead by then and takes the
            inverse's complex passes."""
            np.add(state_h, np.multiply(inc, c, out=stage_h), out=stage_h)
            if acc is not None:
                acc += np.multiply(inc, 2.0, out=inc)
            grid.irfft(stage_h, out=stage, scratch=k)

        _, d1, w1 = self.rhs(state_h, state, t, acc)
        to_stage(0.5 * dt, acc)
        _, d2, w2 = self.rhs(stage_h, stage, t + 0.5 * dt, k)
        to_stage(0.5 * dt, k, acc)
        _, d3, w3 = self.rhs(stage_h, stage, t + 0.5 * dt, k)
        to_stage(dt, k, acc)
        _, d4, w4 = self.rhs(stage_h, stage, t + dt, k)
        acc += k
        sixth = dt / 6.0
        new_h = np.add(state_h, np.multiply(acc, sixth, out=acc), out=acc)
        new = grid.irfft(new_h, scratch=k)
        dD = sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        dW = sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
        _check_alive(new[0], new[1:], t + dt)
        return new_h, new, dD, dW


def rhs(state: State, params: FluidParams, extra_source=None):
    """Time derivative of (rho, m) as Fields (dealiased spectral form)."""
    grid, fields = state.grid, _fields(state)
    stepper = _Stepper(grid, params, extra_source)
    out_h, _, _ = stepper.rhs(grid.rfft(fields), fields, state.t, stepper.k)
    out = grid.irfft(out_h)
    return Field(grid=grid, values=out[0]), Field(grid=grid, values=out[1:])


def total_energy(state: State, params: FluidParams) -> float:
    """Box integral of 0.5|m|^2/rho + kappa*rho^gamma/(gamma-1).

    Builds the energy density and one scratch field.  Each point's
    operations and their order are those of the whole-field expression
    0.5*sum(m**2, axis=0)/max(rho, rho_min) + pressure(rho)/(gamma - 1),
    so E is the same to the bit."""
    rho, m = state.rho.values, state.m.values
    density, scratch = np.square(m[0]), np.empty(rho.shape)
    for a in range(1, len(m)):
        density += np.square(m[a], out=scratch)
    density *= 0.5
    density /= np.maximum(rho, params.rho_min, out=scratch)
    internal = params.pressure(rho, out=scratch)
    internal /= params.gamma - 1.0
    density += internal
    return float(np.sum(density)) * state.grid.dx**state.grid.d


def cfl_dt(state: State, params: FluidParams, cfl: float = 0.4) -> float:
    """Stable step from the advective and viscous limits.

    dt = cfl * min( dx / max(|u| + sqrt(gamma)*c),
                    dx^2 * rho_low / (2 d (2 mu + |lam|)) ),

    where c is the sonic weight and rho_low the floored minimum density
    (the diffusion of u scales with (2 mu + |lam|)/rho).
    """
    if not (0 < cfl <= 1):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    grid = state.grid
    rho = state.rho.values
    u = params.velocity(rho, state.m.values)
    speed = np.sqrt(np.sum(u**2, axis=0)) + math.sqrt(params.gamma) * sonic_speed(rho, params)
    fastest = float(np.max(speed))
    if fastest <= 0:
        raise ValueError("no propagation speed: state is identically at rest with zero density")
    dt_adv = grid.dx / fastest
    visc = 2.0 * params.mu + abs(params.lam)
    if visc > 0:
        rho_low = max(float(np.min(rho)), params.rho_min)
        dt_visc = grid.dx**2 * rho_low / (2.0 * grid.d * visc)
        dt = cfl * min(dt_adv, dt_visc)
    else:
        dt = cfl * dt_adv
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"computed step is not usable: {dt}")
    return dt


def _check_alive(rho, m, t):
    # max |q| as max(max q, -min q), which builds no |q| array
    worst = max(max(float(np.max(q)), -float(np.min(q))) for q in (rho, m))
    if not (math.isfinite(worst) and worst <= BLOWUP_THRESHOLD):
        raise BlowUpError(f"solution magnitude {worst:.3e} at t = {t:.6g} exceeds {BLOWUP_THRESHOLD:.1e}", t=t)
    if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(m)):
        raise BlowUpError(f"non-finite values at t = {t:.6g}", t=t)
    low = float(np.min(rho))
    if low < -RHO_TOLERANCE:
        raise BlowUpError(f"density lost positivity (min rho = {low:.3e}) at t = {t:.6g}", t=t)


def step(state: State, params: FluidParams, dt: float, extra_source=None) -> State:
    """Advance one RK4 step of size dt; mass is conserved to round-off."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid, fields = state.grid, _fields(state)
    _, new, _, _ = _Stepper(grid, params, extra_source).advance(grid.rfft(fields), fields, state.t, dt)
    return _state(state.t + dt, grid, new)


def snapshot_step(spacing: float, dt_stable: float):
    """(steps per snapshot, dt): the largest dt <= dt_stable that divides
    the snapshot spacing into a whole number of steps."""
    per = max(1, math.ceil(spacing / dt_stable - 1e-12))
    return per, spacing / per


def run_window(T: float, snapshots: int):
    """Reject a run window other than a positive, finite horizon T cut into
    at least one snapshot interval."""
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if snapshots < 1:
        raise ValueError(f"need at least one snapshot interval, got {snapshots}")


def run(
    initial: State,
    params: FluidParams,
    T: float,
    snapshots: int = 16,
    cfl: float = 0.4,
    extra_source=None,
    dt_cap: float = None,
    store=None,
) -> RunResult:
    """Integrate over [t0, t0 + T] with a fixed dt locked to the initial
    CFL state, emitting `snapshots` equally spaced snapshot intervals.

    dt divides the snapshot spacing exactly, so snapshot timestamps are
    reproducible across runs sharing (dt, spacing).  dt_cap tightens the
    stability bound, letting several runs agree on one step size.

    store is a feed pass (diagnostics.feed) set up for snapshots + 1
    States, collect_pass's by default: run sends it each snapshot, the
    initial state first, as the run reaches it, and the result's series is
    its answer.  snapshots.write_pass streams them to disk, times_pass keeps
    the times alone, block_pass keeps the coefficients' two-thirds blocks:
    each later State carries its coefficients (State.coef) until the store
    has taken it.  The mass check comes before the last snapshot is sent,
    so a run that raises, blow-up and mass drift included, closes the pass
    before it answers.  So does a store that answers before the last State
    or not on it, with a ValueError.
    """
    run_window(T, snapshots)
    if dt_cap is not None and not dt_cap > 0:
        raise ValueError(f"dt_cap must be positive, got {dt_cap}")
    if params.mu == 0.0:
        warnings.warn(
            "inviscid run (mu = 0): treat as an under-resolved reference only",
            RuntimeWarning,
            stacklevel=2,
        )
    grid = initial.grid
    dt_stable = cfl_dt(initial, params, cfl)
    if dt_cap is not None:
        dt_stable = min(dt_stable, dt_cap)
    per, dt = snapshot_step(T / snapshots, dt_stable)

    fields = _fields(initial)
    fields_h = grid.rfft(fields)
    t0 = initial.t
    count = snapshots + 1
    store = collect_pass(count) if store is None else store

    def send(st, index):
        """store's answer to st, the index-th State: None before the last,
        something on it."""
        of = f"at State {index + 1} of the run's snapshots + 1 = {count}"
        try:
            answer = store.send(st)
        except StopIteration:
            raise ValueError(f"store stopped {of}") from None
        if (answer is None) != (index < count - 1):
            raise ValueError(f"store {'did not answer' if answer is None else 'answered'} {of}")
        return answer

    try:
        next(store)
        send(initial, 0)
        E0 = total_energy(initial, params)
        mass0 = float(np.mean(fields[0]))
        stepper = _Stepper(grid, params, extra_source, ledger=True)

        rows = [(t0, E0, 0.0, 0.0)]  # the ledger's (t, E, D, W)
        D_acc = W_acc = 0.0
        steps_done = 0
        for snap in range(1, snapshots + 1):
            for _ in range(per):
                t_now = t0 + steps_done * dt
                fields_h, fields, dD, dW = stepper.advance(fields_h, fields, t_now, dt)
                D_acc += dD
                W_acc += dW
                steps_done += 1
            t_now = t0 + steps_done * dt
            st = _state(t_now, grid, fields, fields_h)
            if snap == snapshots:
                mass1 = float(np.mean(fields[0]))
                scale = max(abs(mass0), 1e-300)
                if abs(mass1 - mass0) > 1e-10 * scale:
                    raise MassDriftError(f"mass drifted by {abs(mass1 - mass0) / scale:.3e} relative", t=t_now)
            series = send(st, snap)
            object.__setattr__(st, "coef", None)  # no State a pass keeps pins the coefficients
            rows.append((t_now, total_energy(st, params), D_acc, W_acc))
    except BaseException:
        store.close()
        raise

    t_arr, E_arr, D_arr, W_arr = np.array(rows).T
    R_arr = E_arr + D_arr - E0 - W_arr
    report = EnergyReport(
        t=t_arr, E=E_arr, D=D_arr, W=W_arr, R=R_arr,
        E0=E0, M_T=float(np.max(E_arr + D_arr)),
    )
    return RunResult(series=series, report=report, dt=dt, steps_per_snapshot=per)


def _hermitianize(coef):
    """Project complex lattice coefficients onto Hermitian symmetry."""
    flipped = coef.copy()
    for axis in range(coef.ndim):
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    return 0.5 * (coef + np.conj(flipped))


def _band_limited_noise(grid, rng, lo, hi):
    band = (grid.mode_norm >= lo) & (grid.mode_norm <= hi)
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coef = _hermitianize(coef * band)
    vals = np.real(np.fft.ifftn(coef))
    peak = float(np.max(np.abs(vals)))
    return vals / peak if peak > 0 else vals


def preset_ic(name: str, grid: PeriodicGrid, params: FluidParams, seed=None, amplitude: float = 1.0) -> State:
    """Named initial states.

    equilibrium    rho = 1, u = 0
    taylor-green   rho = 1 and the classical cellular vortex (2D/3D)
    acoustic-pulse rho = 1 + 0.1*amplitude*cos(k1.x), u = 0
    random-band    seeded noise confined to modes |k| <= n/8,
                   max |u| = amplitude/2, max drho = amplitude/10

    seed is required by random-band and rejected by the others.
    """
    two_pi = 2.0 * np.pi
    coords = grid.axes_coordinates()
    if name == "equilibrium":
        rho = np.ones(grid.shape)
        m = np.zeros((grid.d,) + grid.shape)
    elif name == "taylor-green":
        if grid.d == 1:
            raise ValueError("taylor-green needs d >= 2")
        X = two_pi * coords[0] / grid.P
        Y = two_pi * coords[1] / grid.P
        u = np.zeros((grid.d,) + grid.shape)
        if grid.d == 2:
            u[0] = amplitude * np.sin(X) * np.cos(Y)
            u[1] = -amplitude * np.cos(X) * np.sin(Y)
        else:
            Z = two_pi * coords[2] / grid.P
            u[0] = amplitude * np.sin(X) * np.cos(Y) * np.cos(Z)
            u[1] = -amplitude * np.cos(X) * np.sin(Y) * np.cos(Z)
        rho = np.ones(grid.shape)
        m = rho * u
    elif name == "acoustic-pulse":
        a = 0.1 * amplitude
        if a >= 1.0:
            raise ValueError(f"pulse amplitude {a} would drive density nonpositive")
        rho = 1.0 + a * np.cos(two_pi * coords[0] / grid.P + np.zeros(grid.shape))
        m = np.zeros((grid.d,) + grid.shape)
    elif name == "random-band":
        if seed is None:  # OS entropy would give a state no record reproduces
            raise ValueError("preset random-band needs a seed")
        rng = np.random.default_rng(seed)
        hi = max(1.0, grid.n / 8.0)
        u = np.empty((grid.d,) + grid.shape)
        for a in range(grid.d):
            u[a] = 0.5 * amplitude * _band_limited_noise(grid, rng, 0.5, hi)
        drho = 0.1 * min(amplitude, 1.0) * _band_limited_noise(grid, rng, 0.5, hi)
        rho = 1.0 + drho
        m = rho * u
    else:
        raise ValueError(f"unknown preset {name!r}")
    if seed is not None and name != "random-band":
        raise ValueError(f"preset {name} takes no seed (random-band only)")
    return State(t=0.0, rho=Field(grid=grid, values=rho), m=Field(grid=grid, values=m))
