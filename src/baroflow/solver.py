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

The RK4 state is the coefficients (rho^, m^): compactly on the two-thirds
block in run without an extra source (run projects its initial state, and
every increment is dealiased), and on the whole half lattice in rhs, step
and run with an extra source, added unprojected.  Each RHS makes one
batched inverse of the d + 1 stage fields (PeriodicGrid.irfft_block on the
block) and forward transforms of u (d fields) and of the symmetric flux
Pi = m x u + p*I, one pair a <= b at a time, on the lines that reach the
block (rfft_block): 8 real-field transforms in 2D, 13 in 3D.  The forcing
product rho*f, and the work rate int f . m dx at the mean mode, are rho^
and m^ shifted by the forcing modes, exact for the grid (trig_shift).  Each
step's inverse is checked for blow-up and feeds the next first stage.

rhs, step and run each build one stepper (_Stepper) and drop it when they
return.  It owns the call's grid, fluid, forcing and extra source, whether
the ledger rates ride along (run's only), ik and mu*k2 on its mode set, and
the buffers the stages write into: there, the stage coefficients, the
increment, u's and div u's modes and the product scratch; the velocity,
pressure and one flux pair; and one half-lattice spare, which takes u's
transform (the ledger's Parseval sums read all of it), a flux pair's passes,
the forcing shifts' modes and an inverse's padded lines in turn.  The step's
own result arrays hold the increments' running sum, in the classical
formula's order, and the stage samples.  No buffer outlives its call.
"""

from __future__ import annotations

import functools
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
# most RK4 steps a run may take, far above any run's few hundred: a finite
# but vanishing stable step is a configuration error, not a run for ever
MAX_STEPS = 10**6


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
        if not math.isfinite(self.rate):
            raise ValueError(f"forcing rate must be finite, got {self.rate}")
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
        try:
            return math.exp(-self.rate * t)
        except OverflowError:
            raise BlowUpError(f"forcing envelope exp(-rate * t) overflows at t = {t:.6g}", t=t) from None

    def spatial(self, grid: PeriodicGrid) -> np.ndarray:
        """The time-independent factor of f: the term sum without the
        envelope, shape (d,) + grid.shape (zeros when inactive): grid.trig_sum's
        sum, one cos field at a time, without the gradient."""
        space = np.zeros((grid.d,) + grid.shape)
        for amps, mode_vec, phase in trig_terms(self.terms, grid.d, grid.d):
            cos = grid.trig_mode(mode_vec, phase)[1]
            for comp in range(grid.d):  # one product field at a time
                space[comp] += amps[comp] * cos
        return space


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
        if not (0 <= self.mu < math.inf):
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu}")
        if not (0 < self.rho_min < math.inf):
            raise ValueError(f"rho_min must be positive and finite, got {self.rho_min}")
        lam = -(2.0 / 3.0) * self.mu if self.lam is None else float(self.lam)
        object.__setattr__(self, "lam", lam)
        if self.mu > 0:
            if not (0 < lam + 2.0 * self.mu < math.inf):
                raise ValueError(f"lam + 2*mu must be positive and finite, got {lam + 2.0 * self.mu}")
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
    the compact two-thirds block of the stacked coefficients (rho^, m^), whose
    grid.irfft_block gave the samples, for block_pass.  Equality and repr ignore it."""

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
    held has one entry per time, a State or a State's coefficients as their
    compact two-thirds block (State.coef), outside which they vanish.
    Iterating rebuilds each blocked State by the run's own grid.irfft_block,
    through one scratch, so every sample is the run's to the bit; no rebuilt
    State is kept."""

    grid: PeriodicGrid
    times: np.ndarray
    held: tuple

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        pad = np.empty((self.grid.d + 1,) + self.grid.shape[:-1] + self.grid.block_shape[-1:], complex)
        for t, item in zip(self.times.tolist(), self.held):
            yield item if isinstance(item, State) else _state(t, self.grid, self.grid.irfft_block(item, scratch=pad))


def block_pass(count: int):
    """A feed pass like collect_pass that holds a run's States in about a
    third of their samples' bytes in 3D: each State that carries its
    coefficients (State.coef), a compact block no later step writes, is kept
    as that array, and every other State as it is.  It answers with their
    BlockSeries."""
    times, held = [], []
    for _ in range(count):
        st = yield
        grid = st.grid
        times.append(st.t)
        held.append(st if st.coef is None else st.coef)
        del st  # a blocked State's samples are not held while run makes the next
    yield BlockSeries(grid=grid, times=np.array(times), held=tuple(held))


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
    """One call's RK4 stepper of (rho^, m^) on its mode set: the compact block
    for a block-supported state (block), else the half lattice (module
    docstring).  Only a ledger stepper reads the forcing modes of m^, for the
    work rate.  Forcing modes must pass grid.dealiased_terms: the shift maps
    onto dealiased modes only.  It holds no samples: advance inverts each stage
    into the samples it returns."""

    def __init__(self, grid: PeriodicGrid, params: FluidParams, extra_source=None, ledger=False, block=True):
        d, h, half = grid.d, grid.half_shape, math.prod(grid.half_shape)
        self.grid, self.params, self.extra_source, self.ledger, self.block = grid, params, extra_source, ledger, block
        self.pairs = [(a, b) for a in range(d) for b in range(a, d)]
        slabs = grid.block_slabs, (((), ()),)  # slab pairs (half lattice, block), and the whole array's
        self.modes, (self.outer, self.inner) = (grid.block_shape, slabs) if block else (grid.half_shape, slabs[::-1])
        real = lambda *lead: np.empty(lead + grid.shape)
        spectral = lambda *lead: np.empty(lead + self.modes, dtype=np.complex128)
        self.stage_h, self.k = spectral(d + 1), spectral(d + 1)
        self.u, self.p, self.flux = real(d), real(), real()
        self.u_h, self.div_u_h, self.tmp = spectral(d), spectral(), spectral()
        self.ik, self.mu_k2 = self.take(grid.ik_half), params.mu * self.take(grid.k2_half)
        # the spare: u's half lattice past the ledger's d + 1 real parts, a flux pair's passes
        # and modes, the shift's gathered and moved modes or an inverse's padded lines, in turn
        terms = grid.dealiased_terms(params.forcing.terms) if params.forcing.active else ()
        lead, pad = ((d + 1) * half + 1) // 2 if ledger else 0, (d + 1,) + grid.shape[:-1] + self.modes[-1:]
        self.spare = np.empty(max(lead + d * half, half + math.prod(self.modes), math.prod(pad),
                                  (2 * len(terms) + d) * len(grid.dealias_modes)), np.complex128)
        lay = lambda buf, *shape: buf[: math.prod(shape)].reshape(shape)  # views of the spare
        self.whole, self.passes = lay(self.spare[lead:], d, *h), lay(self.spare, *h)
        self.parts, self.flux_h = lay(self.spare.view(float), d + 1, *h), lay(self.spare[half:], *self.modes)
        self.force = grid.trig_shift(terms, d, self.spare, block=block) if terms else None
        self.work = grid.trig_shift(terms, d, self.spare, np.zeros(1, np.intp), block) if ledger and terms else None
        self.k2_weight = grid.k2_half * grid.parseval_weight if ledger else None
        self.inverse = functools.partial(grid.irfft_block if block else grid.irfft, scratch=lay(self.spare, *pad))

    def take(self, coef, out=None):
        """coef, on the half lattice, on the stepper's mode set, into out if given."""
        out = np.empty(coef.shape[: coef.ndim - self.grid.d] + self.modes, coef.dtype) if out is None else out
        for at, of in self.outer:
            out[(...,) + of] = coef[(...,) + at]
        return out

    def rhs(self, state_h, state, t, out):
        """Spectral time derivative of the state (rho^, m^) on the stepper's
        mode set, whose samples are state, written into out, and the
        dissipation and forcing-work rates (zeros without the ledger).
        Returns (out, dissipation rate, work rate).

        out, shaped like state_h, may be self.k but no other buffer of the
        stepper, nor state_h.  The increments are dealiased except for the
        extra source, transformed as it is and then taken on the mode set.
        """
        grid, params, tmp = self.grid, self.params, self.tmp
        ik, d = self.ik, grid.d
        rho, m = state[0], state[1:]
        u = params.velocity(rho, m, out=self.u, floor=self.p)
        p = params.pressure(rho, out=self.p)

        whole = grid.rfft(u, out=self.whole)
        u_h = self.take(whole, self.u_h)
        div_u_h = np.multiply(ik[0], u_h[0], out=self.div_u_h)
        for a in range(1, d):
            div_u_h += np.multiply(ik[a], u_h[a], out=tmp)

        np.negative(ik[0].view(np.float64), out=tmp.view(np.float64))  # -ik[0], a vectorized pass
        np.multiply(tmp, state_h[1], out=out[0])
        for a in range(1, d):
            out[0] -= np.multiply(ik[a], state_h[1 + a], out=tmp)
        for a in range(d):
            np.multiply(np.multiply(params.mu + params.lam, ik[a], out=tmp), div_u_h, out=out[1 + a])
            out[1 + a] -= np.multiply(self.mu_k2, u_h[a], out=tmp)
        diss_rate = 0.0
        if self.ledger:
            # Parseval forms of int |grad u|^2 dx and int (div u)^2 dx, summed by
            # einsum (no BLAS thread count reorders it).  The first keeps the Nyquist
            # mode that grid.grad_sq zeroes: it is -int u . lap u, with the diffusion
            # term's Laplacian symbol -k2, unambiguous there (only odd derivatives zero it).
            power, square = self.parts[:d], self.parts[d]
            for a in range(d):
                np.add(np.square(whole[a].real, out=power[a]), np.square(whole[a].imag, out=square), out=power[a])
            scale = grid.dx**d / float(grid.n**d)
            grad_sq = float(np.einsum("ij,j->", power.reshape(d, -1), self.k2_weight.reshape(-1))) * scale
            div = np.multiply(grid.ik_half[0], whole[0], out=whole[0])  # u's coefficients are spent
            for a in range(1, d):
                div += np.multiply(grid.ik_half[a], whole[a], out=whole[a])
            np.add(np.square(div.real, out=power[0]), np.square(div.imag, out=square), out=power[0])
            div_sq = float(np.einsum("ij,j->", power[0].reshape(-1, power.shape[-1]), grid.parseval_weight)) * scale
            diss_rate = params.mu * grad_sq + (params.mu + params.lam) * div_sq
        # Symmetric flux Pi_ab = m_a u_b + p delta_ab, a pair a <= b at a time,
        # off each of its components at once: each one's sum over b ascends.
        flux, passes, flux_h = self.flux, self.passes, self.flux_h
        for a, b in self.pairs:
            np.multiply(m[a], u[b], out=flux)
            if a == b:
                flux += p
            self.take(grid.rfft_block(flux, out=passes), flux_h)
            out[1 + a] -= np.multiply(ik[b], flux_h, out=tmp)
            if a != b:
                out[1 + b] -= np.multiply(ik[a], flux_h, out=tmp)

        work_rate = 0.0
        if self.force is not None:
            envelope = params.forcing.envelope_at(t)
            moved = self.force(state_h[0]).reshape((d,) + grid.block_shape)
            moved *= envelope
            for at, of in self.inner:
                out[(slice(1, None),) + at] += moved[(...,) + of]
            if self.ledger:  # int f . m dx, read from m^ at the forcing modes
                work_rate = envelope * sum(float(self.work(state_h[1 + a])[a].real) for a in range(d)) * grid.dx**d

        if not self.block:
            grid.dealias(out)
        if self.extra_source is not None:
            source = np.empty_like(state)
            source[0], source[1:] = self.extra_source(t, rho, m)
            out += self.take(grid.rfft(source))
        return out, diss_rate, work_rate

    @np.errstate(over="ignore", invalid="ignore")  # _check_alive reports a non-finite step
    def advance(self, state_h, state, t, dt):
        """One classical RK4 step of the state (rho^, m^) on the stepper's
        mode set, whose samples are state; returns the new coefficients,
        their samples, dD and dW.  The samples feed the next step's first stage.

        The new coefficients are a fresh array that takes k1, then the
        running sum k1 + 2 k2 + 2 k3 + k4 in the order of the classical
        formula, and the new samples one that takes each stage's samples
        first; neither is a stepper buffer, so a later step leaves them alone."""
        k, stage_h = self.k, self.stage_h
        acc, stage = np.empty_like(state_h), np.empty(state.shape)

        def to_stage(c, inc, acc=None):
            """stage_h = state_h + c*inc, then acc += 2.0*inc if acc is given,
            then stage_h's samples in stage."""
            np.add(state_h, np.multiply(inc, c, out=stage_h), out=stage_h)
            if acc is not None:
                acc += np.multiply(inc, 2.0, out=inc)
            self.inverse(stage_h, out=stage)

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
        new = self.inverse(new_h, out=stage)  # the stage samples are spent
        dD = sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        dW = sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
        _check_alive(new[0], new[1:], t + dt)
        return new_h, new, dD, dW


def rhs(state: State, params: FluidParams, extra_source=None):
    """Time derivative of (rho, m) as Fields (dealiased spectral form)."""
    grid, fields = state.grid, _fields(state)
    stepper = _Stepper(grid, params, extra_source, block=False)
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
    (the diffusion of u scales with (2 mu + |lam|)/rho), for rho_min below max rho.
    """
    if not (0 < cfl <= 1):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    grid = state.grid
    rho = state.rho.values
    if not params.rho_min < (top := float(np.max(rho))):
        raise ValueError(f"rho_min = {params.rho_min} must lie below the largest initial density {top}")
    u = params.velocity(rho, state.m.values)
    with np.errstate(over="ignore"):  # an infinite speed is rejected below, by name
        speed = np.sqrt(np.sum(u**2, axis=0)) + math.sqrt(params.gamma) * sonic_speed(rho, params)
    fastest = float(np.max(speed))
    if not math.isfinite(fastest):
        raise ValueError(f"the fastest wave speed |u| + sqrt(gamma) c is {fastest}: "
                         f"gamma = {params.gamma}, kappa = {params.kappa} give no stable step")
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
    # one NaN-propagating min and max per field, max |q| as max(max q, -min q)
    low = float(np.min(rho))
    worst = float(np.max((-low, np.max(rho), -np.min(m), np.max(m))))
    if not worst <= BLOWUP_THRESHOLD:  # NaN included
        raise BlowUpError(f"solution magnitude {worst:.3e} at t = {t:.6g} exceeds {BLOWUP_THRESHOLD:.1e}", t=t)
    if low < -RHO_TOLERANCE:
        raise BlowUpError(f"density lost positivity (min rho = {low:.3e}) at t = {t:.6g}", t=t)


def step(state: State, params: FluidParams, dt: float, extra_source=None) -> State:
    """Advance one RK4 step of size dt; mass is conserved to round-off."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid, fields = state.grid, _fields(state)
    _, new, _, _ = _Stepper(grid, params, extra_source, block=False).advance(grid.rfft(fields), fields, state.t, dt)
    return _state(state.t + dt, grid, new)


def snapshot_step(spacing: float, dt_stable: float, snapshots: int):
    """(steps per snapshot, dt): the largest dt <= dt_stable that divides
    the snapshot spacing into a whole number of steps.  A run of snapshots
    such intervals taking more than MAX_STEPS steps is a ValueError."""
    # capped below, so that an infinite ratio (a subnormal dt_stable) rounds up
    per = max(1, math.ceil(min(spacing / dt_stable, 2.0 * MAX_STEPS) - 1e-12))
    if per * snapshots > MAX_STEPS:
        raise ValueError(f"the run needs {snapshots * spacing / dt_stable:.3e} steps of the stable step "
                         f"{dt_stable:.3e}, more than the {MAX_STEPS} a run may take")
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
    stability bound, letting several runs agree on one step size.  The run
    steps from initial projected onto the two-thirds block (grid.dealias),
    and sends initial itself first, which gives E0 and the mass.

    store is a feed pass (diagnostics.feed) set up for snapshots + 1 States,
    collect_pass's by default: run sends it each snapshot, the initial state
    first, as the run reaches it, and the result's series is its answer.
    snapshots.write_pass streams them to disk, times_pass keeps the times
    alone, block_pass keeps the coefficients' two-thirds blocks: each later
    State of a run without an extra source, which is added unprojected,
    carries its coefficients (State.coef) until the store has taken it.  The
    mass check comes before the last snapshot is sent, so a run that raises,
    blow-up and mass drift included, closes the pass before it answers.  So
    does a store that answers before the last State or not on it, with a
    ValueError; so does, before the first State, one whose set-up next()
    answers with another count, as write_pass's can.
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
    per, dt = snapshot_step(T / snapshots, dt_stable, snapshots)
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
        if (declared := next(store)) not in (None, count):
            raise ValueError(f"store is set up for {declared} States, not the run's snapshots + 1 = {count}")
        send(initial, 0)
        E0 = total_energy(initial, params)
        mass0 = float(np.mean(initial.rho.values))
        stepper = _Stepper(grid, params, extra_source, ledger=True, block=extra_source is None)
        fields_h = stepper.take(grid.dealias(grid.rfft(_fields(initial))))  # the scheme's Galerkin space
        fields = stepper.inverse(fields_h)

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
            st = _state(t_now, grid, fields, fields_h if extra_source is None else None)
            if snap == snapshots:
                mass1 = float(np.mean(fields[0]))
                scale = max(abs(mass0), 1e-300)
                if abs(mass1 - mass0) > 1e-10 * scale:
                    raise MassDriftError(f"mass drifted by {abs(mass1 - mass0) / scale:.3e} relative", t=t_now)
            series = send(st, snap)
            object.__setattr__(st, "coef", None)  # no State a pass keeps pins the coefficients
            rows.append((t_now, total_energy(st, params), D_acc, W_acc))
            del st  # nor does run, whose next steps would hold its samples beside two others
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
