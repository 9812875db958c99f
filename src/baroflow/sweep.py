"""Vanishing-viscosity sweeps: rerun one flow while mu shrinks.

Every entry shares the grid, initial state, forcing and time step (the
most restrictive entry's stable dt caps all runs), so snapshot times
align exactly and run-to-run distances are meaningful.  Blow-ups mark
their entry as failed and leave the rest of the sweep usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    AdmissibilityResult,
    WeakResiduals,
    default_test_functions,
    energy_admissibility,
    reynolds_quotient,
    spacetime_lp,
    time_integrated_spectrum,
    trapezoid_weights,
    weak_residuals,
)
from .solver import (
    BlowUpError,
    FluidParams,
    ForcingSpec,
    RunResult,
    SnapshotSeries,
    cfl_dt,
    preset_ic,
    run,
    run_window,
    snapshot_step,
)
from .fields import make_grid

__all__ = [
    "SweepPlan",
    "SweepEntry",
    "SweepResult",
    "CauchyTable",
    "SmallnessRow",
    "SmallnessTable",
    "LimitCandidateReport",
    "plan_sweep",
    "run_sweep",
    "series_distance",
    "cauchy_distances",
    "distances_to",
    "convergence_rate",
    "viscous_smallness",
    "limit_candidate_check",
]


@dataclass(frozen=True)
class SweepPlan:
    """Common setup plus the descending list of viscosities to visit.

    lam_ratio fixes the second viscosity as lam = lam_ratio * mu for
    every entry; it must exceed -2 so lam + 2 mu stays positive.
    rho_min is the density floor every entry's FluidParams carries.
    T and snapshots follow solver.run_window.
    """

    mu_values: tuple
    d: int = 2
    n: int = 64
    P: float = 2.0 * np.pi
    gamma: float = 1.4
    kappa: float = 1.0
    lam_ratio: float = -2.0 / 3.0
    rho_min: float = 1e-10
    ic: str = "taylor-green"
    ic_seed: int = None
    ic_amplitude: float = 1.0
    T: float = 1.0
    snapshots: int = 16
    cfl: float = 0.4
    forcing: ForcingSpec = ForcingSpec()

    def __post_init__(self):
        mus = tuple(float(v) for v in self.mu_values)
        if len(mus) < 2:
            raise ValueError("a sweep needs at least two viscosities")
        if any(v <= 0 for v in mus):
            raise ValueError("sweep viscosities must be positive")
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("sweep viscosities must decrease strictly")
        if self.lam_ratio <= -2.0:
            raise ValueError(f"lam_ratio must exceed -2, got {self.lam_ratio}")
        run_window(self.T, self.snapshots)
        object.__setattr__(self, "mu_values", mus)

    def params_for(self, mu: float) -> FluidParams:
        return FluidParams(
            gamma=self.gamma, kappa=self.kappa, mu=mu,
            lam=self.lam_ratio * mu, rho_min=self.rho_min, forcing=self.forcing,
        )


def plan_sweep(mu_max: float, ratio: float, count: int, **kwargs) -> SweepPlan:
    """Geometric viscosity ladder mu_max * ratio^i, i = 0 .. count-1."""
    if not (mu_max > 0):
        raise ValueError(f"mu_max must be positive, got {mu_max}")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    if count < 2:
        raise ValueError(f"count must be at least 2, got {count}")
    mus = tuple(mu_max * ratio**i for i in range(count))
    return SweepPlan(mu_values=mus, **kwargs)


@dataclass(frozen=True)
class SweepEntry:
    mu: float
    params: FluidParams
    result: RunResult = None
    failure: str = None

    @property
    def completed(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    entries: tuple
    shared_dt: float

    @property
    def completed(self):
        return [e for e in self.entries if e.completed]

    @property
    def any_failed(self) -> bool:
        return any(not e.completed for e in self.entries)


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Run every entry of the plan on one shared grid, state and dt."""
    grid = make_grid(plan.d, plan.n, plan.P)
    params0 = plan.params_for(plan.mu_values[0])
    initial = preset_ic(plan.ic, grid, params0, seed=plan.ic_seed, amplitude=plan.ic_amplitude)
    shared_stable = min(
        cfl_dt(initial, plan.params_for(mu), plan.cfl) for mu in plan.mu_values
    )
    _, shared_dt = snapshot_step(plan.T / plan.snapshots, shared_stable)

    entries = []
    for mu in plan.mu_values:
        params = plan.params_for(mu)
        try:
            result = run(
                initial, params, plan.T,
                snapshots=plan.snapshots, cfl=plan.cfl, dt_cap=shared_stable,
            )
            entries.append(SweepEntry(mu=mu, params=params, result=result))
        except BlowUpError as exc:
            entries.append(SweepEntry(mu=mu, params=params, failure=str(exc)))
    return SweepResult(plan=plan, entries=tuple(entries), shared_dt=shared_dt)


def series_distance(a: SnapshotSeries, b: SnapshotSeries, p1: float, p2: float):
    """Space-time distances (||rho_a - rho_b||_p1, ||m_a - m_b||_p2).

    Trapezoid in time over identical snapshot grids; the momentum
    channel uses the pointwise Euclidean magnitude of the difference.
    """
    ta, tb = a.times, b.times
    if len(ta) != len(tb) or float(np.max(np.abs(ta - tb))) > 1e-12 * max(ta[-1], 1.0):
        raise ValueError("series must share their snapshot times")
    if a.grid != b.grid:
        raise ValueError("series must share one grid")
    rows = ((w, sa.rho.values - sb.rho.values, sa.m.values - sb.m.values)
            for sa, sb, w in zip(a, b, trapezoid_weights(ta)))
    acc_r, acc_m = spacetime_lp(a.grid, rows, (p1, p2))
    return acc_r ** (1.0 / p1), acc_m ** (1.0 / p2)


@dataclass(frozen=True)
class CauchyTable:
    """Distances between runs at adjacent (or reference) viscosities:
    density in L^p1 with p1 = gamma, momentum in L^p2 with p2 = 2."""

    mu_pairs: tuple
    rho_distances: np.ndarray
    m_distances: np.ndarray
    p1: float
    p2: float


def _distance_table(sweep: SweepResult, pairs_of) -> CauchyTable:
    p1, p2 = sweep.plan.gamma, 2.0
    done = sweep.completed
    if len(done) < 2:
        raise ValueError(f"need at least two completed runs, have {len(done)}")
    pairs = pairs_of(done)
    dists = np.array([series_distance(a.result.series, b.result.series, p1, p2) for a, b in pairs])
    return CauchyTable(
        mu_pairs=tuple((a.mu, b.mu) for a, b in pairs), rho_distances=dists[:, 0],
        m_distances=dists[:, 1], p1=p1, p2=p2,
    )


def cauchy_distances(sweep: SweepResult) -> CauchyTable:
    """Distances between consecutive completed entries, largest mu first."""
    return _distance_table(sweep, lambda done: list(zip(done, done[1:])))


def distances_to(sweep: SweepResult, reference: int = -1) -> CauchyTable:
    """Distance of every other completed run to one reference entry."""
    return _distance_table(
        sweep, lambda done: [(e, done[reference]) for e in done if e is not done[reference]]
    )


def convergence_rate(mu_values, distances) -> float:
    """Log-log slope of distance against mu.

    Returns inf when every distance is exactly zero (the runs already
    agree); zero distances are otherwise dropped from the fit.
    """
    mus = np.asarray(mu_values, dtype=np.float64)
    dist = np.asarray(distances, dtype=np.float64)
    if mus.shape != dist.shape:
        raise ValueError("mu_values and distances must align")
    if np.all(dist == 0.0):
        return float("inf")
    sel = dist > 0.0
    if np.sum(sel) < 2:
        raise ValueError("need at least two nonzero distances to fit a rate")
    return float(np.polyfit(np.log(mus[sel]), np.log(dist[sel]), 1)[0])


@dataclass(frozen=True)
class SmallnessRow:
    mu: float
    grad_u_l2: float
    mu_grad: float
    sqrt_mu_grad: float
    dissipation: float


@dataclass(frozen=True)
class SmallnessTable:
    """Viscous smallness across the sweep.

    mu_grad = mu * ||grad u||_{L^2 t,x} should shrink with mu while
    sqrt_mu_grad stays of one size; energy_bounded checks the honest
    inequality mu * ||grad u||^2 <= c * D(T) with c = 1 for
    lam >= -mu and mu/(2 mu + lam) otherwise.
    """

    rows: tuple
    mu_grad_decreasing: bool
    energy_bounded: bool


def viscous_smallness(sweep: SweepResult) -> SmallnessTable:
    rows = []
    bounded = True
    for e in sweep.completed:
        series = e.result.series
        grid = series.grid
        g = [grid.grad_sq(grid.rfft(e.params.velocity(st.rho.values, st.m.values))) for st in series]
        grad_sq = float(np.trapezoid(np.array(g), x=series.times))
        grad_l2 = math.sqrt(max(grad_sq, 0.0))
        mu, lam = e.params.mu, e.params.lam
        c = 1.0 if lam >= -mu else mu / (2.0 * mu + lam)
        d_total = float(e.result.report.D[-1])
        if mu * grad_sq > c * d_total * (1.0 + 1e-6) + 1e-12:
            bounded = False
        rows.append(SmallnessRow(
            mu=mu, grad_u_l2=grad_l2, mu_grad=mu * grad_l2,
            sqrt_mu_grad=math.sqrt(mu) * grad_l2, dissipation=d_total,
        ))
    vals = [r.mu_grad for r in rows]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return SmallnessTable(rows=tuple(rows), mu_grad_decreasing=decreasing, energy_bounded=bounded)


# largest weak residual, relative to its family's gross scale, of a
# plausible limit
REL_TOL = 1e-4


@dataclass(frozen=True)
class LimitCandidateReport:
    """Weak-solution scorecard for the least viscous completed run.

    weak holds the residuals per test function of the default low-mode
    sets; its mass_max_rel / ns_max_rel / euler_max_rel normalize the
    largest residual of each family by the family's largest gross
    scale, the size of the numbers summed before any cancellation.
    Normalizing by the post-cancellation quadrature scale instead turns
    into noise over noise whenever the flow is orthogonal to the whole
    test set (a symmetric flow on the default low-mode set does exactly
    that), and would veto a run whose residuals sit at machine
    round-off.  The verdict requires mass and full-equation ratios
    within rel_tol plus admissible energy; euler_max_rel is reported as
    the vanishing-viscosity deficit (it equals the measured viscous
    term, shrinking with mu) rather than gated, since it only vanishes
    in the limit.
    """

    mu: float
    weak: WeakResiduals
    admissibility: AdmissibilityResult
    vacuum_fraction: float
    m_t: float
    rel_tol: float
    plausible_limit: bool


def limit_candidate_check(sweep: SweepResult, theta: float = 1e-6) -> LimitCandidateReport:
    """Judge whether the smallest-mu run looks like a weak limit point.

    Checks weak mass and momentum residuals against a deterministic
    low-mode test set, energy admissibility from the run ledger, the
    vacuum fraction of the final state, and the decay-bound constant
    of the time-integrated spectrum.
    """
    done = sweep.completed
    if not done:
        raise ValueError("no completed runs to check")
    entry = done[-1]
    series = entry.result.series
    grid = series.grid
    T = series.times[-1] - series.times[0]
    weak = weak_residuals(series, entry.params, default_test_functions(grid, T),
                          default_test_functions(grid, T, vector=True))
    ledger = entry.result.report
    adm = energy_admissibility(ledger.t, ledger.E, ledger.W)
    quo = reynolds_quotient(series[-1], theta)
    ss = time_integrated_spectrum(series, entry.params)
    shells = np.arange(1, grid.n // 3 + 1, dtype=np.float64)
    m_t = float(np.max(shells ** (5.0 / 3.0) * ss.integrated_energy[1 : grid.n // 3 + 1]))

    plausible = bool(
        weak.mass_max_rel <= REL_TOL
        and weak.ns_max_rel <= REL_TOL
        and adm.admissible
        and math.isfinite(m_t)
    )
    return LimitCandidateReport(
        mu=entry.mu,
        weak=weak,
        admissibility=adm,
        vacuum_fraction=quo.vacuum_fraction,
        m_t=m_t,
        rel_tol=REL_TOL,
        plausible_limit=plausible,
    )
