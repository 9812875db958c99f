"""Vanishing-viscosity sweeps: rerun one flow while mu shrinks.

Every entry shares the grid, initial state, forcing and time step (the
most restrictive entry's stable dt caps all runs), so snapshot times
align exactly and run-to-run distances are meaningful.  Blow-ups mark
their entry as failed and leave the rest of the sweep usable.

run_sweep runs the least viscous entry first, then the next more
viscous one, and so on until one completes: that one is the reference,
the last completed entry.  The entries left run in adjacent pairs from
the most viscous down, (0, 1), (2, 3), ...: the more viscous entry of a
pair on one helper thread, the other on the calling thread, and a lone
last entry on the calling thread (numpy's transforms and ufuncs release
the GIL, so the two runs of a pair overlap).  Every entry runs once on
the same state, parameters and step, so the order leaves every State as
it is, and the entries are reported in index order.

The distances and the smallness samples are feed passes
(diagnostics.feed).  cauchy_distances, distances_to and viscous_smallness
feed them over a sweep's stored series; StreamedTables, which the CLI
uses, gives each entry's run a fan-out of them as its store.  It holds
the reference's series, the previous completed entry's until the next
pair has run, and a running pair's when a later entry will pair with
it; in memory, each as solver.block_pass keeps it.  The less viscous
entry of a pair reads the other's States live, one at a time, for its
Cauchy distance, so a 3-entry ladder holds the reference alone.
"""

from __future__ import annotations

import contextlib
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    AdmissibilityResult,
    WeakResiduals,
    decay_constant,
    default_test_functions,
    energy_admissibility,
    fan_out,
    feed,
    reynolds_quotient,
    spacetime_lp,
    spectral_pass,
    trapezoid_weights,
    weak_pass,
)
from .solver import (
    BlowUpError,
    FluidParams,
    ForcingSpec,
    RunResult,
    SnapshotSeries,
    block_pass,
    cfl_dt,
    preset_ic,
    run,
    run_window,
    snapshot_step,
    times_pass,
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
    "StreamedTables",
    "plan_sweep",
    "run_sweep",
    "distance_pass",
    "series_distance",
    "cauchy_distances",
    "distances_to",
    "convergence_rate",
    "smallness_pass",
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
        if any(not (v > 0) for v in mus):
            raise ValueError("sweep viscosities must be positive (a ladder's mu_max must be positive)")
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


def _rounds(reference: int) -> list:
    """The entries below the reference in the order run_sweep runs them:
    adjacent pairs, most viscous first, then a lone last entry if one is
    left."""
    return [tuple(range(i, min(i + 2, reference))) for i in range(0, reference, 2)]


def run_sweep(plan: SweepPlan, store_for=None) -> SweepResult:
    """Run every entry of the plan on one shared grid, state and dt, in the
    order of the module docstring.

    store_for(index, params), if given, makes each entry's store, a feed
    pass (see solver.run), before the entry runs, for both entries of a
    pair in index order; a snapshots.write_pass per entry leaves every
    completed entry's series on disk, read back lazily, and a failed
    entry's nowhere.  Without it each series is kept in memory.  Each store
    is closed once its entry has returned.  An exception other than a
    BlowUpError leaves run_sweep once both entries of its pair have
    returned and the helper thread has stopped."""
    grid = make_grid(plan.d, plan.n, plan.P)
    params0 = plan.params_for(plan.mu_values[0])
    initial = preset_ic(plan.ic, grid, params0, seed=plan.ic_seed, amplitude=plan.ic_amplitude)
    shared_stable = min(
        cfl_dt(initial, plan.params_for(mu), plan.cfl) for mu in plan.mu_values
    )
    _, shared_dt = snapshot_step(plan.T / plan.snapshots, shared_stable)

    def store_of(i):
        return None if store_for is None else store_for(i, plan.params_for(plan.mu_values[i]))

    def entry(i, store):
        mu = plan.mu_values[i]
        params = plan.params_for(mu)
        try:
            result = run(
                initial, params, plan.T, snapshots=plan.snapshots, cfl=plan.cfl, dt_cap=shared_stable,
                store=store,
            )
            return SweepEntry(mu=mu, params=params, result=result)
        except BlowUpError as exc:
            return SweepEntry(mu=mu, params=params, failure=str(exc))
        finally:
            if store is not None:
                store.close()

    entries = [None] * len(plan.mu_values)
    for reference in reversed(range(len(entries))):
        entries[reference] = entry(reference, store_of(reference))
        if entries[reference].completed:
            break
    with ThreadPoolExecutor(max_workers=1) as helper:  # starts its thread on the first pair
        for pair in _rounds(reference):  # none are left when no entry completed
            stores = [store_of(i) for i in pair]
            if len(pair) == 1:
                entries[pair[0]] = entry(pair[0], stores[0])
                continue
            ahead = helper.submit(entry, pair[0], stores[0])
            try:
                entries[pair[1]] = entry(pair[1], stores[1])
            finally:
                entries[pair[0]] = ahead.result()
    return SweepResult(plan=plan, entries=tuple(entries), shared_dt=shared_dt)


def distance_pass(partner, p1: float, p2: float):
    """series_distance(partner, series) as a feed pass over series: each
    State sent is paired with partner's State at the same index, read once
    the State is sent.  The trapezoid weights are partner's; each State's
    time must match partner's.  It answers None when partner runs out of
    States first, as a relay does whose sender failed."""
    times, grid = partner.times, partner.grid
    tol = 1e-12 * max(times[-1], 1.0)
    acc_r = acc_m = 0.0
    partner_states, short = iter(partner), False
    for w, t in zip(trapezoid_weights(times), times):
        st = yield
        if abs(st.t - t) > tol:
            raise ValueError("series must share their snapshot times")
        theirs = None if short else next(partner_states, None)
        short = theirs is None
        if not short:
            r, m = spacetime_lp(grid, ((w, theirs.rho.values - st.rho.values, theirs.m.values - st.m.values),),
                                (p1, p2))
            acc_r += r
            acc_m += m
        del theirs  # not kept while the run makes its next State
    yield None if short else (acc_r ** (1.0 / p1), acc_m ** (1.0 / p2))


class _Relay:
    """A one-slot hand-off of a pair's more viscous entry's States, as its
    run makes them, to the other entry's live Cauchy pass, which reads it
    like a series of the given times and grid (distance_pass) until the
    sender stops (send(None)).  send waits while the slot is full, and
    returns at once once the taker has stopped, which frees the slot."""

    def __init__(self, times, grid):
        self.times, self.grid = times, grid
        self.slot, self.taking = queue.Queue(maxsize=1), True

    def send(self, st):
        # one sender: once the taker has stopped, at most one put is past
        # this check, and stop_taking's drain leaves it room
        if self.taking:
            self.slot.put(st)

    def __iter__(self):
        return iter(self.slot.get, None)

    def stop_taking(self):
        self.taking = False
        with contextlib.suppress(queue.Empty):
            self.slot.get_nowait()


def _tied(store, end, hand_on=None):
    """store as a feed pass that hands each State to hand_on, if given,
    before store takes it, and calls end() when closed.  Primed as it is
    made, so closing it calls end() whether or not run started it."""
    try:
        yield
        next(store)
        answer = None
        while answer is None:
            st = yield
            if hand_on is not None:
                hand_on(st)
            answer = store.send(st)
        yield answer
    finally:
        end()
        store.close()


def series_distance(a: SnapshotSeries, b: SnapshotSeries, p1: float, p2: float):
    """Space-time distances (||rho_a - rho_b||_p1, ||m_a - m_b||_p2).

    Trapezoid in time over identical snapshot grids; the momentum
    channel uses the pointwise Euclidean magnitude of the difference.
    """
    if len(a) != len(b):
        raise ValueError("series must share their snapshot times")
    if a.grid != b.grid:
        raise ValueError("series must share one grid")
    return feed(b, [distance_pass(a, p1, p2)])[0]


@dataclass(frozen=True)
class CauchyTable:
    """Distances between runs at adjacent (or reference) viscosities:
    density in L^p1 with p1 = gamma, momentum in L^p2 with p2 = 2."""

    mu_pairs: tuple
    rho_distances: np.ndarray
    m_distances: np.ndarray
    p1: float
    p2: float


def _completed(sweep: SweepResult) -> list:
    """The completed entries, at least two of them."""
    done = sweep.completed
    if len(done) < 2:
        raise ValueError(f"need at least two completed runs, have {len(done)}")
    return done


def _distance_table(plan: SweepPlan, pairs, dists=None) -> CauchyTable:
    """The table of the entry pairs and their distances, by default those
    of their stored series."""
    if dists is None:
        dists = [series_distance(a.result.series, b.result.series, plan.gamma, 2.0) for a, b in pairs]
    dists = np.array(dists)
    return CauchyTable(
        mu_pairs=tuple((a.mu, b.mu) for a, b in pairs), rho_distances=dists[:, 0],
        m_distances=dists[:, 1], p1=plan.gamma, p2=2.0,
    )


def _adjacent(done) -> list:
    return list(zip(done, done[1:]))


def cauchy_distances(sweep: SweepResult) -> CauchyTable:
    """Distances between consecutive completed entries, largest mu first."""
    return _distance_table(sweep.plan, _adjacent(_completed(sweep)))


def distances_to(sweep: SweepResult, reference: int = -1) -> CauchyTable:
    """Distance of every other completed run to one reference entry."""
    done = _completed(sweep)
    return _distance_table(sweep.plan, [(e, done[reference]) for e in done if e is not done[reference]])


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


def smallness_pass(count: int, params: FluidParams):
    """||grad u||^2 in L^2 of space and time, over count States, as a feed
    pass: the box integral of |grad u|^2 per State, then the trapezoid over
    the States' own times."""
    g, times = [], []
    for _ in range(count):
        st = yield
        grid = st.grid
        g.append(grid.grad_sq(grid.rfft(params.velocity(st.rho.values, st.m.values))))
        times.append(st.t)
    yield float(np.trapezoid(np.array(g), x=np.array(times)))


def _smallness_table(entries, grad_sqs) -> SmallnessTable:
    """The table of completed entries, in index order, and their squared
    ||grad u|| in L^2 (smallness_pass)."""
    rows = []
    bounded = True
    for e, grad_sq in zip(entries, grad_sqs):
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


def viscous_smallness(sweep: SweepResult) -> SmallnessTable:
    done = sweep.completed
    return _smallness_table(done, [
        feed(e.result.series, [smallness_pass(len(e.result.series), e.params)])[0] for e in done
    ])


class StreamedTables:
    """cauchy_distances, distances_to and viscous_smallness of a sweep,
    reduced while run_sweep runs it: pass store_for to run_sweep, then call
    tables(sweep).

    Each entry's store is a fan-out (diagnostics.fan_out) of the smallness
    pass, once the reference has run the distance passes against the
    reference and against the previous completed entry (its Cauchy
    partner), and a pass that holds the entry's States while a later entry
    may pair with them: the reference's to the end, a pair's until the next
    pair has run.  The less viscous entry of a pair also reads the other's
    States live, through a _Relay; its distance to the partner stands in
    should the other fail.  hold(index, params) makes the holding pass, a
    snapshots.write_pass say; by default a block_pass keeps the States in
    memory as their coefficients' two-thirds blocks, and the result of an
    entry other than the reference keeps only its times.  A failed entry's
    store is closed before it answers.  The answers are taken in on the
    calling thread when the next round's store is made, or the tables:
    the partner becomes the less viscous entry of the pair if it completed,
    else the other if it did."""

    def __init__(self, plan: SweepPlan, hold=None):
        self.plan, self.hold = plan, hold
        self.reference = self.partner = None  # held series
        self.reference_index = None
        self.reduced = {}  # index -> the answers of its passes
        self._ran = []  # (index, [(answers, series)] once it completes) not yet taken in
        self._relay = None  # a pair's, between its two stores being made

    def store_for(self, index: int, params: FluidParams):
        if self._relay is None:  # a round starts: the entries run before have returned
            self._settle()
        count, p1 = self.plan.snapshots + 1, self.plan.gamma
        passes = {"grad": smallness_pass(count, params)}
        first, later, tie = self.reference is None, True, None
        if not first:
            pair = next(p for p in _rounds(self.reference_index) if index in p)
            later = pair[-1] + 1 < self.reference_index
            passes["reference"] = distance_pass(self.reference, p1, 2.0)
            if self.partner is not None:
                passes["cauchy"] = distance_pass(self.partner, p1, 2.0)
            if pair == (index, index + 1):  # it hands its States on
                relay = self._relay = _Relay(self.reference.times, self.reference.grid)
                tie = (lambda: relay.send(None), relay.send)
            elif len(pair) == 2:  # it takes its pair-mate's
                relay, self._relay = self._relay, None
                passes["mate"], tie = distance_pass(relay, p1, 2.0), (relay.stop_taking,)
        if self.hold is not None:
            passes["series"] = self.hold(index, params)
        else:
            passes["series"] = (block_pass if later else times_pass)(count)
        done = []
        self._ran.append((index, done))

        def finished(answers):  # on the thread that runs the entry
            series = answers.pop("series")
            done.append((answers, series))
            return series.times if later and not first and self.hold is None else series

        store = fan_out(passes, count, finished)
        if tie is None:
            return store
        store = _tied(store, *tie)
        next(store)
        return store

    def _settle(self):
        ran, self._ran = self._ran, []
        done = {i: box[0] for i, box in ran if box}
        for i, (answers, series) in done.items():  # in index order
            mate = answers.pop("mate", None)
            if i - 1 in done:  # the pair-mate completed: its live distance
                answers["cauchy"] = mate
            self.reduced[i] = answers
            if self.reference is None:
                self.reference, self.reference_index = series, i
            else:
                self.partner = series
        if ran and ran[-1][0] + 1 == self.reference_index:  # no later entry pairs with them
            self.partner = None

    def tables(self, sweep: SweepResult):
        """(cauchy_distances, distances_to, viscous_smallness) of the sweep
        that run_sweep ran with store_for.  The last Cauchy pair is the last
        entry's pair with the reference, computed once."""
        self._settle()
        self.partner = None
        done = _completed(sweep)
        reduced = [self.reduced[i] for i, e in enumerate(sweep.entries) if e.completed]
        to_reference = [r["reference"] for r in reduced[:-1]]
        steps = [r["cauchy"] for r in reduced[1:-1]] + to_reference[-1:]
        return (
            _distance_table(self.plan, _adjacent(done), steps),
            _distance_table(self.plan, [(e, done[-1]) for e in done[:-1]], to_reference),
            _smallness_table(done, [r["grad"] for r in reduced]),
        )


# largest weak residual, relative to its family's gross scale, of a
# plausible limit
REL_TOL = 1e-4
# largest |R(T)|/E(0) of a plausible limit's energy ledger
LEDGER_TOL = 1e-6


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
    within rel_tol, admissible energy and a ledger that closes, its final
    residual |R(T)|/E(0) (ledger_rel) within LEDGER_TOL, the acceptance
    gate's ledger tolerance; euler_max_rel is reported as
    the vanishing-viscosity deficit (it equals the measured viscous
    term, shrinking with mu) rather than gated, since it only vanishes
    in the limit.
    """

    mu: float
    weak: WeakResiduals
    admissibility: AdmissibilityResult
    ledger_rel: float
    vacuum_fraction: float
    m_t: float
    rel_tol: float
    plausible_limit: bool


def limit_candidate_check(sweep: SweepResult, theta: float = 1e-6) -> LimitCandidateReport:
    """Judge whether the smallest-mu run looks like a weak limit point.

    Checks weak mass and momentum residuals against a deterministic
    low-mode test set, energy admissibility and the closure of the run
    ledger, the vacuum fraction of the final state, and the decay-bound
    constant of the time-integrated spectrum.
    """
    done = sweep.completed
    if not done:
        raise ValueError("no completed runs to check")
    entry = done[-1]
    series = entry.result.series
    grid, T = series.grid, series.times[-1]
    tests = default_test_functions(grid, T), default_test_functions(grid, T, vector=True)
    weak, spec, last = feed(series, [weak_pass(series, entry.params, *tests), spectral_pass(series, entry.params)])
    ledger = entry.result.report
    adm = energy_admissibility(ledger.t, ledger.E, ledger.W)
    ledger_rel = abs(float(ledger.R[-1])) / ledger.E0
    quo = reynolds_quotient(last, theta)
    m_t = decay_constant(spec.integrated_energy, 1, grid.n // 3)

    plausible = bool(
        weak.mass_max_rel <= REL_TOL
        and weak.ns_max_rel <= REL_TOL
        and adm.admissible
        and ledger_rel <= LEDGER_TOL
        and math.isfinite(m_t)
    )
    return LimitCandidateReport(
        mu=entry.mu,
        weak=weak,
        admissibility=adm,
        ledger_rel=ledger_rel,
        vacuum_fraction=quo.vacuum_fraction,
        m_t=m_t,
        rel_tol=REL_TOL,
        plausible_limit=plausible,
    )
