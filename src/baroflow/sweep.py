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
pair has run, and a running pair's when run_sweep says a later round
reads it; in memory, each as solver.block_pass keeps it.  The less
viscous entry of a pair reads the other's States live, one at a time,
through the relay run_sweep gives the pair, for its Cauchy distance, so
a 3-entry ladder holds the reference alone.
"""

from __future__ import annotations

import contextlib
import functools
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
        if any(not (0 < v < math.inf) for v in mus):
            raise ValueError("sweep viscosities must be positive and finite "
                             "(a ladder's mu_max must be positive and finite)")
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("sweep viscosities must decrease strictly")
        if not (-2.0 < self.lam_ratio < math.inf):
            raise ValueError(f"lam_ratio must exceed -2 and be finite, got {self.lam_ratio}")
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

    store_for(index, params, mate, later), if given, makes each entry's
    store, a feed pass (see solver.run), before the entry runs, for both
    entries of a pair in index order; a snapshots.write_pass per entry
    leaves every completed entry's series on disk, read back lazily, and a
    failed entry's nowhere.  Without it each series is kept in memory.
    mate is None for an entry that runs alone, else the pair's _Relay on
    the grid and the reference's ledger times, sent to by the more viscous
    entry; later is false for the last round's entries alone, whose States
    no later round reads.  However an entry leaves, its store is closed,
    then its end of the relay: the sender's send(None), the other's
    stop_taking().  An exception other than a BlowUpError leaves run_sweep
    once both entries of its pair have returned and the helper has stopped."""
    grid = make_grid(plan.d, plan.n, plan.P)
    params = [plan.params_for(mu) for mu in plan.mu_values]
    initial = preset_ic(plan.ic, grid, params[0], seed=plan.ic_seed, amplitude=plan.ic_amplitude)
    shared_stable = min(cfl_dt(initial, p, plan.cfl) for p in params)
    _, shared_dt = snapshot_step(plan.T / plan.snapshots, shared_stable, plan.snapshots)

    def store_of(i, mate=None, later=True):
        return None if store_for is None else store_for(i, params[i], mate, later)

    def entry(i, store, end=None):
        mu = plan.mu_values[i]
        try:
            result = run(
                initial, params[i], plan.T, snapshots=plan.snapshots, cfl=plan.cfl, dt_cap=shared_stable,
                store=store,
            )
            return SweepEntry(mu=mu, params=params[i], result=result)
        except BlowUpError as exc:
            return SweepEntry(mu=mu, params=params[i], failure=str(exc))
        finally:
            try:
                if store is not None:
                    store.close()
            finally:
                if end is not None:
                    end()

    entries = [None] * len(plan.mu_values)
    for reference in reversed(range(len(entries))):
        entries[reference] = entry(reference, store_of(reference))
        if entries[reference].completed:
            break
    rounds = _rounds(reference)  # none are left when no entry completed
    with ThreadPoolExecutor(max_workers=1) as helper:  # starts its thread on the first pair
        for pair in rounds:
            later = pair is not rounds[-1]
            if len(pair) == 1:
                entries[pair[0]] = entry(pair[0], store_of(pair[0], None, later))
                continue
            mate = _Relay(pair[0], entries[reference].result.report.t, grid)
            stores = [store_of(i, mate, later) for i in pair]
            ahead = helper.submit(entry, pair[0], stores[0], functools.partial(mate.send, None))
            try:
                entries[pair[1]] = entry(pair[1], stores[1], mate.stop_taking)
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
    sender, the entry at index sender, stops (send(None)).  send waits while
    the slot is full, and returns at once once the taker has stopped, which
    frees the slot."""

    def __init__(self, sender, times, grid):
        self.sender, self.times, self.grid = sender, times, grid
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


def _handing_on(relay):
    """A feed pass that hands each State it takes on to relay."""
    while True:
        relay.send((yield))


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
    partner), and a pass that holds the entry's States.  store_for learns
    the entry's part from its mate and later (run_sweep): the sender of a
    pair hands its States on to the relay first, and the other entry reads
    them live for its Cauchy distance, its distance to the partner standing
    in should the sender leave before its last State.  hold(index, params)
    makes the holding pass, a snapshots.write_pass say; by default a
    block_pass keeps the States of an entry a later round reads in memory
    as their coefficients' two-thirds blocks, the reference's to the end, a
    pair's until the next pair has run, and a times_pass only the times of
    the others; an entry's result keeps only its times, the reference's
    excepted.  A failed entry's store is closed before it answers.  The
    answers are taken in on the calling thread when the next round's first
    store is made, or the tables: the partner becomes the less viscous
    entry of a pair a later round reads if it completed, else the other."""

    def __init__(self, plan: SweepPlan, hold=None):
        self.plan, self.hold = plan, hold
        self.reference = self.partner = None  # held series
        self.reduced = {}  # index -> the answers of its passes
        self._ran = []  # (index, later, [(answers, series)] once it completes) not yet taken in

    def store_for(self, index: int, params: FluidParams, mate, later: bool):
        sends = mate is not None and mate.sender == index
        if mate is None or sends:  # a round starts: the entries run before have returned
            self._settle()
        count, p1 = self.plan.snapshots + 1, self.plan.gamma
        passes = {"hand_on": _handing_on(mate)} if sends else {}
        passes["grad"] = smallness_pass(count, params)
        first = self.reference is None
        if not first:
            passes["reference"] = distance_pass(self.reference, p1, 2.0)
            if self.partner is not None:
                passes["cauchy"] = distance_pass(self.partner, p1, 2.0)
            if mate is not None and not sends:
                passes["mate"] = distance_pass(mate, p1, 2.0)
        if self.hold is not None:
            passes["series"] = self.hold(index, params)
        else:
            passes["series"] = (block_pass if later else times_pass)(count)
        done = []
        self._ran.append((index, later, done))

        def finished(answers):  # on the thread that runs the entry
            series = answers.pop("series")
            done.append((answers, series))
            return series.times if later and not first and self.hold is None else series

        return fan_out(passes, count, finished)

    def _settle(self):
        ran, self._ran = self._ran, []
        done = [(i, later, *box[0]) for i, later, box in ran if box]
        for i, later, answers, series in done:  # in index order
            mate = answers.pop("mate", None)
            if mate is not None:  # the sender sent its last State: the live distance
                answers["cauchy"] = mate
            self.reduced[i] = answers
            if self.reference is None:
                self.reference = series
            elif later:
                self.partner = series

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
