"""Sweep harness tests: planning, shared-step execution, blow-up
flagging, run-to-run distances, rates and the limit-candidate check."""

import dataclasses
import inspect
import math
import sys
import threading
import warnings

import numpy as np
import pytest

import baroflow.sweep
from baroflow.diagnostics import (
    default_test_functions,
    energy_admissibility,
    feed,
    reynolds_quotient,
    time_integrated_spectrum,
    weak_residuals,
)
from baroflow.fields import Field, make_grid
from baroflow.snapshots import write_pass
from baroflow.solver import BlowUpError, FluidParams, SnapshotSeries, State, cfl_dt, preset_ic
from baroflow.sweep import (
    StreamedTables,
    SweepEntry,
    SweepPlan,
    SweepResult,
    _Relay,
    cauchy_distances,
    convergence_rate,
    distance_pass,
    distances_to,
    limit_candidate_check,
    plan_sweep,
    run_sweep,
    series_distance,
    viscous_smallness,
)


@pytest.fixture(scope="module")
def acoustic_sweep():
    plan = SweepPlan(
        mu_values=(1e-2, 5e-3, 2.5e-3),
        d=1, n=32, P=2.0 * np.pi,
        gamma=1.4, kappa=1.0,
        ic="acoustic-pulse", ic_amplitude=0.3,
        T=0.3, snapshots=60,
    )
    return plan, run_sweep(plan)


class TestPlan:
    def test_geometric_ladder(self):
        plan = plan_sweep(1e-2, 0.5, 4, d=1, n=16)
        assert plan.mu_values == (1e-2, 5e-3, 2.5e-3, 1.25e-3)

    def test_params_carry_scaled_lambda(self):
        plan = plan_sweep(1e-2, 0.5, 2, lam_ratio=-0.5)
        p = plan.params_for(4e-3)
        assert p.mu == 4e-3
        assert abs(p.lam + 2e-3) < 1e-18

    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="ratio must lie in"):
            plan_sweep(1e-2, 1.0, 3)
        with pytest.raises(ValueError, match="ratio must lie in"):
            plan_sweep(1e-2, 0.0, 3)
        with pytest.raises(ValueError, match="count"):
            plan_sweep(1e-2, 0.5, 1)
        with pytest.raises(ValueError, match="mu_max"):
            plan_sweep(0.0, 0.5, 3)
        with pytest.raises(ValueError, match="mu_max must be positive"):
            plan_sweep(math.nan, 0.5, 3)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="decrease strictly"):
            SweepPlan(mu_values=(1e-3, 1e-2))
        with pytest.raises(ValueError, match="decrease strictly"):
            SweepPlan(mu_values=(1e-2, 1e-2))
        with pytest.raises(ValueError, match="at least two"):
            SweepPlan(mu_values=(1e-2,))
        with pytest.raises(ValueError, match="must be positive"):
            SweepPlan(mu_values=(1e-2, 0.0))
        with pytest.raises(ValueError, match="must be positive"):
            SweepPlan(mu_values=(math.nan, 1e-3))
        # lam = -2 mu would cancel the full viscous operator
        with pytest.raises(ValueError, match="lam_ratio"):
            SweepPlan(mu_values=(1e-2, 5e-3), lam_ratio=-2.0)
        with pytest.raises(ValueError, match="horizon"):
            SweepPlan(mu_values=(1e-2, 5e-3), T=0.0)

    @pytest.mark.parametrize("T, snapshots, message", [
        (math.inf, 16, "horizon T must be positive and finite"),
        (math.nan, 16, "horizon T must be positive and finite"),
        (1.0, 0, "need at least one snapshot interval"),
    ])
    def test_plan_rejects_a_bad_run_window(self, T, snapshots, message):
        # the window is run's, checked when the plan is built, not when the
        # ladder is half run
        with pytest.raises(ValueError, match=message):
            SweepPlan(mu_values=(1e-2, 5e-3), T=T, snapshots=snapshots)


class TestRunSweep:
    def test_all_entries_complete(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        assert len(sweep.entries) == 3
        assert all(e.completed for e in sweep.entries)
        assert not sweep.any_failed
        assert [e.mu for e in sweep.entries] == list(plan.mu_values)

    def test_shared_step_and_aligned_times(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        dts = {e.result.dt for e in sweep.entries}
        assert len(dts) == 1
        assert sweep.shared_dt in dts
        t0 = sweep.entries[0].result.series.times
        for e in sweep.entries[1:]:
            assert np.array_equal(e.result.series.times, t0)

    def test_step_comes_from_most_restrictive_entry(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        grid = make_grid(plan.d, plan.n, plan.P)
        ic = preset_ic(plan.ic, grid, plan.params_for(plan.mu_values[0]),
                       amplitude=plan.ic_amplitude)
        stable = min(cfl_dt(ic, plan.params_for(mu), plan.cfl) for mu in plan.mu_values)
        spacing = plan.T / plan.snapshots
        per = max(1, math.ceil(spacing / stable - 1e-12))
        assert abs(sweep.shared_dt - spacing / per) < 1e-18

    def test_entries_share_the_initial_snapshot(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        first = sweep.entries[0].result.series[0]
        for e in sweep.entries[1:]:
            st = e.result.series[0]
            assert np.array_equal(st.rho.values, first.rho.values)
            assert np.array_equal(st.m.values, first.m.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_marks_entry_and_spares_the_rest(self):
        plan = SweepPlan(
            mu_values=(0.5, 0.05),
            d=1, n=32, P=2.0 * np.pi,
            ic="random-band", ic_seed=7, ic_amplitude=5.0,
            T=0.4, snapshots=4,
        )
        sweep = run_sweep(plan)
        assert sweep.entries[0].completed
        assert not sweep.entries[1].completed
        assert sweep.entries[1].result is None
        assert sweep.entries[1].failure
        assert sweep.any_failed
        assert len(sweep.completed) == 1
        with pytest.raises(ValueError, match="at least two completed"):
            cauchy_distances(sweep)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_store_per_entry(self, acoustic_sweep, tmp_path):
        # writers stream each entry's series to disk; the reports read them
        # back and agree with the in-memory sweep bit for bit
        plan, sweep = acoustic_sweep
        made = []

        def store_for(i, params, mate, later):
            made.append((i, params.mu, None if mate is None else mate.sender, later))
            return write_pass(tmp_path / f"entry_{i:02d}", "run", params, plan.snapshots + 1)

        stored = run_sweep(plan, store_for)
        # the least viscous entry first, as the reference and alone, then
        # from the most viscous down, the pair (0, 1) sharing one relay; no
        # later round reads the pair
        assert made == [(2, 2.5e-3, None, True), (0, 1e-2, 0, False), (1, 5e-3, 0, False)]
        for e in stored.entries:
            assert len(e.result.series) == plan.snapshots + 1
        for table in (cauchy_distances, distances_to):
            a, b = table(stored), table(sweep)
            assert np.array_equal(a.rho_distances, b.rho_distances) and np.array_equal(a.m_distances, b.m_distances)
        assert viscous_smallness(stored) == viscous_smallness(sweep)
        a, b = limit_candidate_check(stored), limit_candidate_check(sweep)
        assert (a.weak.mass_max_rel, a.weak.ns_max_rel, a.m_t) == (b.weak.mass_max_rel, b.weak.ns_max_rel, b.m_t)

    def test_store_for_learns_which_rungs_a_later_round_reads(self, failing_rung, monkeypatch):
        # 7 rungs, rung 6 blows up: the reference candidates 6 and 5, the pairs
        # (0, 1) and (2, 3), then rung 4 alone, which no later round reads;
        # each rung's parameters are built once
        plan = SweepPlan(mu_values=tuple(1e-2 * 0.5**i for i in range(7)), d=1, n=16, ic="acoustic-pulse",
                         T=0.1, snapshots=4)
        failing_rung(plan.mu_values[6], 2)
        built, made = [], []
        real_params_for = SweepPlan.params_for
        monkeypatch.setattr(SweepPlan, "params_for", lambda self, mu: built.append(mu) or real_params_for(self, mu))

        def store_for(i, params, mate, later):
            made.append((i, None if mate is None else mate.sender, later))

        sweep = run_sweep(plan, store_for)
        assert [e.completed for e in sweep.entries] == [True] * 6 + [False]
        assert made == [(6, None, True), (5, None, True), (0, 0, True), (1, 0, True), (2, 2, True), (3, 2, True),
                        (4, None, False)]
        assert built == list(plan.mu_values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_entry_leaves_no_snapshots(self, tmp_path):
        plan = SweepPlan(
            mu_values=(0.5, 0.05),
            d=1, n=32, P=2.0 * np.pi,
            ic="random-band", ic_seed=7, ic_amplitude=5.0,
            T=0.4, snapshots=4,
        )
        sweep = run_sweep(plan, lambda i, params, mate, later: write_pass(
            tmp_path / f"entry_{i:02d}", "run", params, plan.snapshots + 1))
        assert [e.completed for e in sweep.entries] == [True, False]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entry_00"]
        assert len(list((tmp_path / "entry_00").iterdir())) == 5

    def test_mass_drift_marks_entry_and_spares_the_rest(self, monkeypatch):
        real_run = baroflow.sweep.run

        def leaky_second_rung(initial, params, *args, **kwargs):
            if params.mu == 0.05:
                kwargs["extra_source"] = lambda t, rho, m: (np.full_like(rho, 1e-3), np.zeros_like(m))
            return real_run(initial, params, *args, **kwargs)

        monkeypatch.setattr(baroflow.sweep, "run", leaky_second_rung)
        plan = SweepPlan(
            mu_values=(0.1, 0.05, 0.025), d=1, n=16, P=2.0 * np.pi,
            ic="acoustic-pulse", T=0.1, snapshots=2,
        )
        sweep = run_sweep(plan)
        assert [e.completed for e in sweep.entries] == [True, False, True]
        assert "mass drifted" in sweep.entries[1].failure


class TestDistances:
    def constant_series(self, grid, rho0, m0, times):
        states = []
        for t in times:
            m = np.zeros((grid.d,) + grid.shape)
            for a, v in enumerate(m0):
                m[a] = v
            states.append(State(
                t=t,
                rho=Field(grid=grid, values=rho0 * np.ones(grid.shape)),
                m=Field(grid=grid, values=m),
            ))
        return SnapshotSeries(states=tuple(states))

    def test_constant_offset_oracle(self):
        # constant fields: distance = offset * (T * vol)^(1/p)
        grid = make_grid(2, 8, 2.0 * np.pi)
        T = 0.6
        times = np.linspace(0.0, T, 5)
        a = self.constant_series(grid, 1.0, (0.0, 0.0), times)
        b = self.constant_series(grid, 1.25, (0.3, 0.4), times)
        p1, p2 = 1.4, 2.0
        dr, dm = series_distance(a, b, p1, p2)
        tv = T * grid.vol
        assert abs(dr - 0.25 * tv ** (1.0 / p1)) < 1e-12
        assert abs(dm - 0.5 * tv**0.5) < 1e-12

    def test_identical_series_distance_zero(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        times = np.linspace(0.0, 1.0, 4)
        a = self.constant_series(grid, 1.0, (0.2,), times)
        assert series_distance(a, a, 2.0, 2.0) == (0.0, 0.0)

    def test_misaligned_series_rejected(self):
        grid = make_grid(1, 16, 2.0 * np.pi)
        a = self.constant_series(grid, 1.0, (0.0,), np.linspace(0.0, 1.0, 4))
        b = self.constant_series(grid, 1.0, (0.0,), np.linspace(0.0, 1.1, 4))
        with pytest.raises(ValueError, match="share their snapshot times"):
            series_distance(a, b, 2.0, 2.0)
        c = self.constant_series(make_grid(1, 32, 2.0 * np.pi), 1.0, (0.0,),
                                 np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="share one grid"):
            series_distance(a, c, 2.0, 2.0)

    def test_a_partner_that_runs_out_of_states_answers_none(self, acoustic_sweep):
        # a pair-mate's relay ends early when its run fails; the live pass
        # then takes the rest of the States and answers None
        plan, sweep = acoustic_sweep
        series = sweep.entries[0].result.series

        class Short:
            times, grid = series.times, series.grid

            def __iter__(self):
                return iter(series.states[:3])

        assert feed(sweep.entries[1].result.series, [distance_pass(Short(), plan.gamma, 2.0)])[0] is None

    def test_cauchy_table_matches_pairwise_distances(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        table = cauchy_distances(sweep)
        assert table.p1 == plan.gamma and table.p2 == 2.0
        assert table.mu_pairs == ((1e-2, 5e-3), (5e-3, 2.5e-3))
        for i, (a, b) in enumerate(zip(sweep.completed, sweep.completed[1:])):
            dr, dm = series_distance(a.result.series, b.result.series, plan.gamma, 2.0)
            assert table.rho_distances[i] == dr
            assert table.m_distances[i] == dm

    def test_halving_mu_shrinks_consecutive_distances(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        table = cauchy_distances(sweep)
        assert table.rho_distances[1] < table.rho_distances[0]
        assert table.m_distances[1] < table.m_distances[0]

    def test_distances_to_reference(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        table = distances_to(sweep, reference=-1)
        assert len(table.mu_pairs) == 2
        assert all(pair[1] == 2.5e-3 for pair in table.mu_pairs)
        ref = sweep.completed[-1].result.series
        dr, _ = series_distance(sweep.completed[0].result.series, ref, plan.gamma, 2.0)
        assert table.rho_distances[0] == dr


class TestStreamedTables:
    def test_tables_equal_the_library_functions(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        streamed = StreamedTables(plan)
        again = run_sweep(plan, streamed.store_for)
        cauchy, ref, small = streamed.tables(again)
        for got, want in ((cauchy, cauchy_distances(sweep)), (ref, distances_to(sweep))):
            assert got.mu_pairs == want.mu_pairs and (got.p1, got.p2) == (want.p1, want.p2)
            assert np.array_equal(got.rho_distances, want.rho_distances)
            assert np.array_equal(got.m_distances, want.m_distances)
        assert small == viscous_smallness(sweep)
        # the last Cauchy pair is the last entry's distance to the reference
        assert (cauchy.rho_distances[-1], cauchy.m_distances[-1]) == (ref.rho_distances[-1], ref.m_distances[-1])

    def test_only_the_reference_keeps_its_states(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        streamed = StreamedTables(plan)
        again = run_sweep(plan, streamed.store_for)
        *others, reference = again.entries
        for e in others:
            assert np.array_equal(e.result.series, sweep.entries[0].result.series.times)
        assert [st.t for st in reference.result.series] == list(sweep.entries[-1].result.series.times)
        a, b = limit_candidate_check(again), limit_candidate_check(sweep)
        assert (a.weak, a.m_t, a.vacuum_fraction) == (b.weak, b.m_t, b.vacuum_fraction)


    @pytest.mark.parametrize("at", [None, 2], ids=["before-its-run", "at-a-middle-state"])
    @pytest.mark.parametrize("index", [0, 1])
    def test_an_error_in_a_pair_leaves_after_both_rungs_return(self, tmp_path, failing_rung, index, at):
        # rung 0 runs on the helper thread and hands its States to rung 1;
        # either one's ValueError leaves run_sweep once both stores are closed
        # and the helper has stopped, and the failed rung writes nothing
        plan = SweepPlan(mu_values=(1e-2, 5e-3, 2.5e-3), d=1, n=16, ic="acoustic-pulse", T=0.1, snapshots=4)
        failing_rung(plan.mu_values[index], at, ValueError)
        tables = StreamedTables(plan, lambda i, params: write_pass(
            tmp_path / f"entry_{i:02d}", "run", params, plan.snapshots + 1))
        threads = threading.active_count()
        with pytest.raises(ValueError, match="injected"):
            run_sweep(plan, tables.store_for)
        assert threading.active_count() == threads
        assert list(tmp_path.rglob("*.part")) == []
        assert not (tmp_path / f"entry_{index:02d}").exists()
        assert len(list((tmp_path / f"entry_{1 - index:02d}").glob("run_*.ckhs"))) == plan.snapshots + 1

    @pytest.mark.parametrize("way", [None, (0, 2, BlowUpError), (1, 2, BlowUpError), (0, None, ValueError),
                                     (1, None, ValueError), (0, 2, ValueError), (1, 2, ValueError)],
                             ids=["completed", "0-blows-up", "1-blows-up", "0-before-its-run",
                                  "1-before-its-run", "0-at-a-middle-state", "1-at-a-middle-state"])
    def test_each_end_of_a_pairs_relay_is_called_once_after_its_rungs_store_closes(
            self, monkeypatch, failing_rung, way):
        # however rung 0 (the sender) or rung 1 (the taker) leaves, run_sweep
        # closes its store, then calls its end of the relay, once each
        plan = SweepPlan(mu_values=(1e-2, 5e-3, 2.5e-3), d=1, n=16, ic="acoustic-pulse", T=0.1, snapshots=4)
        if way is not None:
            failing_rung(plan.mu_values[way[0]], way[1], way[2])
        stores, ends = {}, []

        class Recorded(_Relay):
            def send(self, st):
                if st is None:
                    ends.append(("send(None)", inspect.getgeneratorstate(stores[self.sender])))
                super().send(st)

            def stop_taking(self):
                ends.append(("stop_taking()", inspect.getgeneratorstate(stores[self.sender + 1])))
                super().stop_taking()

        monkeypatch.setattr(baroflow.sweep, "_Relay", Recorded)
        tables = StreamedTables(plan)

        def store_for(i, params, mate, later):
            stores[i] = tables.store_for(i, params, mate, later)
            return stores[i]

        threads = threading.active_count()
        if way is None or way[2] is BlowUpError:
            sweep = run_sweep(plan, store_for)
            assert [e.completed for e in sweep.entries] == [way is None or i != way[0] for i in range(3)]
        else:
            with pytest.raises(ValueError, match="injected"):
                run_sweep(plan, store_for)
        assert threading.active_count() == threads
        closed = inspect.GEN_CLOSED
        assert sorted(ends) == [("send(None)", closed), ("stop_taking()", closed)]

    def test_a_long_ladder_pairs_its_rungs_and_stops_its_helper(self, acoustic_sweep):
        # 6 rungs: the reference, the pairs (0, 1) and (2, 3), then rung 4
        # alone; each pair's Cauchy distance is its live one
        plan = dataclasses.replace(acoustic_sweep[0], mu_values=tuple(1e-2 * 0.5**i for i in range(6)),
                                   snapshots=10)
        sweep = run_sweep(plan)
        threads = threading.active_count()
        streamed = StreamedTables(plan)
        cauchy, ref, small = streamed.tables(run_sweep(plan, streamed.store_for))
        assert threading.active_count() == threads
        for got, want in ((cauchy, cauchy_distances(sweep)), (ref, distances_to(sweep))):
            assert got.mu_pairs == want.mu_pairs
            assert np.array_equal(got.rho_distances, want.rho_distances)
            assert np.array_equal(got.m_distances, want.m_distances)
        assert small == viscous_smallness(sweep)


class TestRelay:
    def test_every_state_is_handed_on_once_in_order_while_threads_switch_often(self):
        # four sender/taker pairs, more threads than cores, switching every
        # microsecond: a taker gets the sender's items in order until the
        # sender stops (after 2000 or 700) or it stops taking itself (after
        # 501 or 1), and no sender waits on a taker that has stopped
        cases = [(2000, None), (2000, 500), (2000, 0), (700, None)]
        relays = [_Relay(0, None, None) for _ in cases]
        got = [[] for _ in cases]

        def sending(relay, count):
            for k in range(count):
                relay.send(k)
            relay.send(None)

        def taking(relay, out, stop):
            for k in relay:
                out.append(k)
                if k == stop:
                    relay.stop_taking()
                    return

        threads = [threading.Thread(target=sending, args=(r, count)) for r, (count, _) in zip(relays, cases)]
        threads += [threading.Thread(target=taking, args=(r, out, stop)) for r, out, (_, stop) in zip(relays, got, cases)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [list(range(2000)), list(range(501)), [0], list(range(700))]


class TestConvergenceRate:
    def test_recovers_synthetic_rate(self):
        mus = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        dists = 3.0 * mus**1.1
        assert abs(convergence_rate(mus, dists) - 1.1) < 1e-12

    def test_exact_agreement_reports_inf(self):
        assert convergence_rate([1e-2, 5e-3], [0.0, 0.0]) == float("inf")

    def test_single_usable_point_rejected(self):
        with pytest.raises(ValueError, match="at least two nonzero"):
            convergence_rate([1e-2, 5e-3], [0.1, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            convergence_rate([1e-2, 5e-3], [0.1])


class TestViscousSmallness:
    def test_table_tracks_energy_budget(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        table = viscous_smallness(sweep)
        assert len(table.rows) == 3
        assert [r.mu for r in table.rows] == list(plan.mu_values)
        assert all(r.grad_u_l2 > 0 for r in table.rows)
        # mu * ||grad u||^2 <= D(T) holds with lam = -2 mu / 3
        assert table.energy_bounded

    def test_a_dissipation_below_mu_grad_u_squared_is_not_bounded(self, acoustic_sweep):
        # a ledger whose D(T) is a tenth of the one run leaves mu ||grad u||^2 above c D(T)
        plan, sweep = acoustic_sweep
        last = sweep.entries[-1]
        report = dataclasses.replace(last.result.report, D=0.1 * last.result.report.D)
        shrunk = dataclasses.replace(last, result=dataclasses.replace(last.result, report=report))
        table = viscous_smallness(dataclasses.replace(sweep, entries=sweep.entries[:-1] + (shrunk,)))
        assert not table.energy_bounded
        assert table.rows[:-1] == viscous_smallness(sweep).rows[:-1]

    def test_mu_grad_column_decreases(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        table = viscous_smallness(sweep)
        assert table.mu_grad_decreasing
        vals = [r.mu_grad for r in table.rows]
        assert vals == sorted(vals, reverse=True)


class TestLimitCandidate:
    def test_scorecard_on_converging_sweep(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        report = limit_candidate_check(sweep)
        assert report.mu == plan.mu_values[-1]
        assert len(report.weak.mass) == 3
        assert len(report.weak.momentum) == 3
        assert report.weak.mass_max_rel <= report.rel_tol
        assert report.weak.ns_max_rel <= report.rel_tol
        assert report.admissibility.admissible
        assert report.vacuum_fraction == 0.0
        assert math.isfinite(report.m_t) and report.m_t > 0
        assert report.plausible_limit

    def test_a_reference_whose_ledger_does_not_close_is_no_plausible_limit(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        report = limit_candidate_check(sweep)
        ledger = sweep.entries[-1].result.report
        assert report.ledger_rel == abs(ledger.R[-1]) / ledger.E0 < 1e-6 and report.plausible_limit
        for rel, plausible in ((0.5e-6, True), (2e-6, False)):
            R = ledger.R.copy()
            R[-1] = -rel * ledger.E0
            last = sweep.entries[-1]
            broken = dataclasses.replace(last, result=dataclasses.replace(
                last.result, report=dataclasses.replace(ledger, R=R)))
            got = limit_candidate_check(dataclasses.replace(sweep, entries=sweep.entries[:-1] + (broken,)))
            assert math.isclose(got.ledger_rel, rel, rel_tol=1e-12) and got.plausible_limit is plausible
            assert (got.weak, got.admissibility.admissible, got.m_t) == (report.weak, True, report.m_t)

    def test_euler_deficit_equals_viscous_term(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        report = limit_candidate_check(sweep)
        for r in report.weak.momentum:
            assert abs((r.euler_residual - r.viscous_term) - r.ns_residual) < 1e-15

    def test_last_rung_is_swept_once(self, acoustic_sweep):
        class CountingSeries(SnapshotSeries):
            def __iter__(self):
                object.__setattr__(self, "sweeps", getattr(self, "sweeps", 0) + 1)
                return super().__iter__()

        plan, sweep = acoustic_sweep
        last = sweep.entries[-1]
        counted = CountingSeries(states=last.result.series.states)
        entry = dataclasses.replace(last, result=dataclasses.replace(last.result, series=counted))
        limit_candidate_check(dataclasses.replace(sweep, entries=sweep.entries[:-1] + (entry,)))
        assert counted.sweeps == 1

    def test_report_equals_the_public_functions(self, acoustic_sweep):
        plan, sweep = acoustic_sweep
        entry = sweep.entries[-1]
        series, params, ledger = entry.result.series, entry.params, entry.result.report
        T = series.times[-1]
        weak = weak_residuals(series, params, default_test_functions(series.grid, T),
                              default_test_functions(series.grid, T, vector=True))
        adm = energy_admissibility(ledger.t, ledger.E, ledger.W)
        ie = time_integrated_spectrum(series, params).integrated_energy
        shells = np.arange(1, plan.n // 3 + 1, dtype=np.float64)
        report = limit_candidate_check(sweep, theta=1.0)
        assert report.weak == weak
        assert (report.admissibility.max_residual, report.admissibility.admissible) == (adm.max_residual,
                                                                                        adm.admissible)
        # theta = 1 flags part of the acoustic pulse's last state
        assert 0.0 < report.vacuum_fraction == reynolds_quotient(series[-1], 1.0).vacuum_fraction < 1.0
        assert report.m_t == float(np.max(shells ** (5.0 / 3.0) * ie[1 : plan.n // 3 + 1]))

    def test_no_completed_runs_rejected(self):
        plan = SweepPlan(mu_values=(1e-2, 5e-3), d=1, n=16)
        failed = tuple(
            SweepEntry(mu=mu, params=plan.params_for(mu), failure="boom")
            for mu in plan.mu_values
        )
        sweep = SweepResult(plan=plan, entries=failed, shared_dt=1e-3)
        with pytest.raises(ValueError, match="no completed runs"):
            limit_candidate_check(sweep)

    def test_flow_orthogonal_to_test_set_still_plausible(self):
        # Taylor-Green mass flux is divergence free at t = 0 and its
        # density stays in even modes, so every default scalar test
        # function integrates it to round-off.  The verdict must read
        # that as exact conservation, not as a large noise ratio.
        plan = SweepPlan(
            mu_values=(4e-3, 2e-3),
            d=2,
            n=32,
            gamma=1.4,
            kappa=1.0,
            ic="taylor-green",
            ic_amplitude=0.5,
            T=0.3,
            snapshots=12,
        )
        sweep = run_sweep(plan)
        report = limit_candidate_check(sweep)
        assert report.weak.mass_max_rel < 1e-10
        assert report.weak.ns_max_rel <= report.rel_tol
        assert report.plausible_limit
        assert all(r.roundoff_scale >= r.quadrature_scale for r in report.weak.momentum)
