"""The one snapshot-consumer protocol: every pass the CLI hands solver.run
as its store (collect, block, times, write, a sweep rung's fan-out, with
and without a writing hold) answers the same whether diagnostics.feed
drives it over a stored series or run drives it live, and a run that
raises mid-series, or whose store answers on another State than its
last, closes it before it answers, leaving nothing behind.  block_pass
rebuilds the States it holds as coefficient blocks bit for bit."""

import dataclasses
import gc
import inspect
import threading
import tracemalloc

import numpy as np
import pytest

from baroflow.diagnostics import fan_out, feed
from baroflow.fields import make_grid
from baroflow.snapshots import write_pass
from baroflow.solver import (
    BlowUpError,
    FluidParams,
    ForcingSpec,
    MassDriftError,
    State,
    block_pass,
    collect_pass,
    preset_ic,
    run,
    times_pass,
)
from baroflow.sweep import StreamedTables, SweepPlan, _Relay

PLAN = SweepPlan(mu_values=(0.02, 0.01, 0.005), d=1, n=16, ic="acoustic-pulse", T=0.1, snapshots=4)
COUNT = PLAN.snapshots + 1
DT_CAP = 0.005
INITIAL = preset_ic("acoustic-pulse", make_grid(1, 16, PLAN.P), PLAN.params_for(0.02))


def run_rung(index, store=None, extra_source=None):
    return run(INITIAL, PLAN.params_for(PLAN.mu_values[index]), PLAN.T, snapshots=PLAN.snapshots,
               dt_cap=DT_CAP, extra_source=extra_source, store=store)


def states(series):
    return [(st.t, st.rho.values.tobytes(), st.m.values.tobytes()) for st in series]


def stored(answer):
    return answer.times.tolist(), answer.meta, [p.name for p in answer.paths], states(answer)


def collect(where):
    return collect_pass(COUNT), states, lambda: []


def block(where):
    return block_pass(COUNT), states, lambda: []


def times(where):
    return times_pass(COUNT), np.ndarray.tolist, lambda: []


def write(where):
    return write_pass(where / "run", "demo", PLAN.params_for(0.02), COUNT), stored, lambda: list(where.iterdir())


def paired(store, tables, mate, relay):
    """store, the pass of rung 1, set up with its pair-mate rung 0 running
    from set-up on a helper thread, whose States it takes through the relay;
    each rung's end of the relay is called once its store is closed, as
    run_sweep does.  Once store answers or is closed, the helper has
    returned and tables has taken in both rungs' answers."""

    def helper_run():
        try:
            run_rung(0, mate)
        finally:
            mate.close()
            relay.send(None)

    helper = threading.Thread(target=helper_run)
    helper.start()
    try:
        next(store)
        answer = None
        while answer is None:
            answer = store.send((yield))
    except BaseException:
        store.close()
        raise
    finally:
        relay.stop_taking()
        helper.join(timeout=60)
        assert not helper.is_alive()
        tables._settle()
    yield answer


def rung(where, hold=None):
    """The fan-out of rung 1, the less viscous of the pair (0, 1) that runs
    after the reference: it takes rung 0's States live for its Cauchy
    distance.  The pair is the last to run."""
    tables = StreamedTables(PLAN, hold)
    reference = run_rung(2, tables.store_for(2, PLAN.params_for(PLAN.mu_values[2]), None, True))
    relay = _Relay(0, reference.report.t, INITIAL.grid)
    mate, store = (tables.store_for(i, PLAN.params_for(PLAN.mu_values[i]), relay, False) for i in (0, 1))
    partner = tables.partner

    def view(answer):
        assert tables.partner is None  # the last pair to run pairs with no later one
        assert sorted(tables.reduced) == [0, 1, 2]
        return (stored(answer) if hold else answer.tolist()), tables.reduced[1]

    def leftovers():  # rung 0's run completes, and its files stay
        files = sorted(p.relative_to(where).as_posix() for p in where.rglob("*")
                       if not p.is_relative_to(where / "entry_00"))
        return [1 in tables.reduced, tables.partner is not partner, files]

    return paired(store, tables, mate, relay), view, leftovers


def writing_rung(where):
    return rung(where, lambda i, params: write_pass(where / f"entry_{i:02d}", "run", params, COUNT))


PASSES = {"collect": collect, "block": block, "times": times, "write": write, "rung": rung,
          "writing-rung": writing_rung}


@pytest.mark.parametrize("name", PASSES)
def test_feed_and_run_give_the_same_answer(tmp_path, name):
    make = PASSES[name]
    store, view, _ = make(tmp_path / "live")
    answer = run_rung(1, store).series
    assert len(answer) == COUNT  # bench/tracing.py counts steps by len(run(...).series)
    live = view(answer)
    series = run_rung(1).series
    store, view, _ = make(tmp_path / "fed")
    assert view(feed(series, [store])[0]) == live


@pytest.mark.parametrize("failure", ["blow-up", "mass drift"])
@pytest.mark.parametrize("name", PASSES)
def test_a_run_that_raises_closes_the_pass(tmp_path, name, failure):
    # nan once t passes 0.04, in the second snapshot interval; a mass
    # source shows only at the end, before the last snapshot is sent
    value, error = (np.nan, BlowUpError) if failure == "blow-up" else (1e-3, MassDriftError)

    def source(t, rho, m):
        return np.full_like(rho, value if t > 0.04 else 0.0), np.zeros_like(m)

    store, _, leftovers = PASSES[name](tmp_path)
    before = leftovers()
    with pytest.raises(error):
        run_rung(1, store, extra_source=source)
    assert inspect.getgeneratorstate(store) == inspect.GEN_CLOSED
    assert leftovers() == before


def test_a_closed_fan_out_closes_its_passes():
    passes = {"states": collect_pass(COUNT), "times": times_pass(COUNT)}
    fan = fan_out(passes, COUNT, dict)
    next(fan)
    fan.send(INITIAL)
    fan.close()
    assert [inspect.getgeneratorstate(p) for p in passes.values()] == [inspect.GEN_CLOSED] * 2


@pytest.mark.parametrize("count, said", [(4, "did not answer at State 3"), (2, "answered at State 2")])
def test_a_store_set_up_for_another_count_is_closed_with_an_error(count, said):
    store = times_pass(count)
    with pytest.raises(ValueError, match=rf"store {said} of the run's snapshots \+ 1 = 3$"):
        run(INITIAL, PLAN.params_for(0.02), PLAN.T, snapshots=2, dt_cap=DT_CAP, store=store)
    assert inspect.getgeneratorstate(store) == inspect.GEN_CLOSED


def test_a_store_that_stops_without_answering_is_an_error():
    def stops_after_the_initial_state():
        yield
        yield

    store = stops_after_the_initial_state()
    with pytest.raises(ValueError, match=r"^store stopped at State 2 of the run's snapshots \+ 1 = 3$"):
        run(INITIAL, PLAN.params_for(0.02), PLAN.T, snapshots=2, dt_cap=DT_CAP, store=store)
    assert inspect.getgeneratorstate(store) == inspect.GEN_CLOSED


def test_a_write_pass_set_up_for_more_states_leaves_no_file(tmp_path):
    store = write_pass(tmp_path / "run", "demo", PLAN.params_for(0.02), 4)
    with pytest.raises(ValueError, match="store is set up for 4 States, not the run's snapshots \\+ 1 = 3$"):
        run(INITIAL, PLAN.params_for(0.02), PLAN.T, snapshots=2, dt_cap=DT_CAP, store=store)
    assert list(tmp_path.iterdir()) == []



def test_a_write_pass_set_up_for_fewer_states_leaves_nothing(tmp_path):
    # it would answer at the run's second State and name its files then,
    # before run could refuse the early answer
    params = PLAN.params_for(0.02)
    store = write_pass(tmp_path / "wp" / "run", "demo", params, 2)
    with pytest.raises(ValueError, match="store is set up for 2 States, not the run's snapshots \\+ 1 = 3$"):
        run(INITIAL, params, T=0.05, snapshots=2, store=store)
    assert inspect.getgeneratorstate(store) == inspect.GEN_CLOSED
    assert list(tmp_path.rglob("*.ckhs")) == list(tmp_path.rglob("*.part")) == []
    assert not (tmp_path / "wp" / "run").exists()


def random_band(d, n, forced):
    terms = (((0.05,) + (0.0,) * (d - 1), (1,) + (0,) * (d - 1), 0.0),)
    params = FluidParams(mu=0.02, forcing=ForcingSpec(mode="trig", terms=terms) if forced else ForcingSpec())
    return preset_ic("random-band", make_grid(d, n, 2.0 * np.pi), params, seed=3, amplitude=0.5), params


def recording(store, coefs):
    """store, with the shape of each State's coefficients (None when it
    carries none), and whether their inverse gives its samples bit for bit,
    appended to coefs as the State is sent."""
    answer = next(store)
    while True:
        st = yield answer
        if st.coef is None:
            coefs.append(None)
        else:
            samples = st.grid.irfft_block(st.coef)
            coefs.append((st.coef.shape, np.array_equal(samples[0], st.rho.values)
                          and np.array_equal(samples[1:], st.m.values)))
        answer = store.send(st)


def kept(series):
    """Which of a BlockSeries' entries are States, kept as they are."""
    return [isinstance(item, State) for item in series.held]


class TestBlockPass:
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("d, n", [(1, 16), (2, 16), (3, 8)])
    def test_rebuilt_states_equal_the_sent_ones_bit_for_bit(self, d, n, forced):
        initial, params = random_band(d, n, forced)
        coefs = []
        held = run(initial, params, 0.2, snapshots=4, store=recording(block_pass(5), coefs)).series
        # run projects: the coefficients are the compact two-thirds block
        assert coefs == [None] + [((d + 1,) + initial.grid.block_shape, True)] * 4
        assert kept(held) == [True, False, False, False, False]
        assert held.times.tolist() == run(initial, params, 0.2, snapshots=4).series.times.tolist()
        assert states(held) == states(run(initial, params, 0.2, snapshots=4).series)

    def test_an_extra_source_moves_the_outer_modes_and_keeps_the_states(self):
        initial, params = random_band(2, 16, False)

        def source(t, rho, m):  # a momentum source with modes past the two-thirds block
            return np.zeros_like(rho), 1e-3 * np.sign(m)

        held = run(initial, params, 0.2, snapshots=4, extra_source=source, store=block_pass(5)).series
        assert kept(held) == [True] * 5
        assert states(held) == states(run(initial, params, 0.2, snapshots=4, extra_source=source).series)

    def test_a_pass_that_keeps_its_last_state_keeps_no_coefficients(self):
        def last(count):
            for _ in range(count):
                st = yield
            yield st

        st = run(INITIAL, PLAN.params_for(0.02), PLAN.T, snapshots=2, dt_cap=DT_CAP, store=last(3)).series
        assert st.t == PLAN.T and st.coef is None

    def test_state_equality_and_repr_ignore_the_coefficients(self):
        attached = dataclasses.replace(INITIAL, coef=np.zeros(3))
        assert attached == INITIAL and repr(attached) == repr(INITIAL)

    def test_a_3d_series_holds_under_a_third_of_its_samples(self):
        # 21 * 21 * 11 complex modes against 32^3 reals, per field: 0.296
        initial, params = random_band(3, 32, True)
        rerun = lambda: run(initial, params, 0.02, snapshots=2, dt_cap=0.01, store=block_pass(3)).series
        rerun()  # lazy imports and caches before the measurement
        gc.collect()
        tracemalloc.start()
        try:
            held = rerun()
            gc.collect()
            kept_bytes = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        samples = (1 + 3) * 8 * 32**3
        assert kept(held) == [True, False, False]
        assert kept_bytes <= 0.31 * 2 * samples
