"""The one snapshot-consumer protocol: every pass the CLI hands solver.run
as its store (collect, times, write, a sweep rung's fan-out, with and
without a writing hold) answers the same whether diagnostics.feed drives
it over a stored series or run drives it live, and a run that raises
mid-series closes it before it answers, leaving nothing behind."""

import inspect

import numpy as np
import pytest

from baroflow.diagnostics import fan_out, feed
from baroflow.fields import make_grid
from baroflow.snapshots import write_pass
from baroflow.solver import BlowUpError, MassDriftError, collect_pass, preset_ic, run, times_pass
from baroflow.sweep import StreamedTables, SweepPlan

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


def times(where):
    return times_pass(COUNT), np.ndarray.tolist, lambda: []


def write(where):
    return write_pass(where / "run", "demo", PLAN.params_for(0.02), COUNT), stored, lambda: list(where.iterdir())


def rung(where, hold=None):
    """The fan-out of the middle rung, which runs last: the reference and the
    most viscous rung, its Cauchy partner, have run."""
    tables = StreamedTables(PLAN, hold)
    for index in (2, 0):
        run_rung(index, tables.store_for(index, PLAN.params_for(PLAN.mu_values[index])))
    partner = tables.partner

    def view(answer):
        assert tables.partner is None  # the last rung to run pairs with no later one
        return (stored(answer) if hold else answer.tolist()), tables.reduced[1]

    def leftovers():
        files = sorted(p.relative_to(where).as_posix() for p in where.rglob("*"))
        return [1 in tables.reduced, tables.partner is not partner, files]

    return tables.store_for(1, PLAN.params_for(0.01)), view, leftovers


def writing_rung(where):
    return rung(where, lambda i, params: write_pass(where / f"entry_{i:02d}", "run", params, COUNT))


PASSES = {"collect": collect, "times": times, "write": write, "rung": rung, "writing-rung": writing_rung}


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
