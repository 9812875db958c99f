"""Shared test fixtures."""

import functools
import gc
import itertools
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread it started alive: each such thread
    is joined for up to 5 s in all first."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in started if t.is_alive()]
    if alive:
        pytest.fail(f"threads outlive the test: {alive}")


@pytest.fixture
def traced_peak():
    """peak(call): the tracemalloc peak of call(), in bytes.  A collection
    before the call keeps garbage of earlier work out of the peak; call
    it once before measuring, so lazy imports and caches are in place."""

    def peak(call):
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def full_lattice():
    """lattice(grid): the full-lattice formulas, from np.fft.fftfreq, that
    the grid's operators are compared against.  Per axis, broadcastable:
    the integer modes (Nyquist labelled +n/2), k = (2 pi / P) * mode and
    i*k with the Nyquist mode zeroed.  On the lattice: |k|^2 (Nyquist
    kept), |mode|, the two-thirds mask |mode_a| <= n//3 and the
    centered-phase factor (-1)^(sum of modes)."""

    def lattice(grid):
        d, n = grid.d, grid.n
        mode = np.rint(np.fft.fftfreq(n, 1.0 / n))
        mode[n // 2] = n // 2
        k = (2.0 * np.pi / grid.P) * mode
        k_deriv = np.where(np.arange(n) == n // 2, 0.0, k)

        def per_axis(values):
            return [values.reshape([n if b == a else 1 for b in range(d)]) for a in range(d)]

        modes, ks = per_axis(mode), per_axis(k)
        return SimpleNamespace(
            modes=modes, k=ks, ik=per_axis(1j * k_deriv),
            k2=sum(kv**2 for kv in ks),
            mode_norm=np.sqrt(sum(m**2 for m in modes)),
            dealias=functools.reduce(np.logical_and, [np.abs(m) <= n // 3 for m in modes]),
            origin_phase=(-1.0) ** sum(modes),
        )

    return lattice


@pytest.fixture
def failing_rung(monkeypatch):
    """fail(mu, at, error=BlowUpError): from then on, the sweep rung at
    viscosity mu raises error as its store is sent the at-th State (the
    initial State is the 0th) instead, its store closed; or at once, before
    its run starts, when at is None."""
    import baroflow.sweep
    from baroflow.solver import BlowUpError, collect_pass

    real_run = baroflow.sweep.run

    def raising_at(store, at, error):
        next(store)
        answer = None
        try:
            for index in itertools.count():
                st = yield answer
                if index == at:
                    raise error(f"injected at State {at}")
                answer = store.send(st)
        finally:
            store.close()

    def fail(mu, at, error=BlowUpError):
        def run(initial, params, T, snapshots, store=None, **kwargs):
            if params.mu == mu:
                if at is None:
                    raise error("injected before the run")
                store = raising_at(collect_pass(snapshots + 1) if store is None else store, at, error)
            return real_run(initial, params, T, snapshots=snapshots, store=store, **kwargs)

        monkeypatch.setattr(baroflow.sweep, "run", run)

    return fail
