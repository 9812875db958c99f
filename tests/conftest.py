"""Shared test fixtures."""

import functools
import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest


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
