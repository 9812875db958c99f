"""Shared test fixtures."""

import gc
import tracemalloc

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
