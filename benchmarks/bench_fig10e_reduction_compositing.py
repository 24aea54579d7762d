"""Figure 10e: reduction compositing stage only (weak scaling).

With the rendering cost removed, the runtimes separate: IceT (no
serialization, no thread hand-off) is fastest; the generic backends grow
slowly with the core count (more images -> deeper tree), with MPI showing
the lowest increase.
"""

from __future__ import annotations

import pytest

from benchmarks.compositing_common import (
    SIZES,
    assert_fig10e_shape,
    compositing_sweep,
    make_workload,
)
from benchmarks.harness import observe, print_series
from repro.runtimes import MPIController


def run_point(n: int):
    wl = make_workload(n, "reduction", render=False)
    return wl.run(observe(MPIController(n, cost_model=wl.cost_model())))


@pytest.fixture(scope="module")
def sweep():
    return compositing_sweep("reduction", False)


def test_fig10e_reduction_compositing(sweep, benchmark):
    benchmark.pedantic(run_point, args=(SIZES[0],), rounds=1, iterations=1)
    print_series("Figure 10e: reduction compositing stage only",
                 "cores (= images)", SIZES, sweep)
    assert_fig10e_shape(SIZES, sweep)
