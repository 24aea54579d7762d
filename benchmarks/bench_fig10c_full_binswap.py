"""Figure 10c: full dataflow (rendering + binary-swap compositing).

As with Fig. 10b the rendering stage dominates, so the totals of all
runtimes and the IceT baseline are close and fall with the core count.
"""

from __future__ import annotations

import pytest

from benchmarks.compositing_common import (
    SIZES,
    assert_fig10bc_shape,
    compositing_sweep,
    make_workload,
)
from benchmarks.harness import observe, print_series
from repro.runtimes import MPIController


def run_point(n: int):
    wl = make_workload(n, "binswap", render=True)
    return wl.run(observe(MPIController(n, cost_model=wl.cost_model())))


@pytest.fixture(scope="module")
def sweep():
    return compositing_sweep("binswap", True)


@pytest.fixture(scope="module")
def reduction_sweep():
    return compositing_sweep("reduction", True)


def test_fig10c_full_binswap(sweep, reduction_sweep, benchmark):
    benchmark.pedantic(run_point, args=(SIZES[0],), rounds=1, iterations=1)
    print_series("Figure 10c: rendering + binary-swap compositing totals",
                 "cores", SIZES, sweep)
    assert_fig10bc_shape(SIZES, reduction_sweep, sweep)
