"""Figure 10b: full dataflow (rendering + reduction compositing).

The paper's totals for IceT/MPI/Charm++/Legion nearly coincide because
the strongly-scaled rendering stage dominates the composite: "the total
time for all runtimes is practically equivalent".
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
    wl = make_workload(n, "reduction", render=True)
    return wl.run(observe(MPIController(n, cost_model=wl.cost_model())))


@pytest.fixture(scope="module")
def sweep():
    return compositing_sweep("reduction", True)


@pytest.fixture(scope="module")
def binswap_sweep():
    return compositing_sweep("binswap", True)


def test_fig10b_full_reduction(sweep, binswap_sweep, benchmark):
    benchmark.pedantic(run_point, args=(SIZES[0],), rounds=1, iterations=1)
    print_series("Figure 10b: rendering + reduction compositing totals",
                 "cores", SIZES, sweep)
    assert_fig10bc_shape(SIZES, sweep, binswap_sweep)
