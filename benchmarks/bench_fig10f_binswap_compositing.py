"""Figure 10f: binary-swap compositing stage only (weak scaling).

The paper's findings vs the reduction dataflow of Fig. 10e:

* binary swap keeps all tasks busy with ever-smaller tiles, so MPI and
  Charm++ *improve* over their reduction counterparts;
* Legion *degrades*: the task count grows while per-task work shrinks,
  so its per-task runtime overhead looms larger ("the number of tasks
  increases significantly, yet the workload of each task decreases");
* IceT remains fastest.
"""

from __future__ import annotations

import pytest

from benchmarks.compositing_common import (
    SIZES,
    assert_fig10f_shape,
    compositing_sweep,
    make_workload,
)
from benchmarks.harness import observe, print_series
from repro.runtimes import MPIController


def run_point(n: int):
    wl = make_workload(n, "binswap", render=False)
    return wl.run(observe(MPIController(n, cost_model=wl.cost_model())))


@pytest.fixture(scope="module")
def sweep():
    return compositing_sweep("binswap", False)


@pytest.fixture(scope="module")
def reduction_sweep():
    return compositing_sweep("reduction", False)


def test_fig10f_binswap_compositing(sweep, reduction_sweep, benchmark):
    benchmark.pedantic(run_point, args=(SIZES[0],), rounds=1, iterations=1)
    print_series("Figure 10f: binary-swap compositing stage only",
                 "cores (= images)", SIZES, sweep)
    assert_fig10f_shape(SIZES, sweep, reduction_sweep)
