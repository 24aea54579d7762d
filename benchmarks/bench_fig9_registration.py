"""Figure 9: brain data registration across runtimes.

The paper registers 25 x 1024^3 microscopy volumes (5x5 grid, 15%
overlap) with the 2D neighbor dataflow over Z slabs on 256-3200 nodes,
using only 4 of the 32 cores per node because the correlation tasks are
memory-limited.  Reported behaviour: MPI and Charm++ scale well, with MPI
better at low and Charm++ at high node counts; Legion is on par (even
slightly ahead) at low counts but levels out as the per-task work
shrinks.

Here: the synthetic 5x5 grid with ground-truth jitter (verified), 32 Z
slabs, 4 procs per simulated node, costs calibrated to 1024^3 volumes.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import observe, print_series, sweep_sizes
from repro.analysis.registration import (
    RegistrationWorkload,
    SyntheticVolumeGrid,
    VolumeGridSpec,
)
from repro.runtimes import CharmController, LegionSPMDController, MPIController

#: Simulated *nodes*; each node contributes 4 usable procs (cores).
NODES = sweep_sizes(small=[16, 64, 256], full=[64, 256, 1024, 3200])
CORES_PER_NODE_USED = 4

SERIES = [
    ("MPI", MPIController),
    ("Charm++", CharmController),
    ("Legion", LegionSPMDController),
]


def make_workload() -> RegistrationWorkload:
    grid = SyntheticVolumeGrid(
        VolumeGridSpec(
            gx=5, gy=5, vol_shape=(24, 24, 32), overlap=0.25,
            max_jitter=1, seed=42,
        )
    )
    return RegistrationWorkload(
        grid, slabs=16, sim_vol_shape=(1024, 1024, 1024)
    )


def run_point(workload, ctor, nodes: int):
    c = observe(ctor(
        nodes * CORES_PER_NODE_USED,
        cost_model=workload.cost_model(),
        procs_per_node=CORES_PER_NODE_USED,
    ))
    result = workload.run(c)
    assert workload.verify(result), "registration must recover ground truth"
    return result


def run_sweep(workload, nodes) -> dict[str, dict[int, float]]:
    """Makespan per series and node count (every run verified)."""
    return {
        name: {n: run_point(workload, ctor, n).makespan for n in nodes}
        for name, ctor in SERIES
    }


def assert_fig9_shape(nodes, sweep) -> None:
    """The paper's Fig. 9 claims, stated once: this benchmark and the
    tier-1 suite (``tests/test_paper_claims.py``) both check them."""
    mpi, charm, legion = sweep["MPI"], sweep["Charm++"], sweep["Legion"]
    low, mid, high = nodes[0], nodes[-2], nodes[-1]

    # MPI and Charm++ both scale with node count and stay close.
    assert mpi[high] < mpi[low]
    assert charm[high] < charm[low]
    for n in nodes:
        assert charm[n] < 1.5 * mpi[n], n
        assert mpi[n] < 1.5 * charm[n], n

    # Legion is on par at low counts but levels out: its gain from the
    # last scaling step is no better than MPI's.
    assert legion[low] < 1.5 * mpi[low]
    assert legion[mid] / legion[high] <= mpi[mid] / mpi[high] * 1.05


@pytest.fixture(scope="module")
def workload():
    return make_workload()


@pytest.fixture(scope="module")
def sweep(workload):
    return run_sweep(workload, NODES)


def test_fig9_registration(workload, sweep, benchmark):
    benchmark.pedantic(
        run_point, args=(workload, MPIController, NODES[0]), rounds=1, iterations=1
    )
    print_series("Figure 9: brain registration time (1024^3 volume model)",
                 "nodes", NODES, sweep)
    assert_fig9_shape(NODES, sweep)
