"""Ablation: the MPI controller's in-memory message optimization.

Section IV-A: "To avoid unnecessary de-/serialization and copying of
data, the controller checks explicitly for inter-rank messages for which
it skips the serialization and instead transfers the memory directly."
This bench toggles that shortcut on a merge tree placed with the
workload-aware locality map, which keeps every leaf's correction chain
on the leaf's rank — so almost every edge is one the shortcut can skip —
and measures the makespan and the serialization time it saves.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import bench_field, observe, print_series
from repro.analysis.mergetree import MergeTreeWorkload, mergetree_locality_map
from repro.runtimes import DEFAULT_COSTS, MPIController

LEAVES = 512
CORES = [16, 64]


def make_workload() -> MergeTreeWorkload:
    return MergeTreeWorkload(
        bench_field(), LEAVES, threshold=0.45, valence=8,
        sim_shape=(1024, 1024, 1024),
    )


def run_point(wl, cores: int, in_memory: bool):
    costs = DEFAULT_COSTS.with_(mpi_in_memory=in_memory)
    c = observe(MPIController(cores, cost_model=wl.cost_model(), costs=costs))
    return wl.run(c, mergetree_locality_map(wl.graph, cores))


def run_sweep(wl, sizes) -> dict[str, dict[int, float]]:
    out = {
        "makespan on": {}, "makespan off": {},
        "serialize on": {}, "serialize off": {},
    }
    for cores in sizes:
        for flag, in_memory in (("on", True), ("off", False)):
            r = run_point(wl, cores, in_memory)
            out[f"makespan {flag}"][cores] = r.makespan
            out[f"serialize {flag}"][cores] = r.stats.get("serialize")
    return out


def assert_inmemory_shape(sizes, sweep) -> None:
    """The ablation's claims, stated once: this benchmark and the tier-1
    suite (``tests/test_paper_claims.py``) both check them."""
    for cores in sizes:
        # The shortcut never hurts the makespan...
        assert sweep["makespan on"][cores] <= sweep["makespan off"][cores]
        # ...and, with on-rank edges to skip, removes nearly all of the
        # serialization the run would otherwise pay.
        off = sweep["serialize off"][cores]
        assert off > 0, cores
        assert sweep["serialize on"][cores] <= 0.01 * off, cores


@pytest.fixture(scope="module")
def workload():
    return make_workload()


@pytest.fixture(scope="module")
def sweep(workload):
    return run_sweep(workload, CORES)


def test_ablation_inmemory_messages(workload, sweep, benchmark):
    benchmark.pedantic(
        run_point, args=(workload, CORES[0], True), rounds=1, iterations=1
    )
    print_series("Ablation: MPI in-memory messages (locality map placement)",
                 "ranks", CORES, sweep)
    assert_inmemory_shape(CORES, sweep)
