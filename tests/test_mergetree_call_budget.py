"""The call budget of the merge-tree callbacks on an empty block.

A wall-clock-free perf guard beside ``tests/test_rendering_call_budget.py``:
on the benchmark's point (48^3 field, 1,024 blocks of 6 x 6 x 3, threshold
0.45) 846 leaf blocks hold no voxel above the threshold, 167 joins merge
four empty boundaries and every empty relabel map reaches every leaf of
its subtree.  Those tasks must cost a handful of calls, not the dense
pipeline: the count every ``sys.setprofile`` event gives repeats run to
run, so a regression shows without a clock.
"""

import sys

import numpy as np
import pytest

from repro.analysis.mergetree import MergeTreeWorkload
from repro.data import hcci_proxy

#: Calls inside one warm callback of the 1,024-block workload.  The dense
#: pipeline read 89 (LOCAL on an empty block, 51 of them in numpy), 58
#: (JOIN of four empty boundaries, 20 in numpy), 8 (CORRECTION with an
#: empty update) and 23 (SEGMENTATION of a block of -1, 17 in numpy)
#: before the short-circuits; 16, 24, 1 and 2 with them.  Landed + 10 %.
EMPTY_LOCAL_CALLS_CEILING = 17
EMPTY_JOIN_CALLS_CEILING = 26
PASS_THROUGH_CORRECTION_CALLS_CEILING = 1
INACTIVE_SEGMENTATION_CALLS_CEILING = 2


def profile_calls(fn, *args) -> tuple[int, int]:
    """``(calls, numpy_calls)`` inside ``fn(*args)``: every Python and C
    call, and those of them that enter numpy."""
    calls = numpy_calls = 0

    def count(frame, event, arg):
        nonlocal calls, numpy_calls
        if event == "call":
            calls += 1
            numpy_calls += "numpy" in frame.f_code.co_filename
        elif event == "c_call":
            calls += 1
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or type(owner).__module__
            numpy_calls += module.startswith("numpy")

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls - 1, numpy_calls  # less the closing ``sys.setprofile(None)``


@pytest.fixture(scope="module")
def workload():
    field = hcci_proxy((48, 48, 48), n_features=40, feature_sigma=2.0, seed=2018)
    return MergeTreeWorkload(
        field, 1024, threshold=0.45, valence=4, sim_shape=(1024, 1024, 1024)
    )


@pytest.fixture(scope="module")
def empty_join(workload):
    """``(j, leaf payloads)`` of a first-round join under which no block
    reaches the threshold; each leaf payload is LOCAL's output pair."""
    g, inputs = workload.graph, workload.initial_inputs()
    for j in range(g.join_count(1)):
        leaves = g.subtree_leaves(1, j)
        blocks = [inputs[g.local_id(b)] for b in leaves]
        if all(not (p.data >= workload.threshold).any() for p in blocks):
            return j, [
                workload.local_compute([p], g.local_id(b))
                for b, p in zip(leaves, blocks)
            ]
    raise AssertionError("the benchmark field has all-empty joins")


def test_most_of_the_benchmark_point_is_empty(workload):
    """The occupancy the budget is about (docs/performance.md)."""
    blocks = workload.initial_inputs().values()
    empty = sum(not (p.data >= workload.threshold).any() for p in blocks)
    assert empty == 846


def test_empty_local_stays_in_its_call_budget(workload, empty_join):
    g = workload.graph
    j, _ = empty_join
    tid = g.local_id(g.subtree_leaves(1, j)[0])
    inputs = [workload.initial_inputs()[tid]]
    state, boundary = workload.local_compute(inputs, tid)  # warm the caches
    assert not state.data.active and (state.data.labels == -1).all()
    assert boundary.data.n_voxels == 0 and boundary.nbytes == 16
    calls, _ = profile_calls(workload.local_compute, inputs, tid)
    assert calls <= EMPTY_LOCAL_CALLS_CEILING, calls


def test_all_empty_join_never_enters_numpy(workload, empty_join):
    j, leaves = empty_join
    tid = workload.graph.join_id(1, j)
    inputs = [boundary for _, boundary in leaves]
    merged, relabel = workload.join(inputs, tid)
    assert merged.data.n_voxels == 0 and merged.nbytes == 16
    assert relabel.data == {} and relabel.nbytes == 16
    calls, numpy_calls = profile_calls(workload.join, inputs, tid)
    assert calls <= EMPTY_JOIN_CALLS_CEILING, calls
    assert numpy_calls == 0


def test_correction_passes_its_state_through_an_empty_update(workload, empty_join):
    g = workload.graph
    j, leaves = empty_join
    leaf = g.subtree_leaves(1, j)[0]
    state = leaves[0][0]
    _, relabel = workload.join([b for _, b in leaves], g.join_id(1, j))
    tid = g.correction_id(1, leaf)
    (out,) = workload.correction([state, relabel], tid)
    assert out.data == state.data and out.nbytes == state.nbytes
    calls, numpy_calls = profile_calls(workload.correction, [state, relabel], tid)
    assert calls <= PASS_THROUGH_CORRECTION_CALLS_CEILING, calls
    assert numpy_calls == 0


def test_inactive_segmentation_returns_the_labels_as_they_are(workload, empty_join):
    g = workload.graph
    j, leaves = empty_join
    leaf = g.subtree_leaves(1, j)[0]
    # At the end of the chain an inactive leaf still holds every relabel
    # entry of its subtree: the map alone must not trigger the remap.
    state = leaves[0][0]
    (state,) = workload.correction(
        [state, workload._relabel_payload({7: (9, 0.9)})], g.correction_id(1, leaf)
    )
    assert state.data.relabel and not state.data.active
    tid = g.segmentation_id(leaf)
    (out,) = workload.segmentation([state], tid)
    block, labels = out.data
    assert block == leaf and np.array_equal(labels, state.data.labels)
    assert out.nbytes == int(labels.nbytes * workload.volume_scale)
    calls, numpy_calls = profile_calls(workload.segmentation, [state], tid)
    assert calls <= INACTIVE_SEGMENTATION_CALLS_CEILING, calls
    assert numpy_calls == 0
