"""The call budget of the compositing callbacks.

A wall-clock-free perf guard beside ``tests/test_runtime_call_budget.py``:
on the benchmark's 24 x 24 image a binary-swap callback works on 2-576
pixels, so its cost is the number of Python and C calls around the
arrays, not arithmetic.  What the static description fixes — the tile a
task owns and where it is cut, a block's image footprint — is looked up,
not re-derived per task, so the count every ``sys.setprofile`` event
gives is the same at every stage and repeats run to run.
"""

import sys

import numpy as np
import pytest

from repro.analysis.rendering import ImageFragment, RenderingWorkload
from repro.analysis.rendering.tiles import (
    radix_cuts,
    radix_region,
    region_shape,
    split_region,
    split_region_k,
    swap_cuts,
    swap_region,
)
from repro.core.payload import Payload

#: Calls inside one warm ``binswap_composite`` / ``binswap_leaf`` of a
#: 1,024-block workload.  Read 44 / 48 / 52 at stages 1 / 5 / 9 (the
#: stage-long ``swap_region`` loop) and 226 before the cut and footprint
#: tables; 37 and 94 with them.  Landed + 10 %.
COMPOSITE_CALLS_CEILING = 40
LEAF_CALLS_CEILING = 103


def count_calls(fn, *args) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls  # includes the closing ``sys.setprofile(None)``


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2018)
    return RenderingWorkload(
        rng.random((48, 48, 48)), 1024, image_shape=(24, 24), mode="binswap"
    )


def fragments(shape, seed):
    rng = np.random.default_rng(seed)
    return [
        Payload(ImageFragment(
            rng.random(shape + (4,), dtype=np.float32),
            rng.random(shape, dtype=np.float32),
        ))
        for _ in range(2)
    ]


def test_composite_calls_do_not_grow_with_the_stage(workload):
    g, index = workload.graph, 777
    counts = {}
    for stage in (1, 5, 9):
        tid = g.task_id(stage, index)
        tile = region_shape(swap_region((24, 24), stage, index))
        inputs = fragments(tile, stage)
        workload.binswap_composite(inputs, tid)  # warm: fills the cut table
        counts[stage] = count_calls(workload.binswap_composite, inputs, tid)
    assert len(set(counts.values())) == 1, counts
    assert counts[1] <= COMPOSITE_CALLS_CEILING, counts


def test_leaf_stays_in_its_call_budget(workload):
    leaf = workload.graph.leaf_ids()[5]
    inputs = [workload.initial_inputs()[leaf]]
    workload.binswap_leaf(inputs, leaf)  # warm: fills the footprint table
    calls = count_calls(workload.binswap_leaf, inputs, leaf)
    assert calls <= LEAF_CALLS_CEILING, calls


def relative_to(region, parts):
    """The uncached algebra: ``parts`` shifted to ``region``'s origin."""
    y0, _, x0, _ = region
    return tuple((r[0] - y0, r[1] - y0, r[2] - x0, r[3] - x0) for r in parts)


@pytest.mark.parametrize("shape", [(24, 24), (33, 17), (17, 33)])
def test_cuts_are_keyed_by_image_shape(shape):
    """A second workload with another ``image_shape`` in the same process
    is never served the first one's cuts: every cached entry equals what
    the uncached tile algebra derives for *its* shape."""
    swap_cuts((24, 24), 3, 5)  # another shape's entry is already cached
    for stage in range(6):
        for index in range(1 << stage):
            region = swap_region(shape, stage, index)
            expected = relative_to(region, split_region(region, stage))
            # Only the low ``stage`` bits select the tile.
            high = index | (5 << stage)
            assert swap_region(shape, stage, high) == region
            assert swap_cuts(shape, stage, index) == expected


def test_radix_cuts_match_the_uncached_algebra():
    for shape in [(64, 64), (37, 29)]:
        for stage in range(3):
            for index in range(4 ** stage):
                region = radix_region(shape, 4, stage, index)
                expected = relative_to(region, split_region_k(region, 4, stage))
                assert radix_region(shape, 4, stage, index + 4 ** stage) == region
                assert radix_cuts(shape, 4, stage, index) == expected


def test_two_workloads_of_different_shapes_share_a_process():
    """End to end: the second workload's image is its own."""
    rng = np.random.default_rng(3)
    field = rng.random((16, 16, 16))
    images = {}
    for shape in [(24, 24), (33, 17), (24, 24)]:
        wl = RenderingWorkload(field, 16, image_shape=shape, mode="binswap")
        img = wl.assemble(wl.run("serial"))
        assert img.shape == shape
        assert np.allclose(img.rgba, wl.reference_image().rgba, atol=1e-5)
        images.setdefault(shape, []).append(img)
    first, again = images[(24, 24)]
    assert first == again
