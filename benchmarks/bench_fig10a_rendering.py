"""Figure 10a: the VTK volume-rendering stage, strong scaling.

The rendering stage is embarrassingly parallel and identical for every
runtime, so the paper plots a single curve (~100 s at 128 cores for the
1024^3 HCCI volume rendered to 2048^2, strong-scaling down from there).

Here: one block per core, each leaf really ray-marches its block (output
verified against the single-pass render in the tests); virtual cost is
the calibrated render model.  The sweep and its shape claims live in
:mod:`benchmarks.compositing_common`.
"""

from __future__ import annotations

import pytest

from benchmarks.compositing_common import (
    RENDER_SIZES as SIZES,
    assert_fig10a_shape,
    render_point,
    rendering_sweep,
)
from benchmarks.harness import print_series


@pytest.fixture(scope="module")
def sweep():
    return rendering_sweep(tuple(SIZES))


def test_fig10a_rendering(sweep, benchmark):
    benchmark.pedantic(render_point, args=(SIZES[0],), rounds=1, iterations=1)
    print_series("Figure 10a: volume rendering stage (1024^3 -> 2048^2 model)",
                 "cores", SIZES, sweep)
    assert_fig10a_shape(SIZES, sweep)
