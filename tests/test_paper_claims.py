"""The paper's figure-shape claims under the tier-1 command.

The assertions live with the figure benchmarks (``benchmarks/bench_fig*``,
which also need ``pytest-benchmark``); the figures cheap enough for
tier-1 are swept here at small scale through the same functions, so
``python -m pytest`` regression-tests the paper, not just the machinery.
"""

import pytest

from benchmarks import bench_fig9_registration as fig9

FIG9_NODES = [16, 64, 256]

#: EXPERIMENTS.md, "Fig. 9": virtual seconds from the analytic cost model,
#: so no kernel's wall clock can move them.
FIG9_MAKESPANS = {
    "MPI": {16: 100.0312, 64: 30.0447, 256: 10.0774},
    "Charm++": {16: 100.0612, 64: 30.0448, 256: 10.0774},
    "Legion": {16: 99.5233, 64: 29.8613, 256: 10.0595},
}


@pytest.fixture(scope="module")
def fig9_sweep():
    # Every run asserts that it recovered the ground-truth jitter.
    return fig9.run_sweep(fig9.make_workload(), FIG9_NODES)


def test_fig9_registration_shape(fig9_sweep):
    fig9.assert_fig9_shape(FIG9_NODES, fig9_sweep)


@pytest.mark.parametrize("series", list(FIG9_MAKESPANS))
@pytest.mark.parametrize("nodes", FIG9_NODES)
def test_fig9_makespans_match_the_published_table(fig9_sweep, series, nodes):
    published = FIG9_MAKESPANS[series][nodes]
    assert f"{fig9_sweep[series][nodes]:.4f}" == f"{published:.4f}"
