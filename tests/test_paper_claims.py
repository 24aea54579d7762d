"""The paper's figure-shape claims under the tier-1 command.

The assertions live with the figure benchmarks (``benchmarks/bench_fig*``,
which also need ``pytest-benchmark``; figs. 10e/f state theirs beside the
shared sweeps in ``benchmarks/compositing_common``); the figures cheap
enough for tier-1 — 6, 9, 10a/b/c/e/f — are swept here at small scale through
the same functions, so ``python -m pytest`` regression-tests the paper,
not just the machinery.
"""

import pytest

from benchmarks import bench_fig6_mergetree_runtimes as fig6
from benchmarks import bench_fig9_registration as fig9
from benchmarks import compositing_common as fig10

FIG6_CORES = [16, 64, 256, 1024]

#: EXPERIMENTS.md, "Fig. 6": virtual seconds from the analytic cost model
#: over the payloads' wire sizes — a merge-tree kernel that changed a
#: payload by one byte, or a label by one voxel, would move them.
FIG6_MAKESPANS = {
    "Original MPI": {16: 3.7478, 64: 1.6042, 256: 1.0716, 1024: 1.0177},
    "MPI": {16: 3.6832, 64: 1.5718, 256: 1.0548, 1024: 1.0084},
    "Charm++": {16: 3.6754, 64: 1.5867, 256: 1.0550, 1024: 1.0085},
    "Legion": {16: 3.7610, 64: 1.5698, 256: 1.0578, 1024: 1.0275},
}


@pytest.fixture(scope="module")
def fig6_sweep():
    return fig6.run_sweep(fig6.make_workload(), FIG6_CORES)


def test_fig6_mergetree_shape(fig6_sweep):
    fig6.assert_fig6_shape(FIG6_CORES, fig6_sweep)


@pytest.mark.parametrize("series", list(FIG6_MAKESPANS))
@pytest.mark.parametrize("cores", FIG6_CORES)
def test_fig6_makespans_match_the_published_table(fig6_sweep, series, cores):
    published = FIG6_MAKESPANS[series][cores]
    assert f"{fig6_sweep[series][cores]:.4f}" == f"{published:.4f}"


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


FIG10_SIZES = (64, 256, 1024)

#: EXPERIMENTS.md, "Fig. 10e" and "Fig. 10f": compositing stage only.
FIG10_MAKESPANS = {
    "reduction": {
        "IceT": {64: 0.0138, 256: 0.0138, 1024: 0.0139},
        "MPI": {64: 0.3213, 256: 0.4547, 1024: 0.5797},
        "Charm++": {64: 0.3213, 256: 0.4548, 1024: 0.5798},
        "Legion": {64: 0.2106, 256: 0.2991, 1024: 0.3914},
    },
    "binswap": {
        "IceT": {64: 0.0138, 256: 0.0138, 1024: 0.0139},
        "MPI": {64: 0.0398, 256: 0.0407, 1024: 0.0409},
        "Charm++": {64: 0.0399, 256: 0.0407, 1024: 0.0410},
        "Legion": {64: 0.0312, 256: 0.0359, 1024: 0.0518},
    },
}


def fig10_sweep(mode):
    return fig10.compositing_sweep(mode, False, FIG10_SIZES)


def test_fig10e_reduction_compositing_shape():
    fig10.assert_fig10e_shape(FIG10_SIZES, fig10_sweep("reduction"))


def test_fig10f_binswap_compositing_shape():
    fig10.assert_fig10f_shape(
        FIG10_SIZES, fig10_sweep("binswap"), fig10_sweep("reduction")
    )


@pytest.mark.parametrize("mode", list(FIG10_MAKESPANS))
@pytest.mark.parametrize("series", list(FIG10_MAKESPANS["reduction"]))
@pytest.mark.parametrize("n", FIG10_SIZES)
def test_fig10ef_makespans_match_the_published_tables(mode, series, n):
    published = FIG10_MAKESPANS[mode][series][n]
    assert f"{fig10_sweep(mode)[series][n]:.4f}" == f"{published:.4f}"


FIG10A_CORES = (128, 512, 2048)

#: EXPERIMENTS.md, "Fig. 10a": the calibrated render model per core count.
FIG10A_MAKESPANS = {128: 125.2699, 512: 31.3175, 2048: 7.8294}


def test_fig10a_rendering_shape():
    fig10.assert_fig10a_shape(FIG10A_CORES, fig10.rendering_sweep(FIG10A_CORES))


@pytest.mark.parametrize("cores", FIG10A_CORES)
def test_fig10a_makespans_match_the_published_table(cores):
    t = fig10.rendering_sweep(FIG10A_CORES)["VTK volume rendering"][cores]
    assert f"{t:.4f}" == f"{FIG10A_MAKESPANS[cores]:.4f}"


#: EXPERIMENTS.md, "Fig. 10b/10c": rendering + compositing totals.
FIG10BC_MAKESPANS = {
    ("reduction", "IceT"): {64: 250.5536, 256: 62.6488, 1024: 15.6726},
    ("binswap", "IceT"): {64: 250.5536, 256: 62.6488, 1024: 15.6726},
    ("reduction", "MPI"): {64: 250.8694, 256: 63.0897, 1024: 16.2336},
    ("binswap", "MPI"): {64: 250.5800, 256: 62.6761, 1024: 15.7001},
}


def fig10bc_sweep(mode):
    return fig10.compositing_sweep(mode, True, FIG10_SIZES)


def test_fig10bc_full_dataflow_shape():
    fig10.assert_fig10bc_shape(
        FIG10_SIZES, fig10bc_sweep("reduction"), fig10bc_sweep("binswap")
    )


@pytest.mark.parametrize("mode, series", list(FIG10BC_MAKESPANS))
@pytest.mark.parametrize("n", FIG10_SIZES)
def test_fig10bc_makespans_match_the_published_table(mode, series, n):
    published = FIG10BC_MAKESPANS[mode, series][n]
    assert f"{fig10bc_sweep(mode)[series][n]:.4f}" == f"{published:.4f}"
