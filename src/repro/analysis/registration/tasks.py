"""BabelFlow wiring of the volume-registration dataflow (Section V-C).

:class:`RegistrationWorkload` runs the paper's Fig. 8 dataflow on any
controller:

* EXTRACT — per (volume, Z-slab): cut out the overlap window facing each
  grid neighbor and send it to that edge's correlation task;
* CORRELATE — per (edge, slab): cross-correlate the two facing windows
  and de-bias the peak into the pairwise jitter measurement;
* EVALUATE ("sort/evaluate") — per edge: consensus over the slabs;
* PLACE — solve the global least-squares placement of all volumes from
  the pairwise measurements (anchored at volume 0).

The workload knows the ground truth (the synthetic grid's jitter), so
:meth:`RegistrationWorkload.verify` can assert exact recovery — something
the paper could not do with real microscopy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.registration.correlate import (
    OffsetEstimate,
    consensus_offset,
    ncc_shift,
)
from repro.analysis.registration.volumes import SyntheticVolumeGrid
from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.graphs.neighbor import NeighborRegistration
from repro.runtimes.controller import Controller
from repro.runtimes.costs import CallableCost, CostModel
from repro.runtimes.registry import coerce_controller


@dataclass(frozen=True)
class RegistrationCostParams:
    """Analytic cost constants for the registration pipeline.

    ``fft_per_voxel`` multiplies ``N log2 N`` over the correlation window
    (two forward FFTs, one inverse, the prefix sums, the peak scan);
    extraction is a copy at memory bandwidth.
    """

    extract_per_voxel: float = 1.0e-9
    fft_per_voxel: float = 18e-9
    evaluate_cost: float = 2e-5
    place_per_edge: float = 1e-5


class RegistrationWorkload:
    """Distributed registration of a synthetic volume grid.

    Args:
        grid: the synthetic acquisition to register.
        slabs: number of Z slabs per volume (>= 1; the paper slabs the
            1024-deep stacks for memory reasons).
        sim_vol_shape: pretended per-volume shape for costs/wire sizes.
        cost_params: analytic cost constants.
    """

    def __init__(
        self,
        grid: SyntheticVolumeGrid,
        slabs: int = 1,
        sim_vol_shape: tuple[int, int, int] | None = None,
        cost_params: RegistrationCostParams = RegistrationCostParams(),
    ) -> None:
        self.grid = grid
        spec = grid.spec
        vz = spec.vol_shape[2]
        if not 1 <= slabs <= vz:
            raise ValueError(f"slabs must be in [1, {vz}], got {slabs}")
        self.slabs = slabs
        self.graph = NeighborRegistration(spec.gx, spec.gy, slabs)
        self.params = cost_params
        real_voxels = float(np.prod(spec.vol_shape))
        sim_voxels = (
            float(np.prod(sim_vol_shape))
            if sim_vol_shape is not None
            else real_voxels
        )
        #: voxel-count inflation of the simulated volumes.
        self.volume_scale = sim_voxels / real_voxels
        #: overlap window in voxels, per axis (covers the jitter range).
        self.window_x = spec.overlap_x + 2 * spec.max_jitter
        self.window_y = spec.overlap_y + 2 * spec.max_jitter
        self.max_shift = 3 * spec.max_jitter + 1

    # ------------------------------------------------------------------ #
    # Controller plumbing
    # ------------------------------------------------------------------ #

    def register(self, controller: Controller) -> None:
        """Register the four callbacks on an initialized controller."""
        g = self.graph
        controller.register_callback(g.EXTRACT, self.extract)
        controller.register_callback(g.CORRELATE, self.correlate)
        controller.register_callback(g.EVALUATE, self.evaluate)
        controller.register_callback(g.PLACE, self.place)

    def initial_inputs(self) -> dict[TaskId, Payload]:
        """Per-(volume, slab) payloads keyed by EXTRACT task ids."""
        out: dict[TaskId, Payload] = {}
        for cell in range(self.grid.n_volumes):
            vol = self.grid.volume(cell)
            for s in range(self.slabs):
                zlo, zhi = self._slab_range(s)
                slab = np.ascontiguousarray(vol[:, :, zlo:zhi])
                out[self.graph.extract_id(cell, s)] = self._scaled(slab)
        return out

    def run(self, controller: Controller | str, task_map=None, **kwargs):
        """Initialize, register, and run on ``controller`` (a registry
        name such as ``"mpi"`` also works, with ``n_procs=`` and
        constructor kwargs passed through)."""
        controller = coerce_controller(controller, **kwargs)
        controller.initialize(self.graph, task_map)
        self.register(controller)
        return controller.run(self.initial_inputs())

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #

    def extract(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """EXTRACT: cut the overlap window facing each incident edge."""
        info = self.graph.describe(tid)
        cell = info["cell"]
        slab = inputs[0].data
        outputs: list[Payload] = []
        for e in self.graph.incident_edges(cell):
            a, b = self.graph.edges[e]
            axis = self._edge_axis(a, b)
            w = self.window_x if axis == 0 else self.window_y
            if cell == a:  # lower cell: send the trailing window
                crop = slab[-w:, :, :] if axis == 0 else slab[:, -w:, :]
            else:  # higher cell: send the leading window
                crop = slab[:w, :, :] if axis == 0 else slab[:, :w, :]
            outputs.append(self._scaled(np.ascontiguousarray(crop)))
        return outputs

    def correlate(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """CORRELATE: cross-correlate the two windows, de-bias to jitter."""
        info = self.graph.describe(tid)
        a, b = self.graph.edges[info["edge"]]
        axis = self._edge_axis(a, b)
        crop_a, crop_b = inputs[0].data, inputs[1].data
        est = ncc_shift(crop_a, crop_b, max_shift=self.max_shift)
        spec = self.grid.spec
        # Along the edge axis the windows are offset by (window - overlap)
        # when the jitter is zero; remove that bias.
        bias = (
            self.window_x - spec.overlap_x
            if axis == 0
            else self.window_y - spec.overlap_y
        )
        shift = list(est.shift)
        shift[axis] -= bias
        return [
            Payload(
                OffsetEstimate(shift=tuple(shift), confidence=est.confidence),
                nbytes=64,
            )
        ]

    def evaluate(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """EVALUATE: per-edge consensus across the slabs."""
        est = consensus_offset([p.data for p in inputs])
        return [Payload(est, nbytes=64)]

    def place(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """PLACE: least-squares global placement anchored at volume 0."""
        edges = self.graph.edges
        n = self.grid.n_volumes
        estimates: list[OffsetEstimate] = [p.data for p in inputs]
        offsets = np.zeros((n, 3), dtype=np.float64)
        # One least-squares solve per axis: rows are edge constraints
        # o_b - o_a = shift, plus the anchor row o_0 = 0.
        rows = len(edges) + 1
        a_mat = np.zeros((rows, n))
        for r, (a, b) in enumerate(edges):
            a_mat[r, a] = -1.0
            a_mat[r, b] = 1.0
        a_mat[len(edges), 0] = 1.0
        for axis in range(3):
            rhs = np.zeros(rows)
            for r, est in enumerate(estimates):
                rhs[r] = est.shift[axis]
            sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            offsets[:, axis] = sol - sol[0]
        return [Payload(np.rint(offsets).astype(np.int64))]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def recovered_offsets(self, result) -> np.ndarray:
        """The per-volume offsets a run recovered ((n, 3) int array)."""
        return result.output(self.graph.place_id).data

    def verify(self, result) -> bool:
        """True when the run recovered the ground-truth jitter exactly."""
        return bool(
            np.array_equal(self.recovered_offsets(result), self.grid.true_offsets)
        )

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    def cost_model(self) -> CostModel:
        """Analytic per-callback cost model at the simulated scale."""
        g = self.graph
        p = self.params
        scale = self.volume_scale

        def cost(task, inputs):
            cb = task.callback
            if cb == g.EXTRACT:
                v = inputs[0].data.size * scale
                return p.extract_per_voxel * v
            if cb == g.CORRELATE:
                v = max(2.0, inputs[0].data.size * scale)
                return p.fft_per_voxel * v * np.log2(v)
            if cb == g.EVALUATE:
                return p.evaluate_cost
            return p.place_per_edge * len(g.edges)

        return CallableCost(cost)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _edge_axis(self, a: int, b: int) -> int:
        """0 when the edge runs along X, 1 along Y."""
        ax, ay = self.graph.cell_coords(a)
        bx, _ = self.graph.cell_coords(b)
        return 0 if bx == ax + 1 else 1

    def _slab_range(self, s: int) -> tuple[int, int]:
        from repro.util.partition import split_range

        return split_range(self.grid.spec.vol_shape[2], self.slabs, s)

    def _scaled(self, arr: np.ndarray) -> Payload:
        return Payload(arr, nbytes=max(16, int(arr.nbytes * self.volume_scale)))
