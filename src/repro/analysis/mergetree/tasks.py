"""BabelFlow wiring of the distributed merge tree (paper Section V-A).

:class:`MergeTreeWorkload` packages everything needed to run the
topological-analysis use case on any controller:

* the :class:`~repro.graphs.merge_tree.MergeTreeGraph` dataflow,
* the five callbacks (local compute, join, relay, correction,
  segmentation) implemented with the real algorithms of this package,
* the initial inputs (the decomposed scalar field),
* an analytic :class:`~repro.runtimes.costs.CostModel` calibrated by the
  *simulated* problem size, so benchmarks can model a 1024^3 run while
  carrying a smaller field through the (real, verified) code path, and
* result assembly + verification helpers.

The *payload scaling* deserves a note: when ``sim_shape`` exceeds the
actual field shape, wire sizes are inflated accordingly — volume-like
payloads (blocks, label volumes) by the voxel ratio, surface-like
payloads (boundary components) by its 2/3 power — so the network model
sees paper-scale messages while the data stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.analysis.mergetree.blocks import BlockDecomposition
from repro.analysis.mergetree.boundary import BoundaryComponents, extract_boundary
from repro.analysis.mergetree.join import RelabelMap, compose_relabel, join_components
from repro.analysis.mergetree.sequential import inactive_labels, segment_candidates
from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.graphs.merge_tree import MergeTreeGraph
from repro.runtimes.controller import Controller
from repro.runtimes.costs import CallableCost, CostModel
from repro.runtimes.registry import coerce_controller


@dataclass(eq=False)
class LocalTreeState:
    """The per-leaf state traveling down the correction chain.

    Attributes:
        block: the leaf's block index.
        labels: dense int64 local segmentation (rep gid per voxel, -1
            below threshold).
        relabel: accumulated map from local reps to current global reps.
        active: ``False`` promises that no voxel of the block reaches the
            threshold (``labels`` is all -1, and may be an array shared
            with other such blocks — read-only); ``True`` promises
            nothing.  Carried with the state rather than told by the
            identity of ``labels``, which does not survive pickling.
    """

    block: int
    labels: np.ndarray
    relabel: RelabelMap = dc_field(default_factory=dict)
    active: bool = True

    @property
    def nbytes(self) -> int:
        """Wire-size estimate."""
        return int(self.labels.nbytes) + 24 * len(self.relabel)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalTreeState):
            return NotImplemented
        return (
            self.block == other.block
            and np.array_equal(self.labels, other.labels)
            and self.relabel == other.relabel
        )


@dataclass(frozen=True)
class MergeTreeCostParams:
    """Analytic cost constants (seconds per element) for the workload.

    Calibrated so a 1024^3 run over 128 cores lands in the paper's
    O(10 s) regime; relative behaviour, not absolute agreement, is the
    goal.
    """

    touch_per_voxel: float = 4e-9
    sweep_per_voxel: float = 60e-9  # x log2(active voxels)
    join_per_boundary_voxel: float = 150e-9
    relay_per_byte: float = 0.15e-9
    correction_per_voxel: float = 6e-9
    segmentation_per_voxel: float = 8e-9


class MergeTreeWorkload:
    """Distributed segmented merge tree over a scalar field.

    Args:
        field: the global 3D scalar field (the real data to analyze).
        n_blocks: number of leaf blocks; must be a power of ``valence``.
        threshold: feature threshold (superlevel set).
        valence: reduction factor of the join tree (paper default 8).
        sim_shape: the problem size the *cost model* should pretend the
            field has (defaults to the actual shape).
        cost_params: analytic cost constants.
    """

    def __init__(
        self,
        field: np.ndarray,
        n_blocks: int,
        threshold: float,
        valence: int = 8,
        sim_shape: tuple[int, int, int] | None = None,
        cost_params: MergeTreeCostParams = MergeTreeCostParams(),
    ) -> None:
        if field.ndim != 3:
            raise ValueError("field must be 3D")
        self.field = np.asarray(field, dtype=np.float64)
        self.threshold = float(threshold)
        self.decomp = BlockDecomposition.regular(self.field.shape, n_blocks)
        if self.decomp.n_blocks != n_blocks:
            raise ValueError(
                f"decomposition produced {self.decomp.n_blocks} blocks, "
                f"expected {n_blocks}"
            )
        self.graph = MergeTreeGraph(n_blocks, valence)
        self.params = cost_params
        real_voxels = float(np.prod(self.field.shape))
        sim_voxels = (
            float(np.prod(sim_shape)) if sim_shape is not None else real_voxels
        )
        #: voxel-count inflation of the simulated problem vs the real one.
        self.volume_scale = sim_voxels / real_voxels
        #: surface-count inflation (boundary payloads).
        self.surface_scale = self.volume_scale ** (2.0 / 3.0)

    # ------------------------------------------------------------------ #
    # Controller plumbing
    # ------------------------------------------------------------------ #

    def register(self, controller: Controller) -> None:
        """Register all five callbacks on an initialized controller."""
        g = self.graph
        controller.register_callback(g.LOCAL, self.local_compute)
        controller.register_callback(g.JOIN, self.join)
        controller.register_callback(g.RELAY, self.relay)
        controller.register_callback(g.CORRECTION, self.correction)
        controller.register_callback(g.SEGMENTATION, self.segmentation)

    def initial_inputs(self) -> dict[TaskId, Payload]:
        """Block payloads keyed by the LOCAL task ids."""
        out: dict[TaskId, Payload] = {}
        for b in range(self.decomp.n_blocks):
            block = self.decomp.extract_block(self.field, b)
            out[self.graph.local_id(b)] = self._volume_payload(block)
        return out

    def run(self, controller: Controller | str, task_map=None, **kwargs):
        """Initialize, register, and run on ``controller``.

        Args:
            controller: a fresh (uninitialized) controller, or a
                :data:`repro.runtimes.REGISTRY` name (``"mpi"``, ...)
                with ``n_procs=`` and constructor kwargs passed through.
            task_map: optional task map forwarded to ``initialize`` (the
                MPI / Legion SPMD controllers default to a ModuloMap).
        """
        controller = coerce_controller(controller, **kwargs)
        controller.initialize(self.graph, task_map)
        self.register(controller)
        return controller.run(self.initial_inputs())

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #

    def local_compute(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """LOCAL: build the leaf's tree; emit local state + boundary."""
        b = self.graph.describe(tid)["leaf"]
        block = inputs[0].data
        flat = np.asarray(block, dtype=np.float64).ravel()
        cand = (flat >= self.threshold).nonzero()[0]
        if len(cand):
            labels = segment_candidates(
                block.shape, cand, flat[cand], self.decomp.gids_of(b, cand),
                self.threshold,
            )
            state = LocalTreeState(block=b, labels=labels)
            boundary = extract_boundary(self.decomp, b, labels, block)
        else:
            # Nothing reaches the threshold: no tree, no boundary.
            state = LocalTreeState(
                block=b, labels=inactive_labels(block.shape), active=False
            )
            boundary = BoundaryComponents.empty()
        out_state = Payload(state, nbytes=int(state.nbytes * self.volume_scale))
        if self.graph.join_rounds == 0:
            return [out_state]
        return [out_state, self._surface_payload(boundary)]

    def join(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """JOIN: merge child boundaries; emit merged boundary + relabels."""
        info = self.graph.describe(tid)
        region = self.graph.subtree_leaves(info["round"], info["index"])
        parts = [p.data for p in inputs]
        merged, relabel = join_components(parts, self.decomp, region)
        return [self._surface_payload(merged), self._relabel_payload(relabel)]

    def relay(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """RELAY: forward the augmented tree unchanged."""
        return [inputs[0]]

    def correction(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """CORRECTION: fold a round's relabel map into the leaf state."""
        state: LocalTreeState = inputs[0].data
        update: RelabelMap = inputs[1].data
        if not update:
            return [inputs[0]]  # nothing merged this round
        new_state = LocalTreeState(
            block=state.block,
            labels=state.labels,
            relabel=compose_relabel(state.relabel, update),
            active=state.active,
        )
        return [
            Payload(new_state, nbytes=int(new_state.nbytes * self.volume_scale))
        ]

    def segmentation(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """SEGMENTATION: apply the final relabel map to the leaf labels."""
        state: LocalTreeState = inputs[0].data
        labels = state.labels
        if state.active and state.relabel:
            uniq, inverse = np.unique(labels, return_inverse=True)
            relabel = state.relabel
            remapped = np.array(
                [relabel[g][0] if g in relabel else g for g in uniq.tolist()],
                dtype=np.int64,
            )
            labels = remapped[inverse].reshape(labels.shape)
        return [
            Payload(
                (state.block, labels),
                nbytes=int(labels.nbytes * self.volume_scale),
            )
        ]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def assemble(self, result) -> np.ndarray:
        """Stitch the segmentation outputs into a global label volume.

        Args:
            result: the :class:`~repro.runtimes.result.RunResult` of a
                run of this workload.

        Returns:
            int64 label volume of the field's shape (-1 below threshold).
        """
        out = np.full(self.field.shape, -1, dtype=np.int64)
        for b in range(self.decomp.n_blocks):
            tid = self.graph.segmentation_id(b)
            block_index, labels = result.output(tid).data
            if block_index != b:
                raise ValueError(
                    f"segmentation output mismatch: task {tid} returned "
                    f"block {block_index}, expected {b}"
                )
            (x0, x1), (y0, y1), (z0, z1) = self.decomp.block_bounds(b)
            out[x0:x1, y0:y1, z0:z1] = labels
        return out

    def feature_count(self, result) -> int:
        """Number of global features in a run's segmentation."""
        seg = self.assemble(result)
        return len(np.unique(seg[seg >= 0]))

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    def cost_model(self) -> CostModel:
        """Analytic per-callback cost model at the simulated scale."""
        g = self.graph
        p = self.params
        vol = self.volume_scale
        surf = self.surface_scale
        threshold = self.threshold
        # A leaf's labels array never changes down the correction chain,
        # so its active-voxel count is computed once per block.
        active_cache: dict[int, float] = {}

        def local_cost(inputs):
            block = inputs[0].data
            v = block.size * vol
            active = max(1.0, float(np.count_nonzero(block >= threshold)) * vol)
            return p.touch_per_voxel * v + p.sweep_per_voxel * active * np.log2(
                active + 2.0
            )

        def join_cost(inputs):
            nb = sum(pl.data.n_voxels for pl in inputs) * surf
            return p.join_per_boundary_voxel * max(1.0, nb)

        def relay_cost(inputs):
            return p.relay_per_byte * inputs[0].nbytes

        def correction_cost(inputs):
            state = inputs[0].data
            active = active_cache.get(state.block)
            if active is None:
                active = (
                    float(np.count_nonzero(state.labels >= 0))
                    if state.active
                    else 0.0
                )
                active_cache[state.block] = active
            return p.correction_per_voxel * max(1.0, active * vol)

        def segmentation_cost(inputs):
            return p.segmentation_per_voxel * inputs[0].data.labels.size * vol

        # Callback ids are fixed by the graph: one lookup per task.
        by_callback = {
            g.LOCAL: local_cost,
            g.JOIN: join_cost,
            g.RELAY: relay_cost,
            g.CORRECTION: correction_cost,
            g.SEGMENTATION: segmentation_cost,
        }
        return CallableCost(lambda task, inputs: by_callback[task.callback](inputs))

    # ------------------------------------------------------------------ #
    # Payload helpers
    # ------------------------------------------------------------------ #

    def _volume_payload(self, data) -> Payload:
        from repro.core.payload import estimate_nbytes

        return Payload(data, nbytes=int(estimate_nbytes(data) * self.volume_scale))

    def _surface_payload(self, boundary: BoundaryComponents) -> Payload:
        return Payload(
            boundary, nbytes=max(16, int(boundary.nbytes * self.surface_scale))
        )

    def _relabel_payload(self, relabel: RelabelMap) -> Payload:
        return Payload(relabel, nbytes=max(16, int(24 * len(relabel) * self.surface_scale)))
