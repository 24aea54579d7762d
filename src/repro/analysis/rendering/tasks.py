"""BabelFlow wiring of the rendering + compositing pipeline (Section V-B).

:class:`RenderingWorkload` runs the paper's two-stage visualization
pipeline on any controller:

* the **rendering stage** is embarrassingly parallel: every leaf
  ray-marches its block into a dense full-resolution fragment (the paper
  uses VTK's SmartVolumeMapper; here it is the from-scratch raycaster of
  :mod:`~repro.analysis.rendering.volume`);
* the **compositing stage** is a k-way :class:`~repro.graphs.reduction.
  Reduction` producing one final image at the root, or a :class:`~repro.
  graphs.radixk.RadixK` leaving one tile on each of the ``n`` final
  tasks.  Binary swap (Figs. 10d/e/f) is ``RadixK(n, 2)``, so
  ``mode="binswap"`` means exactly ``mode="radixk", valence=2``; other
  radices go beyond the paper.

Blocks are laid out with :func:`~repro.analysis.rendering.tiles.
power_layout` so every dataflow composites depth-consistently (see that
module); the camera must look along the z grid axis for the distributed
modes.

As with the merge-tree workload, a ``sim_shape``/``sim_image_shape`` pair
inflates wire sizes and analytic costs to paper scale while the real data
stays small enough to verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.mergetree.blocks import BlockDecomposition
from repro.analysis.rendering.image import ImageFragment, composite_ordered, over
from repro.analysis.rendering.tiles import power_layout, radix_cuts, radix_region
from repro.analysis.rendering.transfer import TransferFunction, fire
from repro.analysis.rendering.volume import OrthoCamera, render_block, render_volume
from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.graphs.radixk import RadixK
from repro.graphs.reduction import Reduction
from repro.runtimes.controller import Controller
from repro.runtimes.costs import CallableCost, CostModel
from repro.runtimes.registry import coerce_controller


@dataclass(frozen=True)
class RenderingCostParams:
    """Analytic cost constants for the rendering pipeline.

    ``render_per_sample`` is calibrated so a 1024^3 -> 2048^2 render over
    128 cores lands in the paper's ~100 s regime (Fig. 10a).
    """

    render_per_sample: float = 2.8e-6
    composite_per_pixel: float = 1.2e-9
    write_per_pixel: float = 0.5e-9


class RenderingWorkload:
    """Distributed rendering + compositing over a scalar field.

    Args:
        field: global 3D scalar field.
        n_blocks: number of render leaves (power of the compositing
            fan-in).
        image_shape: real output image (H, W).
        mode: ``"reduction"``, ``"binswap"`` or ``"radixk"``.
        valence: reduction fan-in / radix (ignored for binswap, which is
            radix-k at ``k = 2``).
        tf: transfer function (default: fire map over the field range).
        sim_shape: pretended volume shape for costs/wire sizes.
        sim_image_shape: pretended image shape for costs/wire sizes.
        cost_params: analytic cost constants.
    """

    def __init__(
        self,
        field: np.ndarray,
        n_blocks: int,
        image_shape: tuple[int, int] = (64, 64),
        mode: str = "reduction",
        valence: int = 2,
        tf: TransferFunction | None = None,
        sim_shape: tuple[int, int, int] | None = None,
        sim_image_shape: tuple[int, int] | None = None,
        cost_params: RenderingCostParams = RenderingCostParams(),
    ) -> None:
        if field.ndim != 3:
            raise ValueError("field must be 3D")
        if mode not in ("reduction", "binswap", "radixk"):
            raise ValueError(
                f"mode must be 'reduction', 'binswap' or 'radixk', got {mode!r}"
            )
        self.field = np.asarray(field, dtype=np.float64)
        self.mode = mode
        self.camera = OrthoCamera(image_shape, axis="z")
        if tf is None:
            tf = fire(float(self.field.min()), float(self.field.max()) + 1e-12)
        self.tf = tf
        self.params = cost_params
        fanin = 2 if mode == "binswap" else valence
        layout = power_layout(n_blocks, fanin, self.field.shape, depth_axis=2)
        self.decomp = BlockDecomposition(self.field.shape, layout)
        self.graph: Reduction | RadixK
        if mode == "reduction":
            self.graph = Reduction(n_blocks, valence)
        else:
            self.graph = RadixK(n_blocks, fanin)
        self.n_blocks = n_blocks

        real_pixels = float(image_shape[0] * image_shape[1])
        sim_pixels = (
            float(sim_image_shape[0] * sim_image_shape[1])
            if sim_image_shape is not None
            else real_pixels
        )
        #: pixel-count inflation of the simulated image vs the real one.
        self.image_scale = sim_pixels / real_pixels
        self.sim_pixels = sim_pixels
        real_depth = float(self.field.shape[2])
        self.sim_depth = (
            float(sim_shape[2]) if sim_shape is not None else real_depth
        )

    # ------------------------------------------------------------------ #
    # Controller plumbing
    # ------------------------------------------------------------------ #

    def register(self, controller: Controller) -> None:
        """Register the callbacks for the configured mode."""
        g = self.graph
        if self.mode == "reduction":
            controller.register_callback(g.LEAF, self.render_leaf)
            controller.register_callback(g.REDUCE, self.composite_reduce)
            controller.register_callback(g.ROOT, self.composite_root)
        else:
            controller.register_callback(g.LEAF, self.radix_leaf)
            controller.register_callback(g.COMPOSITE, self.radix_composite)
            controller.register_callback(g.ROOT, self.radix_root)

    def initial_inputs(self) -> dict[TaskId, Payload]:
        """Block payloads keyed by leaf task id (leaf i renders block i)."""
        out: dict[TaskId, Payload] = {}
        leaf_ids = self.graph.leaf_ids()
        for b in range(self.n_blocks):
            block = self.decomp.extract_block(self.field, b)
            out[leaf_ids[b]] = Payload(block)
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
    # Rendering
    # ------------------------------------------------------------------ #

    def _render(self, block: np.ndarray, block_index: int) -> ImageFragment:
        bounds = self.decomp.block_bounds(block_index)
        return render_block(
            block, bounds, self.field.shape, self.camera, self.tf
        )

    def _fragment_payload(self, frag: ImageFragment) -> Payload:
        return Payload(frag, nbytes=max(16, int(frag.nbytes * self.image_scale)))

    # ------------------------------------------------------------------ #
    # Reduction-mode callbacks
    # ------------------------------------------------------------------ #

    def render_leaf(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """LEAF: render the local block into a dense fragment."""
        assert isinstance(self.graph, Reduction)
        b = self.graph.leaf_index(tid)
        return [self._fragment_payload(self._render(inputs[0].data, b))]

    def composite_reduce(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """REDUCE: composite the children's fragments."""
        frag = composite_ordered([p.data for p in inputs])
        return [self._fragment_payload(frag)]

    def composite_root(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """ROOT: final composite; also handles the degenerate 1-leaf
        graph where the root receives the raw block."""
        if len(inputs) == 1 and isinstance(inputs[0].data, np.ndarray):
            frag = self._render(inputs[0].data, 0)
        else:
            frag = composite_ordered([p.data for p in inputs])
        return [self._fragment_payload(frag)]

    # ------------------------------------------------------------------ #
    # Radix-k callbacks (binary swap at k = 2)
    # ------------------------------------------------------------------ #

    def _radix_strips(
        self, frag: ImageFragment, stage: int, index: int
    ) -> list[Payload]:
        """Split a stage-``stage`` fragment into the k strip payloads,
        in group-digit order (matching the graph's channel order)."""
        assert isinstance(self.graph, RadixK)
        k = self.graph.radix
        cuts = radix_cuts(self.camera.image_shape, k, stage, index % k**stage)
        return [self._fragment_payload(frag.crop(*r)) for r in cuts]

    def radix_leaf(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """Stage 0: render, then direct-send the k strips."""
        assert isinstance(self.graph, RadixK)
        i = self.graph.index(tid)
        frag = self._render(inputs[0].data, i)
        return self._radix_strips(frag, 0, i)

    def radix_composite(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """Stages 1..m-1: composite the k received strips, split again."""
        assert isinstance(self.graph, RadixK)
        s, i = divmod(tid, self.graph.n)  # ids are ``stage * n + index``
        frag = inputs[0].data
        for p in inputs[1:]:
            frag = over(frag, p.data)
        return self._radix_strips(frag, s, i)

    def radix_root(self, inputs: list[Payload], tid: TaskId) -> list[Payload]:
        """Final stage: composite into the owned tile (or render the
        single block of the degenerate one-task graph)."""
        assert isinstance(self.graph, RadixK)
        i = self.graph.index(tid)
        tile = inputs[0].data
        if isinstance(tile, np.ndarray):
            tile = self._render(tile, i)
        for p in inputs[1:]:
            tile = over(tile, p.data)
        return [Payload((i, tile), nbytes=max(16, int(tile.nbytes * self.image_scale)))]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def assemble(self, result) -> ImageFragment:
        """Final full image from a run (any mode)."""
        g = self.graph
        if isinstance(g, Reduction):
            return result.output(g.root_id).data
        shape = self.camera.image_shape
        out = ImageFragment.blank(shape)
        for tid in g.root_ids():
            i, tile = result.output(tid).data
            y0, y1, x0, x1 = radix_region(shape, g.radix, g.stages, i)
            out.rgba[y0:y1, x0:x1] = tile.rgba
            out.depth[y0:y1, x0:x1] = tile.depth
        return out

    def reference_image(self) -> ImageFragment:
        """Single-pass full-volume render (ground truth for tests)."""
        return render_volume(self.field, self.camera, self.tf)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    def render_cost(self, block_index: int) -> float:
        """Analytic render cost of one block at the simulated scale.

        Rays = the block's share of the (simulated) image footprint;
        samples per ray = the block's depth extent at the simulated
        volume depth.
        """
        bounds = self.decomp.block_bounds(block_index)
        (x0, x1), (y0, y1), (z0, z1) = bounds
        nx, ny, _ = self.field.shape
        real_pixels = float(
            self.camera.image_shape[0] * self.camera.image_shape[1]
        )
        footprint_frac = ((x1 - x0) * (y1 - y0)) / float(nx * ny)
        rays = footprint_frac * real_pixels * self.image_scale
        depth_scale = self.sim_depth / float(self.field.shape[2])
        samples = (z1 - z0) * depth_scale
        return self.params.render_per_sample * rays * samples

    def cost_model(self) -> CostModel:
        """Analytic per-callback cost model at the simulated scale."""
        g = self.graph
        p = self.params
        real_pixels = float(
            self.camera.image_shape[0] * self.camera.image_shape[1]
        )
        px_scale = self.image_scale

        def render_cost(block: np.ndarray, block_index: int) -> float:
            return self.render_cost(block_index)

        def fragment_pixels(payload: Payload) -> float:
            data = payload.data
            shape = (data[1] if isinstance(data, tuple) else data).shape
            return shape[0] * shape[1] * px_scale

        def reduction_cost(task, inputs):
            cb = task.callback
            if cb == g.LEAF:
                return render_cost(inputs[0].data, g.leaf_index(task.id))
            pixels = sum(fragment_pixels(pl) for pl in inputs)
            extra = (
                p.write_per_pixel * real_pixels * px_scale
                if cb == g.ROOT
                else 0.0
            )
            if cb == g.ROOT and isinstance(inputs[0].data, np.ndarray):
                return render_cost(inputs[0].data, 0) + extra
            return p.composite_per_pixel * pixels + extra

        def swap_cost(task, inputs):
            cb = task.callback
            if cb == g.LEAF:
                return render_cost(inputs[0].data, g.index(task.id))
            if cb == g.ROOT and isinstance(inputs[0].data, np.ndarray):
                return render_cost(inputs[0].data, g.index(task.id))
            pixels = sum(fragment_pixels(pl) for pl in inputs)
            extra = (
                p.write_per_pixel * pixels if cb == g.ROOT else 0.0
            )
            return p.composite_per_pixel * pixels + extra

        # The mode is fixed at construction: pick its cost function once.
        return CallableCost(
            reduction_cost if self.mode == "reduction" else swap_cost
        )
