"""Distributed rendering and image compositing (Section V-B).

The second of the paper's three use cases: an embarrassingly parallel
volume-rendering stage followed by image compositing, with both standard
compositing dataflows — a k-way reduction to a single image and binary
swap to per-task tiles, the latter as radix-k at ``k = 2`` — plus an
IceT-model baseline for comparison.
"""

from repro.analysis.rendering.icet import icet_composite_time
from repro.analysis.rendering.image import (
    ImageFragment,
    composite_ordered,
    over,
    to_rgb8,
    write_ppm,
)
from repro.analysis.rendering.tasks import RenderingCostParams, RenderingWorkload
from repro.analysis.rendering.tiles import (
    full_region,
    power_layout,
    radix_region,
    region_shape,
    split_region_k,
)
from repro.analysis.rendering.transfer import TransferFunction, fire, grayscale
from repro.analysis.rendering.volume import OrthoCamera, render_block, render_volume

__all__ = [
    "ImageFragment",
    "OrthoCamera",
    "RenderingCostParams",
    "RenderingWorkload",
    "TransferFunction",
    "composite_ordered",
    "fire",
    "full_region",
    "grayscale",
    "icet_composite_time",
    "over",
    "power_layout",
    "radix_region",
    "region_shape",
    "render_block",
    "render_volume",
    "split_region_k",
    "to_rgb8",
    "write_ppm",
]
