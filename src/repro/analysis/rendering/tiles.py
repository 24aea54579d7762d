"""Tile algebra for radix-k compositing and depth-safe block layouts.

Radix-k cuts each task's image extent into ``k`` strips every round,
alternating the split axis; after ``m`` rounds task ``i`` owns the tile
selected by base-``k`` digits ``0..m-1`` of ``i``.  At ``k = 2`` this is
binary swap's halving, with digit ``s`` being bit ``s``.  Every group
member derives the same rectangles from this module, so no extents ever
travel on the wire.

:func:`power_layout` builds block layouts whose z-extent (the view/depth
axis) is a power of the compositing fan-in, which guarantees every
compositing subtree covers either a depth-contiguous run of blocks within
one image footprint or a union of complete depth columns with disjoint
footprints — the precondition for per-pixel *over* compositing to be
exact in any reduction order the tree implies.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.errors import GraphError
from repro.util.partition import even_chunks, split_range

#: A tile rectangle: (y0, y1, x0, x1), half-open.
Region = tuple[int, int, int, int]


def full_region(shape: tuple[int, int]) -> Region:
    """The whole image as a region."""
    h, w = shape
    return (0, h, 0, w)


def _relative(region: Region, parts) -> tuple[Region, ...]:
    y0, _, x0, _ = region
    return tuple((r[0] - y0, r[1] - y0, r[2] - x0, r[3] - x0) for r in parts)


@lru_cache(maxsize=8192)
def radix_cuts(
    shape: tuple[int, int], k: int, stage: int, low_digits: int
) -> tuple[Region, ...]:
    """The ``k`` strips a stage-``stage`` task cuts its tile into,
    relative to the tile's own origin.  Only the low ``stage`` digits of
    the task index select the tile, so callers pass ``index % k**stage``
    and a whole run shares ``k**stage`` entries per stage."""
    region = radix_region(shape, k, stage, low_digits)
    return _relative(region, split_region_k(region, k, stage))


def region_shape(region: Region) -> tuple[int, int]:
    """(height, width) of a region."""
    y0, y1, x0, x1 = region
    return (y1 - y0, x1 - x0)


def split_region_k(region: Region, k: int, stage: int) -> list[Region]:
    """Split a region into ``k`` near-equal strips for a radix-k stage.

    Even stages split rows, odd stages split columns, so repeated
    splitting keeps tiles close to square.  Strip sizes differ by at most
    one, earlier strips larger.
    """
    if k < 2:
        raise GraphError(f"radix must be at least 2, got {k}")
    y0, y1, x0, x1 = region
    if stage % 2 == 0:
        return [(y0 + lo, y0 + hi, x0, x1) for lo, hi in even_chunks(y1 - y0, k)]
    return [(y0, y1, x0 + lo, x0 + hi) for lo, hi in even_chunks(x1 - x0, k)]


def radix_region(
    shape: tuple[int, int], k: int, stage: int, index: int
) -> Region:
    """The tile task ``(stage, index)`` of a radix-k dataflow owns
    *entering* the stage: digit ``s`` of ``index`` (base ``k``) selects
    the strip kept at round ``s`` — strip ``digit`` of
    :func:`split_region_k`, cut here without building the other strips."""
    if k < 2:
        raise GraphError(f"radix must be at least 2, got {k}")
    y0, y1, x0, x1 = full_region(shape)
    for s in range(stage):
        digit = (index // k**s) % k
        if s % 2 == 0:
            lo, hi = split_range(y1 - y0, k, digit)
            y0, y1 = y0 + lo, y0 + hi
        else:
            lo, hi = split_range(x1 - x0, k, digit)
            x0, x1 = x0 + lo, x0 + hi
    return (y0, y1, x0, x1)


def power_layout(
    n: int, k: int, shape: tuple[int, int, int], depth_axis: int = 2
) -> tuple[int, int, int]:
    """Factor ``n = k**d`` blocks into a depth-safe ``(bx, by, bz)`` layout.

    Exponents are assigned to the depth axis first (as far as the grid
    extent allows), then to the remaining axes round-robin, so that the
    depth extent is ``k**m`` for the largest feasible ``m`` — see the
    module docstring for why.

    Raises:
        GraphError: if ``n`` is not a power of ``k`` or the grid is too
            small to host the layout.
    """
    from repro.graphs.reduction import exact_log

    d = exact_log(n, k) if n > 1 else 0
    exps = [0, 0, 0]
    axes_order = [depth_axis] + [a for a in range(3) if a != depth_axis]
    remaining = d
    # Fill the depth axis as much as its extent allows.
    while remaining > 0 and k ** (exps[depth_axis] + 1) <= shape[depth_axis]:
        exps[depth_axis] += 1
        remaining -= 1
    # Distribute the rest round-robin over the other axes.
    others = axes_order[1:]
    i = 0
    guard = 0
    while remaining > 0:
        a = others[i % 2]
        if k ** (exps[a] + 1) <= shape[a]:
            exps[a] += 1
            remaining -= 1
            guard = 0
        else:
            guard += 1
            if guard >= 2:
                raise GraphError(
                    f"grid {shape} too small for {n} blocks with valence {k}"
                )
        i += 1
    return (k ** exps[0], k ** exps[1], k ** exps[2])
