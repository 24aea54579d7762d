"""Tile algebra for binary-swap compositing and depth-safe block layouts.

Binary swap halves each task's image extent every stage, alternating the
split axis; after ``r`` stages task ``i`` owns the tile selected by bits
``0..r-1`` of ``i``.  Both partners derive the same rectangles from this
module, so no extents ever travel on the wire.

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

#: A tile rectangle: (y0, y1, x0, x1), half-open.
Region = tuple[int, int, int, int]


def full_region(shape: tuple[int, int]) -> Region:
    """The whole image as a region."""
    h, w = shape
    return (0, h, 0, w)


def split_region(region: Region, stage: int) -> tuple[Region, Region]:
    """Split a region in half for a given swap stage.

    Even stages split rows, odd stages split columns, so repeated halving
    keeps tiles close to square.  With odd extents the first half gets
    the extra row/column.
    """
    y0, y1, x0, x1 = region
    if stage % 2 == 0:
        ym = y0 + (y1 - y0 + 1) // 2
        return (y0, ym, x0, x1), (ym, y1, x0, x1)
    xm = x0 + (x1 - x0 + 1) // 2
    return (y0, y1, x0, xm), (y0, y1, xm, x1)


def swap_region(shape: tuple[int, int], stage: int, index: int) -> Region:
    """The tile task ``(stage, index)`` owns *entering* the stage.

    Stage 0 owns the full image; afterwards bit ``s`` of ``index``
    selects the half kept at stage ``s``.
    """
    region = full_region(shape)
    for s in range(stage):
        first, second = split_region(region, s)
        region = second if (index >> s) & 1 else first
    return region


def _relative(region: Region, parts) -> tuple[Region, ...]:
    y0, _, x0, _ = region
    return tuple((r[0] - y0, r[1] - y0, r[2] - x0, r[3] - x0) for r in parts)


@lru_cache(maxsize=8192)
def swap_cuts(shape: tuple[int, int], stage: int, low_bits: int) -> tuple[Region, ...]:
    """The two halves a stage-``stage`` task cuts its tile into, relative
    to the tile's own origin.  Only the low ``stage`` bits of the task
    index select the tile, so callers pass ``index & (2**stage - 1)`` and
    a whole run shares ``2**stage`` entries per stage."""
    region = swap_region(shape, stage, low_bits)
    return _relative(region, split_region(region, stage))


@lru_cache(maxsize=8192)
def radix_cuts(
    shape: tuple[int, int], k: int, stage: int, low_digits: int
) -> tuple[Region, ...]:
    """Radix-k twin of :func:`swap_cuts`: the ``k`` strips, relative to
    the tile selected by ``index % k**stage``."""
    region = radix_region(shape, k, stage, low_digits)
    return _relative(region, split_region_k(region, k, stage))


def region_shape(region: Region) -> tuple[int, int]:
    """(height, width) of a region."""
    y0, y1, x0, x1 = region
    return (y1 - y0, x1 - x0)


def split_region_k(region: Region, k: int, stage: int) -> list[Region]:
    """Split a region into ``k`` near-equal strips for a radix-k stage.

    Even stages split rows, odd stages split columns (as
    :func:`split_region`, which equals the ``k == 2`` case).  Strip sizes
    differ by at most one, earlier strips larger.
    """
    if k < 2:
        raise GraphError(f"radix must be at least 2, got {k}")
    y0, y1, x0, x1 = region
    out: list[Region] = []
    if stage % 2 == 0:
        n = y1 - y0
        for lo, hi in _chunks(n, k):
            out.append((y0 + lo, y0 + hi, x0, x1))
    else:
        n = x1 - x0
        for lo, hi in _chunks(n, k):
            out.append((y0, y1, x0 + lo, x0 + hi))
    return out


def _chunks(total: int, parts: int):
    from repro.util.partition import even_chunks

    return even_chunks(total, parts)


def radix_region(
    shape: tuple[int, int], k: int, stage: int, index: int
) -> Region:
    """The tile task ``(stage, index)`` of a radix-k dataflow owns
    *entering* the stage: digit ``s`` of ``index`` (base ``k``) selects
    the strip kept at round ``s``."""
    region = full_region(shape)
    for s in range(stage):
        digit = (index // k**s) % k
        region = split_region_k(region, k, s)[digit]
    return region


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
