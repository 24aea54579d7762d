"""Image fragments and compositing algebra.

An :class:`ImageFragment` is a dense RGBA image (premultiplied alpha)
with a per-pixel depth map.  The *over* operator composites two fragments
pixel-by-pixel, nearer fragment in front; it is exact whenever, along
each ray, the two fragments' contributions do not interleave in depth —
which the rendering workload guarantees by grouping blocks into
depth-contiguous subtrees (see :mod:`repro.analysis.rendering.tasks`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class ImageFragment:
    """A dense RGBA+depth image.

    Attributes:
        rgba: float32 array (H, W, 4), *premultiplied* alpha.
        depth: float32 array (H, W); +inf where the fragment is empty.
    """

    rgba: np.ndarray
    depth: np.ndarray

    def __post_init__(self) -> None:
        if self.rgba.ndim != 3 or self.rgba.shape[2] != 4:
            raise ValueError(f"rgba must be (H, W, 4), got {self.rgba.shape}")
        if self.depth.shape != self.rgba.shape[:2]:
            raise ValueError(
                f"depth {self.depth.shape} does not match rgba "
                f"{self.rgba.shape[:2]}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Image (H, W)."""
        return self.rgba.shape[:2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImageFragment):
            return NotImplemented
        return np.array_equal(self.rgba, other.rgba) and np.array_equal(
            self.depth, other.depth, equal_nan=True
        )

    @property
    def nbytes(self) -> int:
        """Wire-size estimate."""
        return int(self.rgba.nbytes + self.depth.nbytes)

    @classmethod
    def _trusted(cls, rgba: np.ndarray, depth: np.ndarray) -> "ImageFragment":
        """Fragment from arrays this package built itself: their shapes
        agree by construction, so ``__post_init__`` is not re-run."""
        frag = object.__new__(cls)
        frag.rgba = rgba
        frag.depth = depth
        return frag

    @classmethod
    def blank(cls, shape: tuple[int, int]) -> "ImageFragment":
        """Fully transparent fragment."""
        h, w = shape
        return cls._trusted(
            np.zeros((h, w, 4), dtype=np.float32),
            np.full((h, w), np.inf, dtype=np.float32),
        )

    def crop(self, y0: int, y1: int, x0: int, x1: int) -> "ImageFragment":
        """Owning copy of the sub-rectangle ``[y0:y1, x0:x1]``: neither
        array is a view, so a crop never aliases or pins its source."""
        return self._trusted(
            self.rgba[y0:y1, x0:x1].copy(), self.depth[y0:y1, x0:x1].copy()
        )

    def copy(self) -> "ImageFragment":
        """Deep copy."""
        return self._trusted(self.rgba.copy(), self.depth.copy())


def over(a: ImageFragment, b: ImageFragment) -> ImageFragment:
    """Composite two fragments, per-pixel nearer one in front.

    With premultiplied alpha the over operator is
    ``out = front + (1 - front_alpha) * back``; the result's depth is the
    per-pixel minimum (the nearer surface).  The result is float32 for
    any input dtype, owns its arrays, and the inputs are left untouched.
    """
    if a.depth.shape != b.depth.shape:
        raise ValueError(f"fragment shapes differ: {a.shape} vs {b.shape}")
    a_front = (a.depth <= b.depth)[..., None]
    front = np.where(a_front, a.rgba, b.rgba)
    trans = 1.0 - front[..., 3:4]
    # ``np.where`` returns a fresh buffer (already ``trans``'s dtype for
    # float fragments), so the blend runs in place on it.
    out = np.where(a_front, b.rgba, a.rgba).astype(trans.dtype, copy=False)
    out *= trans
    out += front
    depth = np.minimum(a.depth, b.depth)
    return ImageFragment._trusted(
        out.astype(np.float32, copy=False), depth.astype(np.float32, copy=False)
    )


def composite_ordered(fragments: list[ImageFragment]) -> ImageFragment:
    """Left fold of :func:`over` (reference implementation for tests)."""
    if not fragments:
        raise ValueError("nothing to composite")
    acc = fragments[0]
    for frag in fragments[1:]:
        acc = over(acc, frag)
    return acc


def to_rgb8(
    fragment: ImageFragment, background: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> np.ndarray:
    """Flatten onto an opaque background; returns uint8 (H, W, 3)."""
    rgba = fragment.rgba
    bg = np.asarray(background, dtype=np.float32)
    rgb = rgba[..., :3] + (1.0 - rgba[..., 3:4]) * bg
    return (np.clip(rgb, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_ppm(path: str, rgb8: np.ndarray) -> None:
    """Write an uint8 (H, W, 3) image as binary PPM (no deps needed)."""
    if rgb8.ndim != 3 or rgb8.shape[2] != 3 or rgb8.dtype != np.uint8:
        raise ValueError("write_ppm expects uint8 (H, W, 3)")
    h, w = rgb8.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb8.tobytes())
