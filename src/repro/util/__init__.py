"""Shared utilities for the BabelFlow reproduction.

This package intentionally has no dependencies on the rest of :mod:`repro`
so every other subsystem can import it freely.
"""

from repro.util.partition import (
    block_bounds,
    block_decompose,
    even_chunks,
    factor3d,
    split_range,
)

__all__ = [
    "block_bounds",
    "block_decompose",
    "even_chunks",
    "factor3d",
    "split_range",
]
