"""Union-find (disjoint sets) used by the merge-tree algorithms.

Two flavours:

* :class:`UnionFind` — dict-keyed, for sparse node sets (boundary
  components keyed by global vertex id).
* :class:`ArrayUnionFind` — dense integer universe backed by a flat
  list, for the per-block voxel sweeps.

Both use path compression; unions are by explicit "attach a to b" because
the merge-tree sweep dictates which root survives (the most recently
processed vertex).
"""

from __future__ import annotations


class UnionFind:
    """Disjoint sets over hashable keys."""

    def __init__(self) -> None:
        self._parent: dict = {}

    def add(self, key) -> None:
        """Register ``key`` as a singleton (no-op if present)."""
        self._parent.setdefault(key, key)

    def __contains__(self, key) -> bool:
        return key in self._parent

    def find(self, key):
        """Root of ``key``'s set (with path compression).

        Raises:
            KeyError: for unregistered keys.
        """
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a, b):
        """Merge the sets of ``a`` and ``b``; ``b``'s root survives.

        Returns the surviving root.
        """
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
        return rb

    def groups(self) -> dict:
        """Map of root -> sorted member list (test/debug helper)."""
        out: dict = {}
        for key in self._parent:
            out.setdefault(self.find(key), []).append(key)
        for members in out.values():
            members.sort()
        return out

    def __len__(self) -> int:
        return len(self._parent)


class ArrayUnionFind:
    """Disjoint sets over the dense universe ``0 .. n-1``.

    ``find`` uses iterative two-pass path compression over a preallocated
    parent list: the voxel sweep reads and writes one element at a time
    (which defeats vectorization), and a list does that several times
    faster than an array.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"universe size must be non-negative, got {n}")
        self._parent = list(range(n))

    def find(self, i: int) -> int:
        """Root of element ``i``."""
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge; the root of ``b`` survives.  Returns it."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
        return rb

    def __len__(self) -> int:
        return len(self._parent)
