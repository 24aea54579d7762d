"""Radix-k compositing dataflow (Peterka et al.; IceT's strategy).

Binary swap (Ma et al. 1994; paper Section V-B) generalized to fan-in
``k``: with ``n = k**m`` tasks, round ``s`` groups tasks whose indices
differ only in base-``k`` digit ``s``.  Every group member keeps ``1/k``
of its current image extent (the strip selected by its own digit) and
direct-sends the other ``k - 1`` strips to the group members owning them,
so all ``n`` tasks stay busy while the image fraction per task shrinks.
After ``m`` rounds each task holds one ``1/n`` tile.  ``k = 2`` *is*
binary swap (the rendering workload's ``mode="binswap"``); ``k = n`` is
single-round direct-send — radix-k spans the trade-off between message
count and round count, which the ablation benchmark sweeps.

Layout: stage ``s`` task ``i`` has id ``s*n + i``; stages ``0..m``.
Channel ``t`` of a stage-``s`` task carries the strip for group-digit
``t`` and goes to the member with that digit; input slot ``t`` of a
stage-``s+1`` task comes from the member with digit ``t`` (so slot order
equals strip-donor digit order, which the callbacks rely on).

Callback ids:

======================== ====
:data:`RadixK.LEAF`        0
:data:`RadixK.COMPOSITE`   1
:data:`RadixK.ROOT`        2
======================== ====
"""

from __future__ import annotations

from repro.core.errors import GraphError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TNULL, CallbackId, TaskId
from repro.core.task import Task
from repro.graphs.reduction import exact_log


class RadixK(TaskGraph):
    """Radix-k dataflow over ``n = k**m`` inputs.

    The degenerate ``n == 1`` graph is a single ROOT task passing its
    external input through to the caller.
    """

    LEAF: CallbackId = 0
    COMPOSITE: CallbackId = 1
    ROOT: CallbackId = 2

    def __init__(self, n: int, k: int) -> None:
        if k < 2:
            raise GraphError(f"radix must be at least 2, got {k}")
        self._m = exact_log(n, k)
        self._n = n
        self._k = k

    @property
    def n(self) -> int:
        """Tasks per stage (= number of inputs)."""
        return self._n

    @property
    def radix(self) -> int:
        """The per-round fan-in ``k``."""
        return self._k

    @property
    def stages(self) -> int:
        """Number of swap rounds ``m = log_k n``."""
        return self._m

    # ------------------------------------------------------------------ #
    # Id algebra
    # ------------------------------------------------------------------ #

    def stage(self, tid: TaskId) -> int:
        """Stage (0-based) of task ``tid``."""
        self._check(tid)
        return tid // self._n

    def index(self, tid: TaskId) -> int:
        """Within-stage index of task ``tid``."""
        self._check(tid)
        return tid % self._n

    def task_id(self, stage: int, index: int) -> TaskId:
        """Task id of ``(stage, index)``."""
        if not 0 <= stage <= self._m:
            raise GraphError(f"stage {stage} out of range")
        if not 0 <= index < self._n:
            raise GraphError(f"index {index} out of range")
        return stage * self._n + index

    def digit(self, index: int, stage: int) -> int:
        """Base-``k`` digit ``stage`` of ``index``."""
        return (index // self._k**stage) % self._k

    def group(self, stage: int, index: int) -> list[int]:
        """The round-``stage`` group of ``index``: the ``k`` indices that
        differ from it only in digit ``stage``, by ascending digit."""
        if not 0 <= stage < self._m:
            raise GraphError(f"stage {stage} has no exchange")
        d = self.digit(index, stage)
        stride = self._k**stage
        return [index + (t - d) * stride for t in range(self._k)]

    def leaf_ids(self) -> list[TaskId]:
        """Stage-0 task ids in input order."""
        return list(range(self._n))

    def root_ids(self) -> list[TaskId]:
        """Final-stage task ids; root ``i`` owns tile ``i``."""
        return [self.task_id(self._m, i) for i in range(self._n)]

    # ------------------------------------------------------------------ #
    # TaskGraph interface
    # ------------------------------------------------------------------ #

    def size(self) -> int:
        return self._n * (self._m + 1)

    def callbacks(self) -> list[CallbackId]:
        return [self.LEAF, self.COMPOSITE, self.ROOT]

    def task(self, tid: TaskId) -> Task:
        self._check(tid)
        n, k = self._n, self._k
        s, i = divmod(tid, n)
        # A round-``r`` group is ``k`` indices ``stride = k**r`` apart:
        # the member with digit 0 sits ``digit * stride`` below ``i``.
        if s == 0:
            incoming = [EXTERNAL]
        else:
            stride = k ** (s - 1)
            first = (s - 1) * n + i - (i // stride) % k * stride
            incoming = list(range(first, first + k * stride, stride))
        if s == self._m:
            cb = self.ROOT
            outgoing: list[list[TaskId]] = [[TNULL]]
        else:
            cb = self.LEAF if s == 0 else self.COMPOSITE
            stride = k**s
            first = (s + 1) * n + i - (i // stride) % k * stride
            outgoing = [[t] for t in range(first, first + k * stride, stride)]
        return Task(id=tid, callback=cb, incoming=incoming, outgoing=outgoing)

    def _check(self, tid: TaskId) -> None:
        if not 0 <= tid < self.size():
            raise GraphError(f"task id {tid} out of range [0, {self.size()})")
