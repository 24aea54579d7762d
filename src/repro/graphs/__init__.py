"""Stock task graphs.

The paper provides "prototypical implementations of common task graphs"
— reductions, broadcasts, binary swaps, neighbor and k-way merge
dataflows — for users to use or extend.  This package is that catalogue
(binary swap is :class:`RadixK` with ``k = 2``), plus the full merge-tree
dataflow of Fig. 5 and a flat data-parallel graph used by the
launcher-overhead study.
"""

from repro.graphs.broadcast import Broadcast
from repro.graphs.flat import DataParallel
from repro.graphs.halo import HaloExchange2D
from repro.graphs.merge_tree import MergeTreeGraph
from repro.graphs.neighbor import NeighborRegistration
from repro.graphs.radixk import RadixK
from repro.graphs.reduction import KWayMerge, Reduction, exact_log

__all__ = [
    "Broadcast",
    "DataParallel",
    "HaloExchange2D",
    "KWayMerge",
    "MergeTreeGraph",
    "NeighborRegistration",
    "RadixK",
    "Reduction",
    "exact_log",
]
