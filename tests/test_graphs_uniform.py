"""Uniform structural properties over the whole graph catalogue.

One parametrized safety net: every stock graph, across a zoo of
parameters, must validate, decompose into rounds that partition its
tasks, expose coherent sources/sinks, export to Dot and networkx, and
split cleanly into local subgraphs under any task map.
"""

import networkx
import pytest

from repro.core.ids import TNULL, is_real_task
from repro.core.taskmap import BlockMap, ModuloMap, validate_taskmap
from repro.graphs import (
    Broadcast,
    DataParallel,
    HaloExchange2D,
    KWayMerge,
    MergeTreeGraph,
    NeighborRegistration,
    RadixK,
    Reduction,
)

ZOO = [
    Reduction(16, 4),
    Reduction(8, 2),
    Reduction(1, 2),
    KWayMerge(27, 3),
    Broadcast(16, 4),
    Broadcast(1, 3),
    RadixK(8, 2),
    RadixK(1, 2),
    RadixK(27, 3),
    RadixK(8, 8),
    DataParallel(7),
    HaloExchange2D(3, 3, 4),
    HaloExchange2D(2, 2, 1, diagonal=True),
    MergeTreeGraph(16, 2),
    MergeTreeGraph(64, 8),
    MergeTreeGraph(1, 2),
    NeighborRegistration(3, 3, 2),
    NeighborRegistration(2, 1, 1),
]
IDS = [f"{type(g).__name__}-{g.size()}" for g in ZOO]


@pytest.mark.parametrize("graph", ZOO, ids=IDS)
class TestEveryGraph:
    def test_validates(self, graph):
        graph.validate()

    def test_rounds_partition_tasks(self, graph):
        rounds = graph.rounds()
        flat = sorted(t for r in rounds for t in r)
        assert flat == sorted(graph.task_ids())
        for tids in rounds:
            members = set(tids)
            for tid in tids:
                assert not (set(graph.task(tid).producers()) & members)

    def test_sources_and_sinks_exist(self, graph):
        assert graph.source_ids(), "every graph needs external inputs"
        assert graph.sink_ids(), "every graph must return something"

    def test_ids_contiguous(self, graph):
        # All stock graphs use contiguous id spaces (a requirement for
        # ComposedGraph components).
        assert sorted(graph.task_ids()) == list(range(graph.size()))

    def test_callbacks_cover_used_types(self, graph):
        declared = set(graph.callbacks())
        used = {graph.task(t).callback for t in graph.task_ids()}
        assert used <= declared

    def test_dot_export(self, graph):
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        for tid in list(graph.task_ids())[:3]:
            assert f"t{tid} [" in dot

    def test_networkx_is_dag(self, graph):
        g = graph.to_networkx()
        assert networkx.is_directed_acyclic_graph(g)
        assert g.number_of_nodes() == graph.size()

    @pytest.mark.parametrize("map_cls", [ModuloMap, BlockMap])
    def test_local_graphs_partition(self, graph, map_cls):
        tmap = map_cls(3, graph.size())
        validate_taskmap(tmap, graph.task_ids())
        seen = []
        for shard in range(3):
            seen.extend(t.id for t in graph.local_graph(tmap, shard))
        assert sorted(seen) == sorted(graph.task_ids())

    def test_edge_counts_balance(self, graph):
        """Global message conservation: total sends == total expected
        receives."""
        sends = 0
        expects = 0
        for tid in graph.task_ids():
            t = graph.task(tid)
            sends += sum(
                1 for ch in t.outgoing for dst in ch if is_real_task(dst)
            )
            expects += sum(1 for src in t.incoming if is_real_task(src))
        assert sends == expects
