"""Tests for the locality-aware merge-tree task map."""

import numpy as np
import pytest

from repro.analysis.mergetree import MergeTreeWorkload, reference_segmentation
from repro.analysis.mergetree.placement import leaf_shard, mergetree_locality_map
from repro.core.taskmap import ModuloMap, validate_taskmap
from repro.graphs import MergeTreeGraph
from repro.obs.events import MESSAGE_DELIVERED, ListSink
from repro.runtimes import MPIController


class TestLeafShard:
    def test_contiguous_blocking(self):
        assert [leaf_shard(i, 8, 2) for i in range(8)] == [0] * 4 + [1] * 4

    def test_uneven(self):
        shards = [leaf_shard(i, 5, 2) for i in range(5)]
        assert shards == [0, 0, 0, 1, 1]

    def test_more_shards_than_leaves(self):
        shards = [leaf_shard(i, 2, 4) for i in range(2)]
        assert shards == [0, 1]


class TestLocalityMap:
    def test_valid_partition(self):
        g = MergeTreeGraph(16, 2)
        tmap = mergetree_locality_map(g, 4)
        validate_taskmap(tmap, g.task_ids())

    def test_leaf_chain_colocated(self):
        g = MergeTreeGraph(16, 2)
        tmap = mergetree_locality_map(g, 4)
        for i in range(16):
            home = tmap.shard(g.local_id(i))
            for r in range(1, g.join_rounds + 1):
                assert tmap.shard(g.correction_id(r, i)) == home
            assert tmap.shard(g.segmentation_id(i)) == home

    def test_first_round_join_with_first_child(self):
        g = MergeTreeGraph(16, 2)
        tmap = mergetree_locality_map(g, 4)
        for j in range(g.join_count(1)):
            assert tmap.shard(g.join_id(1, j)) == tmap.shard(g.local_id(j * 2))

    def test_reduces_network_bytes(self, small_field):
        """The point of the map: far fewer bytes cross ranks than under
        the round-robin default."""
        wl = MergeTreeWorkload(small_field, 16, 0.5, valence=2)
        results = {}
        for name, tmap in [
            ("modulo", ModuloMap(4, wl.graph.size())),
            ("locality", mergetree_locality_map(wl.graph, 4)),
        ]:
            sink = ListSink()
            r = wl.run(MPIController(4, sinks=[sink]), tmap)
            inter = sum(
                e.dur for e in sink.events
                if e.type == MESSAGE_DELIVERED and e.dur > 0
            )
            results[name] = (r, inter)
        ref = reference_segmentation(small_field, 0.5)
        for r, _ in results.values():
            assert np.array_equal(wl.assemble(r), ref)
        # Locality placement moves strictly less data over the network.
        assert results["locality"][1] < results["modulo"][1]

    def test_results_identical_between_placements(self, small_field):
        wl = MergeTreeWorkload(small_field, 8, 0.5, valence=2)
        a = wl.assemble(wl.run(MPIController(4), ModuloMap(4, wl.graph.size())))
        b = wl.assemble(
            wl.run(MPIController(4), mergetree_locality_map(wl.graph, 4))
        )
        assert np.array_equal(a, b)
