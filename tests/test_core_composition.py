"""Tests for graph composition (id-prefix namespaces)."""

import pytest

from repro.core.composition import ComposedGraph
from repro.core.errors import GraphError
from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.graphs.broadcast import Broadcast
from repro.graphs.reduction import Reduction
from repro.runtimes.serial import SerialController


def allreduce(leaves=9, valence=3):
    """Reduction chained into a broadcast = an all-reduce."""
    comp = ComposedGraph()
    comp.add("red", Reduction(leaves, valence))
    comp.add("bc", Broadcast(leaves, valence))
    comp.link("red", 0, 0, "bc", 0, 0)
    return comp


class TestStructure:
    def test_sizes_add_up(self):
        comp = allreduce()
        assert comp.size() == Reduction(9, 3).size() + Broadcast(9, 3).size()
        comp.validate()

    def test_link_rewires_both_ends(self):
        comp = allreduce()
        red_root = comp.task(comp.global_id("red", 0))
        bc_root_gid = comp.global_id("bc", 0)
        assert red_root.outgoing[0] == [bc_root_gid]
        assert comp.task(bc_root_gid).incoming == [comp.global_id("red", 0)]

    def test_id_round_trip(self):
        comp = allreduce()
        gid = comp.global_id("bc", 5)
        assert comp.local_id(gid) == ("bc", 5)

    def test_callback_ids_disjoint(self):
        comp = allreduce()
        cbs = comp.callbacks()
        assert len(cbs) == len(set(cbs)) == 6

    def test_callback_id_mapping(self):
        comp = allreduce()
        red_leaf_cb = comp.callback_id("red", Reduction.LEAF)
        bc_leaf_cb = comp.callback_id("bc", Broadcast.LEAF)
        assert red_leaf_cb != bc_leaf_cb

    def test_rounds_span_components(self):
        comp = allreduce(leaves=4, valence=2)
        rounds = comp.rounds()
        # reduction levels (3) + broadcast levels (3), chained.
        assert len(rounds) == 6


class TestMutation:
    """``add`` / ``link`` change the structure in place: everything
    derived from the old one must go (it used to survive — a stale
    fingerprint let ``request_key`` coalesce, and ``PLAN_CACHE`` serve,
    a graph that no longer existed)."""

    def test_add_drops_fingerprint_and_tables(self):
        from repro.sched.compile import graph_fingerprint

        comp = ComposedGraph().add("a", Reduction(4, 2))
        fp, size = graph_fingerprint(comp), comp.size()
        sources = comp.tables().sources
        comp.add("b", Reduction(4, 2))
        assert graph_fingerprint(comp) != fp
        assert comp.size() == 2 * size
        assert comp.tables().sources == sources + [s + size for s in sources]
        assert comp.cached().task(size).id == size  # a view sees the new part

    def test_link_drops_fingerprint_and_tables(self):
        from repro.sched.compile import graph_fingerprint

        comp = ComposedGraph()
        comp.add("red", Reduction(9, 3)).add("bc", Broadcast(9, 3))
        fp, tables = graph_fingerprint(comp), comp.tables()
        bc_root = comp.global_id("bc", 0)
        assert bc_root in tables.sources
        comp.link("red", 0, 0, "bc", 0, 0)
        assert graph_fingerprint(comp) != fp
        assert comp.tables() is not tables
        assert bc_root not in comp.tables().sources


class TestErrors:
    def test_duplicate_component(self):
        comp = ComposedGraph().add("a", Reduction(2, 2))
        with pytest.raises(GraphError):
            comp.add("a", Reduction(2, 2))

    def test_unknown_component(self):
        comp = ComposedGraph().add("a", Reduction(2, 2))
        with pytest.raises(GraphError):
            comp.global_id("b", 0)

    def test_link_non_sink_rejected(self):
        comp = ComposedGraph()
        comp.add("red", Reduction(4, 2)).add("bc", Broadcast(4, 2))
        with pytest.raises(GraphError, match="not a sink"):
            comp.link("red", 1, 0, "bc", 0, 0)

    def test_link_non_external_rejected(self):
        comp = ComposedGraph()
        comp.add("red", Reduction(4, 2)).add("bc", Broadcast(4, 2))
        with pytest.raises(GraphError, match="not EXTERNAL"):
            comp.link("red", 0, 0, "bc", 1, 0)

    def test_double_link_rejected(self):
        comp = ComposedGraph()
        comp.add("r1", Reduction(2, 2)).add("r2", Reduction(2, 2))
        comp.add("bc", Broadcast(2, 2))
        comp.link("r1", 0, 0, "bc", 0, 0)
        with pytest.raises(GraphError, match="already linked"):
            comp.link("r2", 0, 0, "bc", 0, 0)

    def test_unknown_gid(self):
        comp = allreduce()
        with pytest.raises(GraphError):
            comp.task(comp.size())


class TestExecution:
    def test_allreduce_runs_end_to_end(self):
        comp = allreduce(leaves=4, valence=2)
        red = Reduction(4, 2)
        bc = Broadcast(4, 2)
        c = SerialController()
        c.initialize(comp)
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        fwd = lambda ins, tid: [Payload(ins[0].data)]
        c.register_callback(comp.callback_id("red", red.LEAF), fwd)
        c.register_callback(comp.callback_id("red", red.REDUCE), add)
        c.register_callback(comp.callback_id("red", red.ROOT), add)
        c.register_callback(comp.callback_id("bc", bc.ROOT), fwd)
        c.register_callback(comp.callback_id("bc", bc.RELAY), fwd)
        c.register_callback(comp.callback_id("bc", bc.LEAF), fwd)
        inputs = {
            comp.global_id("red", t): Payload(i + 1)
            for i, t in enumerate(red.leaf_ids())
        }
        result = c.run(inputs)
        # Every broadcast leaf received the global sum 1+2+3+4.
        for t in bc.leaf_ids():
            assert result.output(comp.global_id("bc", t)).data == 10
