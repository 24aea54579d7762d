"""Tests for the RadixK task graph (``k = 2`` is binary swap)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.rendering import RenderingWorkload
from repro.core.errors import GraphError
from repro.core.ids import EXTERNAL, TNULL
from repro.graphs.radixk import RadixK


class TestStructure:
    def test_power_required(self):
        # A positive power of a radix of at least 2, for every n.
        for n, k in [(6, 2), (8, 3), (0, 2), (-4, 2), (0, 1), (1, 1), (4, 1)]:
            with pytest.raises(GraphError):
                RadixK(n, k)

    def test_size(self):
        g = RadixK(27, 3)
        assert g.stages == 3
        assert g.size() == 27 * 4

    def test_digits(self):
        g = RadixK(27, 3)
        assert [g.digit(14, s) for s in range(3)] == [2, 1, 1]  # 14 = 112_3

    def test_group_membership(self):
        g = RadixK(9, 3)
        grp = g.group(0, 4)
        assert 4 in grp and len(grp) == 3
        # All members share every digit except digit 0.
        for j in grp:
            assert g.digit(j, 1) == g.digit(4, 1)

    def test_group_is_symmetric(self):
        g = RadixK(27, 3)
        for s in range(3):
            for i in range(27):
                grp = g.group(s, i)
                for j in grp:
                    assert g.group(s, j) == grp

    def test_leaf_shape(self):
        g = RadixK(9, 3)
        t = g.task(0)
        assert t.incoming == [EXTERNAL]
        assert t.n_outputs == 3  # one strip per group member

    def test_composite_slot_order_matches_group(self):
        g = RadixK(9, 3)
        t = g.task(g.task_id(1, 4))
        assert t.incoming == [g.task_id(0, j) for j in g.group(0, 4)]

    def test_root_shape(self):
        g = RadixK(9, 3)
        t = g.task(g.root_ids()[5])
        assert t.callback == g.ROOT
        assert t.outgoing == [[TNULL]]

    def test_degenerate(self):
        g = RadixK(1, 2)
        g.validate()
        assert g.task(0).callback == g.ROOT

    def test_radix_n_is_direct_send(self):
        g = RadixK(8, 8)
        assert g.stages == 1
        # One exchange: every stage-0 task talks to all 8 roots.
        t = g.task(0)
        assert t.n_outputs == 8

    def test_bad_queries(self):
        g = RadixK(9, 3)
        with pytest.raises(GraphError):
            g.group(3, 0)
        with pytest.raises(GraphError):
            g.task(100)


class TestRadix2:
    """``k = 2``: the paper's binary swap."""

    def test_power_of_two_required(self):
        with pytest.raises(GraphError):
            RadixK(6, 2)
        with pytest.raises(GraphError):
            RadixK(0, 2)

    def test_size(self):
        g = RadixK(8, 2)
        assert g.stages == 3
        assert g.size() == 8 * 4

    def test_stage_index_round_trip(self):
        g = RadixK(8, 2)
        for tid in g.task_ids():
            assert g.task_id(g.stage(tid), g.index(tid)) == tid

    def test_group_is_the_xor_partner_pair(self):
        g = RadixK(16, 2)
        for s in range(g.stages):
            for i in range(16):
                j = i ^ (1 << s)
                assert g.digit(i, s) == (i >> s) & 1  # digit s is bit s
                assert g.group(s, i) == sorted([i, j])
                assert g.group(s, j) == g.group(s, i)

    def test_leaf_shape(self):
        g = RadixK(4, 2)
        t = g.task(1)
        assert t.callback == g.LEAF
        assert t.incoming == [EXTERNAL]
        # Channel t goes to the successor of the member with digit t.
        assert t.outgoing == [[g.task_id(1, 0)], [g.task_id(1, 1)]]

    def test_composite_inputs_by_donor_digit(self):
        g = RadixK(4, 2)
        t = g.task(g.task_id(1, 3))
        # Stage 0's digit of index 3 (bit 0) is 1: partner 2 comes first.
        assert t.incoming == [g.task_id(0, 2), g.task_id(0, 3)]
        assert t.callback == g.COMPOSITE

    def test_root_shape(self):
        g = RadixK(4, 2)
        t = g.task(g.root_ids()[1])
        assert t.callback == g.ROOT
        assert t.outgoing == [[TNULL]]

    def test_degenerate_single(self):
        g = RadixK(1, 2)
        t = g.task(0)
        assert t.callback == g.ROOT
        assert t.incoming == [EXTERNAL]

    def test_bad_stage_queries(self):
        g = RadixK(4, 2)
        with pytest.raises(GraphError):
            g.group(2, 0)  # only stages 0..1 exchange
        with pytest.raises(GraphError):
            g.task_id(5, 0)

    def test_is_the_rendering_binswap_graph(self, small_field):
        wl = RenderingWorkload(small_field, 16, (16, 16), mode="binswap", valence=4)
        assert isinstance(wl.graph, RadixK) and wl.graph.radix == 2
        with pytest.raises(GraphError):
            RenderingWorkload(small_field, 0, (16, 16), mode="binswap")

    @given(st.integers(0, 6))
    def test_validates_for_all_sizes(self, r):
        g = RadixK(2**r, 2)
        g.validate()
        assert len(g.rounds()) == r + 1

    @given(st.integers(1, 5))
    def test_all_stages_fully_populated(self, r):
        n = 2**r
        # Unlike a reduction, every round keeps n active tasks.
        assert all(len(tids) == n for tids in RadixK(n, 2).rounds())


class TestProperties:
    @given(st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 2), (8, 1), (5, 2)]))
    def test_validates(self, kd):
        k, m = kd
        g = RadixK(k**m, k)
        g.validate()
        assert len(g.rounds()) == m + 1

    @given(st.sampled_from([(2, 3), (3, 2), (4, 2)]))
    def test_every_stage_fully_populated(self, kd):
        k, m = kd
        n = k**m
        g = RadixK(n, k)
        for tids in g.rounds():
            assert len(tids) == n

    @given(st.sampled_from([(2, 2), (3, 2), (2, 4)]))
    def test_message_count(self, kd):
        """Radix-k sends n*k messages per exchange round (incl. the
        self-edge), n*k*m total."""
        k, m = kd
        n = k**m
        g = RadixK(n, k)
        edges = sum(
            len(ch) for tid in g.task_ids() for ch in g.task(tid).outgoing
            if TNULL not in ch
        )
        assert edges == n * k * m
