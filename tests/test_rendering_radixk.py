"""End-to-end radix-k compositing tests (extension beyond the paper)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rendering import RenderingWorkload, radix_region, split_region_k
from repro.core.errors import GraphError
from repro.runtimes import SerialController

from tests.conftest import all_controllers


class TestRadixTiles:
    def test_split_region_k_partitions(self):
        parts = split_region_k((0, 10, 0, 7), 3, 0)
        assert parts == [(0, 4, 0, 7), (4, 7, 0, 7), (7, 10, 0, 7)]

    def test_split_alternates_axes(self):
        rows = split_region_k((0, 9, 0, 9), 3, 0)
        cols = split_region_k((0, 9, 0, 9), 3, 1)
        assert rows[0] == (0, 3, 0, 9)
        assert cols[0] == (0, 9, 0, 3)

    def test_invalid_radix(self):
        with pytest.raises(GraphError):
            split_region_k((0, 4, 0, 4), 1, 0)

    @given(st.sampled_from([(3, 2), (4, 2), (2, 3)]),
           st.sampled_from([(27, 27), (30, 17)]))
    def test_final_tiles_partition_image(self, km, shape):
        k, m = km
        n = k**m
        covered = 0
        seen = set()
        for i in range(n):
            y0, y1, x0, x1 = radix_region(shape, k, m, i)
            covered += (y1 - y0) * (x1 - x0)
            for y in range(y0, y1):
                for x in range(x0, x1):
                    assert (y, x) not in seen
                    seen.add((y, x))
        assert covered == shape[0] * shape[1]


class TestRadixWorkload:
    @pytest.mark.parametrize("n,k", [(9, 3), (16, 4), (8, 2), (1, 2)])
    def test_all_controllers_match_reference(self, small_field, n, k):
        wl = RenderingWorkload(
            small_field, n, image_shape=(20, 18), mode="radixk", valence=k
        )
        ref = wl.reference_image()
        for c in all_controllers(4):
            img = wl.assemble(wl.run(c))
            assert np.allclose(img.rgba, ref.rgba, atol=1e-5), type(c).__name__

    def test_agrees_with_binswap(self, small_field):
        a = RenderingWorkload(small_field, 16, (16, 16), mode="radixk", valence=4)
        b = RenderingWorkload(small_field, 16, (16, 16), mode="binswap")
        img_a = a.assemble(a.run(SerialController()))
        img_b = b.assemble(b.run(SerialController()))
        assert np.allclose(img_a.rgba, img_b.rgba, atol=1e-5)

    def test_direct_send_extreme(self, small_field):
        """k = n: a single direct-send exchange."""
        wl = RenderingWorkload(small_field, 8, (16, 16), mode="radixk", valence=8)
        assert wl.graph.stages == 1
        img = wl.assemble(wl.run(SerialController()))
        ref = wl.reference_image()
        assert np.allclose(img.rgba, ref.rgba, atol=1e-5)

    def test_radix_trades_messages_for_rounds(self, small_field):
        """Higher radix -> fewer rounds; the direct-send extreme pays
        with a larger total message count than binary swap."""
        stats = {}
        for k in (2, 4, 16):
            wl = RenderingWorkload(small_field, 16, (16, 16), mode="radixk", valence=k)
            r = wl.run(SerialController())
            stats[k] = (len(wl.graph.rounds()) - 1, r.stats.messages)
        assert stats[16][0] < stats[4][0] < stats[2][0]  # fewer rounds
        assert stats[16][1] > stats[2][1]  # direct-send sends more
