"""Tests for the tile algebra at ``k = 2`` (binary swap) and depth-safe layouts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.rendering.tiles import (
    full_region,
    power_layout,
    radix_region,
    region_shape,
    split_region_k,
)
from repro.core.errors import GraphError


class TestSplitRegion:
    def test_even_stage_splits_rows(self):
        first, second = split_region_k((0, 8, 0, 8), 2, 0)
        assert first == (0, 4, 0, 8)
        assert second == (4, 8, 0, 8)

    def test_odd_stage_splits_cols(self):
        first, second = split_region_k((0, 8, 0, 8), 2, 1)
        assert first == (0, 8, 0, 4)
        assert second == (0, 8, 4, 8)

    def test_odd_extent_first_half_bigger(self):
        first, second = split_region_k((0, 5, 0, 3), 2, 0)
        assert region_shape(first) == (3, 3)
        assert region_shape(second) == (2, 3)


class TestSwapRegion:
    def test_stage_zero_is_full(self):
        assert radix_region((8, 8), 2, 0, 3) == full_region((8, 8))

    def test_partners_get_complementary_halves(self):
        shape = (8, 8)
        for stage in range(3):
            for i in range(8):
                j = i ^ (1 << stage)
                ri = radix_region(shape, 2, stage + 1, i)
                rj = radix_region(shape, 2, stage + 1, j)
                parent_i = radix_region(shape, 2, stage, i)
                halves = split_region_k(parent_i, 2, stage)
                # Bit ``stage`` of the index picks the half it keeps.
                assert [ri, rj][(i >> stage) & 1] == halves[0]
                assert {ri, rj} == set(halves)

    def test_invalid_radix(self):
        with pytest.raises(GraphError):
            radix_region((4, 4), 1, 1, 0)

    @given(st.integers(1, 4), st.sampled_from([(16, 16), (33, 17), (8, 64)]))
    def test_final_tiles_partition_image(self, r, shape):
        n = 2**r
        covered = set()
        total = 0
        for i in range(n):
            y0, y1, x0, x1 = radix_region(shape, 2, r, i)
            for y in range(y0, y1):
                for x in range(x0, x1):
                    assert (y, x) not in covered
                    covered.add((y, x))
            total += (y1 - y0) * (x1 - x0)
        assert total == shape[0] * shape[1]
        assert len(covered) == total


class TestPowerLayout:
    def test_depth_axis_filled_first(self):
        assert power_layout(8, 2, (16, 16, 16)) == (1, 1, 8)

    def test_spills_to_other_axes(self):
        assert power_layout(64, 2, (16, 16, 4)) == (4, 4, 4)

    def test_k_way(self):
        layout = power_layout(64, 4, (64, 64, 64))
        assert layout[0] * layout[1] * layout[2] == 64
        assert layout[2] == 64 or layout[2] == 16  # z filled first

    def test_single_block(self):
        assert power_layout(1, 2, (4, 4, 4)) == (1, 1, 1)

    def test_too_small_grid_rejected(self):
        with pytest.raises(GraphError):
            power_layout(2**12, 2, (4, 4, 4))

    @given(st.integers(2, 4), st.integers(0, 4))
    def test_product_and_powers(self, k, d):
        n = k**d
        layout = power_layout(n, k, (256, 256, 256))
        assert layout[0] * layout[1] * layout[2] == n
        for f in layout:
            # Every factor is a power of k.
            while f % k == 0:
                f //= k
            assert f == 1
