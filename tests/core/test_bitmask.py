"""Unit tests for bitmask generation (BGM)."""

import numpy as np
import pytest

from repro.core.bitmask import generate_bitmasks, popcount
from repro.core.grouping import GroupGeometry
from repro.raster.stats import RenderStats
from repro.tiles.boundary import BoundaryMethod, gaussian_rect_hits
from repro.tiles.identify import identify_tiles


@pytest.fixture
def geometry(camera):
    return GroupGeometry(
        width=camera.width, height=camera.height, tile_size=16, group_size=32
    )


@pytest.fixture
def group_assignment(projected, geometry):
    return identify_tiles(projected, geometry.group_grid, BoundaryMethod.ELLIPSE)


class TestPopcount:
    def test_zero(self):
        assert popcount(np.array([0], dtype=np.uint64)).tolist() == [0]

    def test_known_values(self):
        assert popcount(np.array([0b1011, 0xFFFF])).tolist() == [3, 16]

    def test_single_bits(self):
        masks = np.left_shift(np.uint64(1), np.arange(16, dtype=np.uint64))
        assert np.all(popcount(masks) == 1)


class TestGenerateBitmasks:
    def test_table_aligned_with_pairs(self, projected, geometry, group_assignment):
        table = generate_bitmasks(
            projected, geometry, group_assignment, BoundaryMethod.ELLIPSE
        )
        assert len(table) == group_assignment.num_pairs
        assert np.array_equal(table.gaussian_ids, group_assignment.gaussian_ids)
        assert np.array_equal(table.group_ids, group_assignment.tile_ids)

    def test_masks_fit_bit_width(self, projected, geometry, group_assignment):
        table = generate_bitmasks(
            projected, geometry, group_assignment, BoundaryMethod.ELLIPSE
        )
        assert np.all(table.masks < (1 << geometry.tiles_per_group))

    def test_bits_match_direct_tests(self, projected, geometry, group_assignment):
        """Every set bit must correspond to a positive boundary test of
        the matching tile rect, and vice versa."""
        table = generate_bitmasks(
            projected, geometry, group_assignment, BoundaryMethod.ELLIPSE
        )
        tg = geometry.tile_grid
        for k in range(len(table)):
            gauss = int(table.gaussian_ids[k])
            group = int(table.group_ids[k])
            tiles = geometry.tiles_of_group(group)
            slots = geometry.slots_of_group(group)
            hits = gaussian_rect_hits(
                projected, gauss, tg.tile_rects(tiles), BoundaryMethod.ELLIPSE
            )
            expected = 0
            for slot, hit in zip(slots, hits):
                if hit:
                    expected |= 1 << int(slot)
            assert int(table.masks[k]) == expected

    def test_group_hit_with_empty_mask_possible(self, projected, geometry):
        """A Gaussian can touch a group's area without touching any of its
        in-image tiles only at image-clipped groups; masks of zero must be
        tolerated (the filter drops them)."""
        assignment = identify_tiles(
            projected, geometry.group_grid, BoundaryMethod.AABB
        )
        generate_bitmasks(projected, geometry, assignment, BoundaryMethod.ELLIPSE)

    def test_stats_recorded(self, projected, geometry, group_assignment):
        stats = RenderStats()
        generate_bitmasks(
            projected, geometry, group_assignment, BoundaryMethod.OBB, stats
        )
        assert stats.num_bitmasks == group_assignment.num_pairs
        assert stats.bitmask_bits == geometry.tiles_per_group
        assert stats.bitmask_test_cost == BoundaryMethod.OBB.relative_test_cost
        assert stats.bitmask_tests > 0

    def test_mismatched_geometry_rejected(self, projected, geometry, camera):
        fine_assignment = identify_tiles(
            projected, geometry.tile_grid, BoundaryMethod.AABB
        )
        with pytest.raises(ValueError):
            generate_bitmasks(
                projected, geometry, fine_assignment, BoundaryMethod.AABB
            )

    def test_empty_assignment(self, projected, geometry, group_assignment):
        empty = identify_tiles(
            projected.__class__(
                indices=np.empty(0, dtype=int),
                depths=np.empty(0),
                means2d=np.empty((0, 2)),
                cov2d=np.empty((0, 2, 2)),
                conics=np.empty((0, 3)),
                colors=np.empty((0, 3)),
                opacities=np.empty(0),
                eigvals=np.empty((0, 2)),
                eigvecs=np.empty((0, 2, 2)),
                radii=np.empty(0),
                culling=projected.culling,
            ),
            geometry.group_grid,
            BoundaryMethod.AABB,
        )
        table = generate_bitmasks(projected, geometry, empty, BoundaryMethod.AABB)
        assert len(table) == 0
