"""The bounding-rect cull inside ``generate_bitmasks_fast``.

The cull may only drop tile slots the boundary test would have missed
anyway.  The frames here put bounding rectangles *exactly* on tile and
group borders — where a closed-vs-open interval slip would show — and
check masks and counters against the unculled reference loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmask import generate_bitmasks, generate_bitmasks_fast
from repro.core.grouping import GroupGeometry
from repro.raster.stats import RenderStats
from repro.tiles.boundary import BoundaryMethod, bounding_rects
from repro.tiles.fast import identify_tiles_fast
from tests.conftest import make_projected
from tests.core.test_bitmask_fast import _assert_tables_equal

#: 12.5 x 8.5 tiles, 3.125 x 2.125 groups: clipped tiles and clipped groups.
GEOMETRY = GroupGeometry(width=200, height=136, tile_size=16, group_size=64)


def _on_borders(seed: int, group_size: int = 64):
    """Axis-aligned footprints whose 3-sigma box ends on multiples of 16.

    Sigmas are powers of two and means integers, so the bounding
    rectangle of every method is exact; each Gaussian gets one edge per
    axis on a tile border, a quarter of them on a group border.
    """
    rng = np.random.default_rng(seed)
    n = 40
    sigmas = 2.0 ** rng.integers(0, 3, (n, 2))
    borders = 16.0 * np.stack(
        [rng.integers(0, 14, n), rng.integers(0, 10, n)], axis=1
    )
    on_group = rng.random(n) < 0.25
    borders[on_group] = group_size * np.floor(borders[on_group] / group_size)
    side = rng.choice([-1.0, 1.0], (n, 2))
    means = borders + side * 3.0 * sigmas
    proj = make_projected(
        means, sigmas, np.zeros(n), np.full(n, 0.5), np.zeros((n, 3)), np.ones(n)
    )
    for method in BoundaryMethod:
        rects = bounding_rects(proj, method)
        assert np.any(rects % 16.0 == 0.0, axis=1).all()
    return proj


def _generic(seed: int):
    """Rotated footprints of every size, nothing aligned with anything."""
    rng = np.random.default_rng(seed)
    n = 60
    return make_projected(
        rng.uniform([-20.0, -20.0], [220.0, 156.0], (n, 2)),
        rng.uniform(0.6, 25.0, (n, 2)),
        rng.uniform(0.0, np.pi, n),
        np.full(n, 0.5),
        np.zeros((n, 3)),
        np.ones(n),
    )


def _assert_fast_matches_reference(proj, method, geometry=GEOMETRY):
    assignment = identify_tiles_fast(proj, geometry.group_grid, method)
    assert assignment.num_pairs
    want_stats, stats = RenderStats(), RenderStats()
    want = generate_bitmasks(proj, geometry, assignment, method, want_stats)
    table = generate_bitmasks_fast(proj, geometry, assignment, method, stats)
    _assert_tables_equal(table, want)
    assert table.masks.dtype == want.masks.dtype
    assert stats == want_stats
    return table


@pytest.mark.parametrize("method", list(BoundaryMethod))
class TestCullKeepsEveryHit:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rects_on_tile_and_group_borders(self, method, seed):
        _assert_fast_matches_reference(_on_borders(seed), method)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_mask_bit_is_a_tile_level_pair(self, method, seed):
        """Losslessness by construction: the bits set for a Gaussian are
        exactly the tiles a tile-level identification assigns it."""
        proj = _generic(seed)
        table = _assert_fast_matches_reference(proj, method)
        tile_level = identify_tiles_fast(proj, GEOMETRY.tile_grid, method)
        want = set(zip(tile_level.gaussian_ids.tolist(), tile_level.tile_ids.tolist()))
        got = set()
        for gaussian, group, mask in zip(
            table.gaussian_ids.tolist(), table.group_ids.tolist(), table.masks.tolist()
        ):
            tiles = GEOMETRY.tiles_of_group(group)
            slots = GEOMETRY.slots_of_group(group)
            got.update(
                (gaussian, int(tile))
                for tile, slot in zip(tiles, slots)
                if mask >> int(slot) & 1
            )
        assert got == want

    @pytest.mark.parametrize("group_size", [32, 64, 128])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_tiles_per_group(self, method, group_size, seed):
        """4, 16 and 64 slots per group; every width leaves partial
        groups along the image's right and bottom edges."""
        geometry = GroupGeometry(
            width=200, height=136, tile_size=16, group_size=group_size
        )
        assert geometry.tiles_per_group == (group_size // 16) ** 2
        proj = _on_borders(seed, group_size)
        _assert_fast_matches_reference(proj, method, geometry)
        _assert_fast_matches_reference(_generic(seed), method, geometry)
