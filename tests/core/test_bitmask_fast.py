"""Equivalence tests: vectorised bitmask generation vs the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmask import generate_bitmasks, generate_bitmasks_fast
from repro.core.grouping import GroupGeometry
from repro.gaussians.camera import Camera
from repro.gaussians.projection import project
from repro.raster.stats import RenderStats
from repro.tiles.boundary import BoundaryMethod
from repro.tiles.identify import identify_tiles
from tests.conftest import make_cloud


def _assert_tables_equal(fast, ref):
    assert np.array_equal(fast.masks, ref.masks)
    assert np.array_equal(fast.gaussian_ids, ref.gaussian_ids)
    assert np.array_equal(fast.group_ids, ref.group_ids)
    assert fast.num_tile_tests == ref.num_tile_tests
    assert fast.method == ref.method


def _check(proj, geometry, group_method, bitmask_method):
    assignment = identify_tiles(proj, geometry.group_grid, group_method)
    ref_stats, fast_stats = RenderStats(), RenderStats()
    ref = generate_bitmasks(proj, geometry, assignment, bitmask_method, ref_stats)
    fast = generate_bitmasks_fast(
        proj, geometry, assignment, bitmask_method, fast_stats
    )
    _assert_tables_equal(fast, ref)
    assert fast_stats.bitmask_tests == ref_stats.bitmask_tests
    assert fast_stats.num_bitmasks == ref_stats.num_bitmasks
    assert fast_stats.bitmask_bits == ref_stats.bitmask_bits
    assert fast_stats.bitmask_test_cost == ref_stats.bitmask_test_cost


class TestBitmaskFastEquivalence:
    @pytest.mark.parametrize("group_method", list(BoundaryMethod))
    @pytest.mark.parametrize("bitmask_method", list(BoundaryMethod))
    def test_matches_reference(self, projected, camera, group_method, bitmask_method):
        geometry = GroupGeometry(
            width=camera.width, height=camera.height, tile_size=16, group_size=64
        )
        _check(projected, geometry, group_method, bitmask_method)

    @pytest.mark.parametrize("bitmask_method", list(BoundaryMethod))
    def test_ragged_image(self, rng, bitmask_method):
        camera = Camera(width=77, height=53, fx=70.0, fy=70.0)
        proj = project(make_cloud(80, rng), camera)
        geometry = GroupGeometry(
            width=camera.width, height=camera.height, tile_size=8, group_size=32
        )
        _check(proj, geometry, BoundaryMethod.ELLIPSE, bitmask_method)

    @pytest.mark.parametrize("bitmask_method", list(BoundaryMethod))
    @pytest.mark.parametrize("group_size", [16, 32, 64])
    def test_tiles_per_group(self, rng, group_size, bitmask_method):
        """4, 16 and 64 slots per group, on an image whose last group
        column and last group row are partial."""
        camera = Camera(width=77, height=53, fx=70.0, fy=70.0)
        proj = project(make_cloud(80, rng), camera)
        geometry = GroupGeometry(
            width=camera.width, height=camera.height, tile_size=8,
            group_size=group_size,
        )
        assert geometry.tiles_per_group == (group_size // 8) ** 2
        assert camera.width % group_size and camera.height % group_size
        _check(proj, geometry, BoundaryMethod.ELLIPSE, bitmask_method)

    def test_empty_assignment(self, rng, camera):
        proj = project(make_cloud(10, rng, depth_range=(-20.0, -5.0)), camera)
        geometry = GroupGeometry(
            width=camera.width, height=camera.height, tile_size=16, group_size=64
        )
        _check(proj, geometry, BoundaryMethod.AABB, BoundaryMethod.ELLIPSE)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(list(BoundaryMethod)))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(self, seed, bitmask_method):
        rng = np.random.default_rng(seed)
        camera = Camera(width=96, height=64, fx=80.0, fy=80.0)
        proj = project(
            make_cloud(
                30, rng, depth_range=(0.5, 30.0), spread=8.0,
                scale_range=(0.01, 1.5),
            ),
            camera,
        )
        geometry = GroupGeometry(
            width=camera.width, height=camera.height, tile_size=16, group_size=64
        )
        _check(proj, geometry, BoundaryMethod.ELLIPSE, bitmask_method)
