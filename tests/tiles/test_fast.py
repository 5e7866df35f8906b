"""Equivalence tests: vectorised tile identification vs the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.camera import Camera
from repro.gaussians.projection import project
from repro.tiles.boundary import BoundaryMethod
from repro.tiles.fast import identify_tiles_fast
from repro.tiles.grid import TileGrid
from repro.tiles.identify import identify_tiles
from tests.conftest import make_cloud


def _assert_equivalent(fast, ref):
    assert np.array_equal(fast.gaussian_ids, ref.gaussian_ids)
    assert np.array_equal(fast.tile_ids, ref.tile_ids)
    assert fast.num_candidate_tiles == ref.num_candidate_tiles
    assert fast.num_boundary_tests == ref.num_boundary_tests
    assert fast.num_gaussians == ref.num_gaussians


class TestEquivalence:
    @pytest.mark.parametrize("tile_size", [8, 16, 32, 64])
    def test_matches_reference(self, projected, camera, tile_size):
        grid = TileGrid(camera.width, camera.height, tile_size)
        _assert_equivalent(
            identify_tiles_fast(projected, grid, BoundaryMethod.AABB),
            identify_tiles(projected, grid, BoundaryMethod.AABB),
        )

    def test_ragged_image(self, rng):
        camera = Camera(width=77, height=53, fx=70.0, fy=70.0)
        cloud = make_cloud(80, rng)
        proj = project(cloud, camera)
        grid = TileGrid(camera.width, camera.height, 16)
        _assert_equivalent(
            identify_tiles_fast(proj, grid, BoundaryMethod.AABB),
            identify_tiles(proj, grid, BoundaryMethod.AABB),
        )

    def test_empty_projection(self, rng, camera):
        cloud = make_cloud(10, rng, depth_range=(-20.0, -5.0))
        proj = project(cloud, camera)
        grid = TileGrid(camera.width, camera.height, 16)
        fast = identify_tiles_fast(proj, grid, BoundaryMethod.AABB)
        assert fast.num_pairs == 0

    @given(st.integers(0, 2**31 - 1), st.sampled_from([8, 16, 32]))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed, tile_size):
        rng = np.random.default_rng(seed)
        camera = Camera(width=96, height=64, fx=80.0, fy=80.0)
        cloud = make_cloud(
            30, rng, depth_range=(0.5, 30.0), spread=8.0, scale_range=(0.01, 1.5)
        )
        proj = project(cloud, camera)
        grid = TileGrid(camera.width, camera.height, tile_size)
        _assert_equivalent(
            identify_tiles_fast(proj, grid, BoundaryMethod.AABB),
            identify_tiles(proj, grid, BoundaryMethod.AABB),
        )


class TestAllMethodsEquivalence:
    """identify_tiles_fast must match the reference for every method."""

    @pytest.mark.parametrize("method", list(BoundaryMethod))
    @pytest.mark.parametrize("tile_size", [8, 16, 64])
    def test_matches_reference(self, projected, camera, tile_size, method):
        grid = TileGrid(camera.width, camera.height, tile_size)
        _assert_equivalent(
            identify_tiles_fast(projected, grid, method),
            identify_tiles(projected, grid, method),
        )

    @pytest.mark.parametrize("method", list(BoundaryMethod))
    def test_ragged_image(self, rng, method):
        camera = Camera(width=77, height=53, fx=70.0, fy=70.0)
        cloud = make_cloud(80, rng)
        proj = project(cloud, camera)
        grid = TileGrid(camera.width, camera.height, 16)
        _assert_equivalent(
            identify_tiles_fast(proj, grid, method),
            identify_tiles(proj, grid, method),
        )

    @pytest.mark.parametrize("method", list(BoundaryMethod))
    def test_empty_projection(self, rng, camera, method):
        cloud = make_cloud(10, rng, depth_range=(-20.0, -5.0))
        proj = project(cloud, camera)
        grid = TileGrid(camera.width, camera.height, 16)
        fast = identify_tiles_fast(proj, grid, method)
        assert fast.num_pairs == 0
        assert fast.num_candidate_tiles == 0

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([8, 16, 32]),
        st.sampled_from(list(BoundaryMethod)),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, seed, tile_size, method):
        rng = np.random.default_rng(seed)
        camera = Camera(width=96, height=64, fx=80.0, fy=80.0)
        cloud = make_cloud(
            30, rng, depth_range=(0.5, 30.0), spread=8.0, scale_range=(0.01, 1.5)
        )
        proj = project(cloud, camera)
        grid = TileGrid(camera.width, camera.height, tile_size)
        _assert_equivalent(
            identify_tiles_fast(proj, grid, method),
            identify_tiles(proj, grid, method),
        )
