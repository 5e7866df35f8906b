"""Unit tests for frustum/opacity culling."""

import numpy as np

from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.culling import MIN_OPACITY, cull
from tests.conftest import make_cloud


def _single(position, opacity=0.9):
    return GaussianCloud(
        positions=np.array([position], dtype=float),
        scales=np.full((1, 3), 0.1),
        rotations=np.array([[1.0, 0.0, 0.0, 0.0]]),
        opacities=np.array([opacity]),
        sh_coeffs=np.zeros((1, 4, 3)),
    )


class TestCull:
    def test_point_in_front_is_visible(self, camera):
        result = cull(_single([0.0, 0.0, 5.0]), camera)
        assert np.count_nonzero(result.visible) == 1

    def test_point_behind_camera_depth_culled(self, camera):
        result = cull(_single([0.0, 0.0, -5.0]), camera)
        assert np.count_nonzero(result.visible) == 0
        assert result.num_depth_culled == 1

    def test_point_beyond_far_plane_culled(self, camera):
        result = cull(_single([0.0, 0.0, camera.far + 1.0]), camera)
        assert result.num_depth_culled == 1

    def test_point_inside_near_plane_culled(self, camera):
        result = cull(_single([0.0, 0.0, camera.near / 2.0]), camera)
        assert result.num_depth_culled == 1

    def test_far_off_axis_point_frustum_culled(self, camera):
        # At depth 5 the guard-banded half-width is 1.3 * 5 * tanfov.
        x = 5.0 * camera.tan_half_fov_x * 2.0
        result = cull(_single([x, 0.0, 5.0]), camera)
        assert result.num_frustum_culled == 1

    def test_guard_band_keeps_slightly_off_screen(self, camera):
        # Just outside the image but inside the 1.3 margin.
        x = 5.0 * camera.tan_half_fov_x * 1.2
        result = cull(_single([x, 0.0, 5.0]), camera)
        assert np.count_nonzero(result.visible) == 1

    def test_transparent_gaussian_culled(self, camera):
        result = cull(_single([0.0, 0.0, 5.0], opacity=MIN_OPACITY / 2.0), camera)
        assert result.num_opacity_culled == 1

    def test_counters_partition_input(self, rng, camera):
        cloud = make_cloud(200, rng, depth_range=(-5.0, 30.0), spread=15.0,
                           opacity_range=(0.0, 1.0))
        result = cull(cloud, camera)
        total = (
            np.count_nonzero(result.visible)
            + result.num_depth_culled
            + result.num_frustum_culled
            + result.num_opacity_culled
        )
        assert total == result.num_input == len(cloud)
