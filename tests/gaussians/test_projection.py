"""Unit tests for EWA projection."""

import numpy as np
import pytest

from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.projection import COV2D_BLUR, SIGMA_EXTENT, project
from repro.gaussians.culling import cull
from tests.conftest import make_cloud


def _isotropic_cloud(scale, depth, opacity=0.9):
    return GaussianCloud(
        positions=np.array([[0.0, 0.0, depth]]),
        scales=np.full((1, 3), scale),
        rotations=np.array([[1.0, 0.0, 0.0, 0.0]]),
        opacities=np.array([opacity]),
        sh_coeffs=np.zeros((1, 1, 3)),
    )


class TestProjectGeometry:
    def test_centre_projects_to_principal_point(self, camera):
        proj = project(_isotropic_cloud(0.1, 5.0), camera)
        assert np.allclose(proj.means2d, [[camera.cx, camera.cy]])

    def test_depth_recorded(self, camera):
        proj = project(_isotropic_cloud(0.1, 5.0), camera)
        assert proj.depths[0] == pytest.approx(5.0)

    def test_isotropic_cov2d(self, camera):
        # An isotropic Gaussian on the optical axis projects to an
        # isotropic 2D Gaussian with variance (f*s/z)^2 + blur.
        s, z = 0.2, 5.0
        proj = project(_isotropic_cloud(s, z), camera)
        expected = (camera.fx * s / z) ** 2 + COV2D_BLUR
        assert proj.cov2d[0, 0, 0] == pytest.approx(expected, rel=1e-6)
        assert proj.cov2d[0, 1, 1] == pytest.approx(expected, rel=1e-6)
        assert proj.cov2d[0, 0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_radius_is_three_sigma(self, camera):
        s, z = 0.2, 5.0
        proj = project(_isotropic_cloud(s, z), camera)
        sigma = np.sqrt((camera.fx * s / z) ** 2 + COV2D_BLUR)
        assert proj.radii[0] == pytest.approx(SIGMA_EXTENT * sigma, rel=1e-6)

    def test_farther_gaussian_smaller(self, camera):
        near = project(_isotropic_cloud(0.2, 4.0), camera)
        far = project(_isotropic_cloud(0.2, 10.0), camera)
        assert far.radii[0] < near.radii[0]

    def test_conic_is_inverse_of_cov(self, projected):
        for i in range(len(projected)):
            a, b, c = projected.conics[i]
            inv = np.array([[a, b], [b, c]])
            assert np.allclose(
                inv @ projected.cov2d[i], np.eye(2), atol=1e-6
            )

    def test_eigvals_descending_positive(self, projected):
        assert np.all(projected.eigvals[:, 0] >= projected.eigvals[:, 1])
        assert np.all(projected.eigvals[:, 1] > 0.0)

    def test_eigvecs_orthonormal(self, projected):
        prod = np.einsum("nij,nik->njk", projected.eigvecs, projected.eigvecs)
        assert np.allclose(prod, np.eye(2)[None], atol=1e-9)

    def test_eigendecomposition_reconstructs_cov(self, projected):
        recon = np.einsum(
            "nij,nj,nkj->nik",
            projected.eigvecs,
            projected.eigvals,
            projected.eigvecs,
        )
        assert np.allclose(recon, projected.cov2d, atol=1e-8)


class TestProjectBookkeeping:
    def test_only_visible_projected(self, rng, camera):
        cloud = make_cloud(100, rng, depth_range=(-5.0, 20.0))
        culling = cull(cloud, camera)
        proj = project(cloud, camera)
        assert len(proj) == np.count_nonzero(culling.visible)
        assert np.array_equal(proj.indices, np.flatnonzero(culling.visible))

    def test_precomputed_culling_respected(self, rng, camera):
        cloud = make_cloud(50, rng)
        culling = cull(cloud, camera)
        proj = project(cloud, camera, culling)
        assert len(proj) == np.count_nonzero(culling.visible)

    def test_mismatched_culling_rejected(self, rng, camera):
        cloud = make_cloud(50, rng)
        other = cull(make_cloud(10, rng), camera)
        with pytest.raises(ValueError):
            project(cloud, camera, other)

    def test_opacities_copied(self, rng, camera):
        cloud = make_cloud(50, rng)
        proj = project(cloud, camera)
        assert np.array_equal(proj.opacities, cloud.opacities[proj.indices])

    def test_colors_finite_nonnegative(self, projected):
        assert np.all(np.isfinite(projected.colors))
        assert np.all(projected.colors >= 0.0)

    def test_offaxis_camera_consistency(self, rng, lookat_camera):
        cloud = make_cloud(80, rng, depth_range=(2.0, 10.0))
        proj = project(cloud, lookat_camera)
        # Projected means of visible Gaussians match direct projection.
        pts_cam = lookat_camera.world_to_camera(cloud.positions[proj.indices])
        uv = lookat_camera.project_points(pts_cam)
        assert np.allclose(proj.means2d, uv)
