"""Unit tests for the pinhole camera model."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.gaussians.camera import Camera, look_at
from repro.gaussians.rotation import quaternion_to_rotation_matrix


class TestCameraValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Camera(width=0, height=10, fx=1.0, fy=1.0)

    def test_rejects_bad_focals(self):
        with pytest.raises(ValueError):
            Camera(width=10, height=10, fx=-1.0, fy=1.0)

    def test_rejects_bad_clip_planes(self):
        with pytest.raises(ValueError):
            Camera(width=10, height=10, fx=1.0, fy=1.0, near=5.0, far=1.0)

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            Camera(width=10, height=10, fx=1.0, fy=1.0, rotation=np.ones((3, 3)))

    @given(
        quaternion=st.lists(
            st.floats(-1.0, 1.0), min_size=4, max_size=4
        ).filter(lambda q: np.linalg.norm(q) > 0.1),
        stretch=st.floats(-1.3e-5, 1.3e-5),
        entry=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        nudge=st.floats(-4e-6, 4e-6),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    @example([1.0, 0.0, 0.0, 0.0], 1.09e-5, (0, 0), 0.0, None)  # accepted
    @example([1.0, 0.0, 0.0, 0.0], 1.11e-5, (0, 0), 0.0, None)  # rejected
    def test_orthonormality_verdict_is_allclose(
        self, quaternion, stretch, entry, nudge, special
    ):
        """Raises exactly when ``np.allclose(R R^T, I, atol=1e-6)`` fails.

        ``stretch`` scales a rotation so the diagonal of ``R R^T`` moves by
        about ``stretch`` around its 1.1e-5 bound; ``nudge`` moves one entry
        so the off-diagonal moves around its 1e-6 bound; ``special`` puts a
        NaN or an infinity in that entry.
        """
        rot = quaternion_to_rotation_matrix(np.array([quaternion]))[0]
        rot = rot * np.sqrt(1.0 + stretch)
        rot[entry] += nudge
        if special is not None:
            rot[entry] = special
        with np.errstate(invalid="ignore", over="ignore"):
            expect_reject = not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6)
            try:
                Camera(width=4, height=4, fx=1.0, fy=1.0, rotation=rot)
                rejected = False
            except ValueError:
                rejected = True
        assert rejected == expect_reject


class TestCameraGeometry:
    def test_identity_pose_position_is_origin(self, camera):
        assert np.allclose(camera.position, 0.0)

    def test_centre_point_projects_to_principal_point(self, camera):
        uv = camera.project_points(np.array([[0.0, 0.0, 5.0]]))
        assert np.allclose(uv, [[camera.cx, camera.cy]])

    def test_projection_scales_with_focal(self, camera):
        uv = camera.project_points(np.array([[1.0, 0.0, 2.0]]))
        assert np.allclose(uv[0, 0] - camera.cx, camera.fx / 2.0)

    def test_world_to_camera_identity(self, camera):
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(camera.world_to_camera(pts), pts)

    def test_world_to_camera_translation(self):
        cam = Camera(
            width=10, height=10, fx=5.0, fy=5.0, translation=np.array([1.0, 0.0, 0.0])
        )
        out = cam.world_to_camera(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, [[1.0, 0.0, 0.0]])

    def test_tan_half_fov(self, camera):
        assert camera.tan_half_fov_x == pytest.approx(64 / (2 * 60.0))
        assert camera.tan_half_fov_y == pytest.approx(48 / (2 * 60.0))

    def test_rejects_bad_point_shape(self, camera):
        with pytest.raises(ValueError):
            camera.world_to_camera(np.zeros((3, 2)))


class TestLookAt:
    def test_target_projects_to_image_centre(self, lookat_camera):
        target = np.array([[0.0, 0.0, 6.0]])
        cam_pts = lookat_camera.world_to_camera(target)
        uv = lookat_camera.project_points(cam_pts)
        assert np.allclose(uv, [[lookat_camera.cx, lookat_camera.cy]], atol=1e-9)

    def test_target_depth_positive(self, lookat_camera):
        cam_pts = lookat_camera.world_to_camera(np.array([[0.0, 0.0, 6.0]]))
        assert cam_pts[0, 2] > 0.0

    def test_position_is_eye(self, lookat_camera):
        assert np.allclose(lookat_camera.position, [4.0, 3.0, -6.0])

    def test_rejects_coincident_eye_target(self):
        with pytest.raises(ValueError):
            look_at([0, 0, 0], [0, 0, 0], width=10, height=10)

    def test_rejects_parallel_up(self):
        with pytest.raises(ValueError):
            look_at([0, 0, 0], [0, 1, 0], up=(0, 1, 0), width=10, height=10)

    def test_square_pixels(self, lookat_camera):
        assert lookat_camera.fx == pytest.approx(lookat_camera.fy)

    def test_fov_sets_focal(self):
        cam = look_at([0, 0, -5], [0, 0, 0], width=100, height=100, fov_y_degrees=90.0)
        assert cam.fy == pytest.approx(50.0)
