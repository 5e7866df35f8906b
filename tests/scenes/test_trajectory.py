"""Unit tests for camera trajectories and the train/test split."""

import numpy as np
import pytest

from repro.gaussians.projection import project
from repro.scenes.synthetic import load_scene
from repro.scenes.trajectory import make_view_set, orbit_cameras, split_views


@pytest.fixture(scope="module")
def scene():
    return load_scene("truck", resolution_scale=0.07, num_gaussians=600, seed=2)


class TestOrbit:
    def test_view_count(self, scene):
        assert len(orbit_cameras(scene, 12)) == 12

    def test_resolution_matches_scene(self, scene):
        cams = orbit_cameras(scene, 4)
        for cam in cams:
            assert cam.width == scene.camera.width
            assert cam.height == scene.camera.height

    def test_views_distinct(self, scene):
        cams = orbit_cameras(scene, 8)
        positions = np.stack([c.position for c in cams])
        assert len(np.unique(np.round(positions, 6), axis=0)) == 8

    def test_constant_orbit_radius(self, scene):
        cams = orbit_cameras(scene, 8)
        radii = [np.linalg.norm(c.position[[0, 2]]) for c in cams]
        assert np.allclose(radii, radii[0])

    def test_every_view_sees_scene(self, scene):
        for cam in orbit_cameras(scene, 6):
            proj = project(scene.cloud, cam)
            assert len(proj) > 0.15 * len(scene.cloud)

    def test_invalid_count_rejected(self, scene):
        with pytest.raises(ValueError):
            orbit_cameras(scene, 0)

    def test_deterministic(self, scene):
        a = orbit_cameras(scene, 5)
        b = orbit_cameras(scene, 5)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.rotation, cb.rotation)
            assert np.array_equal(ca.translation, cb.translation)


class TestSplit:
    def test_every_nth_is_test(self, scene):
        cams = orbit_cameras(scene, 24)
        views = split_views(cams, scene.spec)
        # truck: every 8th image is a test view.
        assert views.test_indices == (0, 8, 16)

    def test_train_test_partition(self, scene):
        views = make_view_set(scene, 20)
        train = [i for i in range(20) if i not in views.test_indices]
        combined = sorted(train + list(views.test_indices))
        assert combined == list(range(20))

    def test_test_cameras_accessor(self, scene):
        views = make_view_set(scene, 16)
        assert len(views.test_cameras) == len(views.test_indices)

    def test_mill19_convention(self):
        scene = load_scene("rubble", resolution_scale=0.05, num_gaussians=300)
        views = make_view_set(scene, 130)
        # rubble: every 64th image.
        assert views.test_indices == (0, 64, 128)
