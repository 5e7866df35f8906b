"""Camera trajectories and the paper's train/test split convention.

Generates deterministic orbit paths around each synthetic scene and
applies the Mip-NeRF360-style split the paper uses (Section VI-A): every
``test_split_every``-th view is a test view (8 for T&T / Deep Blending,
64 for Mill-19, 128 for UrbanScene3D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaussians.camera import Camera, look_at
from repro.scenes.datasets import SceneSpec
from repro.scenes.synthetic import Scene


@dataclass(frozen=True)
class ViewSet:
    """A camera trajectory with its train/test split.

    Attributes
    ----------
    cameras:
        All views, in path order.
    test_indices:
        Indices of test views (every Nth, per the paper's convention).
    """

    cameras: "tuple[Camera, ...]"
    test_indices: "tuple[int, ...]"

    @property
    def test_cameras(self) -> "tuple[Camera, ...]":
        """The held-out evaluation views."""
        return tuple(self.cameras[i] for i in self.test_indices)


def orbit_cameras(
    scene: Scene,
    num_views: int,
    *,
    elevation: float = 0.18,
    radius_factor: float = 1.0,
) -> "tuple[Camera, ...]":
    """A deterministic circular orbit around the scene's look-at target.

    Parameters
    ----------
    scene:
        The synthetic scene (provides extent, resolution and scene type).
    num_views:
        Number of evenly spaced views.
    elevation:
        Camera height as a fraction of the scene extent.
    radius_factor:
        Orbit radius relative to the default viewing distance.
    """
    if num_views < 1:
        raise ValueError("num_views must be >= 1")
    spec = scene.spec
    e = spec.world_extent
    if spec.scene_type == "indoor":
        radius = 0.55 * e * radius_factor
        height = -0.1 * e + elevation * e
        target = np.array([0.0, -0.15 * e, 0.0])
    else:
        radius = 1.1 * e * radius_factor
        height = 0.25 * e + elevation * e
        target = np.array([0.0, 0.1 * e, 0.0])

    cameras = []
    for i in range(num_views):
        angle = 2.0 * np.pi * i / num_views
        eye = np.array(
            [radius * np.sin(angle), height, radius * np.cos(angle)]
        )
        cameras.append(
            look_at(
                eye,
                target,
                width=scene.camera.width,
                height=scene.camera.height,
                fov_y_degrees=55.0,
                near=0.02 * e,
                far=10.0 * e,
            )
        )
    return tuple(cameras)


def split_views(cameras: "tuple[Camera, ...]", spec: SceneSpec) -> ViewSet:
    """Apply the paper's every-Nth test split to a trajectory."""
    n = spec.test_split_every
    test = tuple(i for i in range(len(cameras)) if i % n == 0)
    return ViewSet(cameras=tuple(cameras), test_indices=test)


def make_view_set(scene: Scene, num_views: int) -> ViewSet:
    """Orbit trajectory + paper split in one call."""
    return split_views(orbit_cameras(scene, num_views), scene.spec)
