"""``ProjectionCache``'s default bound: the last 32 views, no more."""

import numpy as np

import repro.experiments.cache as cache_module
from repro.experiments.cache import ProjectionCache
from repro.gaussians.camera import Camera


def _views(count):
    return [
        Camera(
            width=64, height=48, fx=60.0, fy=60.0,
            translation=np.array([0.01 * i, 0.0, 0.0]),
        )
        for i in range(count)
    ]


def test_default_keeps_the_last_32_views(small_cloud, monkeypatch):
    projected = []
    real_project = cache_module.project

    def counting_project(cloud, camera):
        projected.append(camera)
        return real_project(cloud, camera)

    monkeypatch.setattr(cache_module, "project", counting_project)
    cache = ProjectionCache()
    views = _views(33)
    for camera in views[:32]:
        cache.projection(small_cloud, camera)
    assert len(cache) == 32 and len(projected) == 32

    # An immediately repeated view hits; so does the oldest, still held.
    cache.projection(small_cloud, views[31])
    cache.projection(small_cloud, views[0])
    assert len(projected) == 32

    # The 33rd distinct view evicts the first, and only the first.
    cache.projection(small_cloud, views[32])
    assert len(cache) == 32
    cache.projection(small_cloud, views[32])
    cache.projection(small_cloud, views[1])
    assert len(projected) == 33
    cache.projection(small_cloud, views[0])
    assert projected[-1] is views[0] and len(projected) == 34
