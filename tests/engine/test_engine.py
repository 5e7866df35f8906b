"""Engine-level tests: bit-identity, losslessness, trajectories, caching.

The two load-bearing properties:

* **Batch == sequential** — for either renderer type, the engine's
  vectorized path produces exactly the image *and* statistics of the
  renderer's own per-tile loop (property-tested over random scenes).
* **Losslessness through the engine** — a containment-safe GS-TG
  configuration stays pixel-identical to the baseline when both run
  through the batch path, i.e. the paper's central claim survives the
  vectorization and the trajectory API.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import is_lossless_combination
from repro.core.hierarchical import HierarchicalGSTGRenderer
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine, TrajectoryResult, render_in_pool
from repro.experiments.cache import ProjectionCache, camera_key
from repro.gaussians.camera import Camera, look_at
from repro.raster.renderer import BaselineRenderer
from repro.raster.stats import RenderStats
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


def _assert_same_result(batch, sequential):
    assert np.array_equal(batch.image, sequential.image)
    assert dataclasses.asdict(batch.stats) == dataclasses.asdict(sequential.stats)


class TestBatchMatchesSequential:
    @pytest.mark.parametrize("method", list(BoundaryMethod))
    def test_baseline(self, small_cloud, camera, method):
        renderer = BaselineRenderer(16, method)
        _assert_same_result(
            RenderEngine(renderer).render(small_cloud, camera),
            renderer.render(small_cloud, camera),
        )

    @pytest.mark.parametrize("method", list(BoundaryMethod))
    def test_gstg(self, small_cloud, camera, method):
        renderer = GSTGRenderer(16, 64, method)
        _assert_same_result(
            RenderEngine(renderer).render(small_cloud, camera),
            renderer.render(small_cloud, camera),
        )

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(["baseline", "gstg"]),
        st.sampled_from(list(BoundaryMethod)),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_bit_identical(self, seed, pipeline, method):
        rng = np.random.default_rng(seed)
        cloud = make_cloud(
            40, rng, depth_range=(0.5, 30.0), spread=6.0, scale_range=(0.01, 1.0)
        )
        camera = Camera(width=96, height=64, fx=80.0, fy=80.0)
        if pipeline == "baseline":
            renderer = BaselineRenderer(16, method)
        else:
            renderer = GSTGRenderer(16, 32, method)
        _assert_same_result(
            RenderEngine(renderer).render(cloud, camera),
            renderer.render(cloud, camera),
        )

    def test_vectorized_false_delegates(self, small_cloud, camera):
        renderer = BaselineRenderer(16, BoundaryMethod.ELLIPSE)
        engine = RenderEngine(renderer, vectorized=False)
        _assert_same_result(
            engine.render(small_cloud, camera),
            renderer.render(small_cloud, camera),
        )

    def test_unknown_renderer_falls_back(self, small_cloud, camera):
        class TracingRenderer:
            tile_size = 16

            def __init__(self):
                self.calls = 0
                self._inner = BaselineRenderer(16, BoundaryMethod.AABB)

            def render(self, cloud, cam):
                self.calls += 1
                return self._inner.render(cloud, cam)

        tracer = TracingRenderer()
        result = RenderEngine(tracer).render(small_cloud, camera)
        assert tracer.calls == 1
        assert result.image.shape == (camera.height, camera.width, 3)


class TestLosslessThroughEngine:
    def test_golden_containment_safe_combo(self, small_cloud, camera):
        """GS-TG with AABB groups + ELLIPSE bitmasks == ELLIPSE baseline."""
        group_method = BoundaryMethod.AABB
        bitmask_method = BoundaryMethod.ELLIPSE
        assert is_lossless_combination(group_method, bitmask_method)

        projections = ProjectionCache()
        baseline = RenderEngine(
            BaselineRenderer(16, bitmask_method), cache=projections
        )
        gstg = RenderEngine(
            GSTGRenderer(16, 64, group_method, bitmask_method),
            cache=projections,
        )
        base = baseline.render(small_cloud, camera)
        ours = gstg.render(small_cloud, camera)
        assert np.array_equal(base.image, ours.image)

    def test_paper_design_point(self, small_cloud, camera):
        """The paper's 16+64 ellipse/ellipse combo, engine vs baseline."""
        baseline = RenderEngine(BaselineRenderer(16, BoundaryMethod.ELLIPSE))
        gstg = RenderEngine(GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE))
        assert np.array_equal(
            baseline.render(small_cloud, camera).image,
            gstg.render(small_cloud, camera).image,
        )


def _orbit(n):
    return [
        look_at(
            eye=[6.0 * np.sin(2 * np.pi * i / n), 2.0,
                 6.0 * np.cos(2 * np.pi * i / n) + 7.0],
            target=[0.0, 0.0, 7.0],
            width=64,
            height=48,
            fov_y_degrees=55.0,
        )
        for i in range(n)
    ]


class TestRenderTrajectory:
    def test_matches_sequential_per_camera(self, small_cloud):
        renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        cameras = _orbit(4)
        trajectory = RenderEngine(renderer).render_trajectory(
            small_cloud, cameras
        )
        assert isinstance(trajectory, TrajectoryResult)
        assert len(trajectory) == 4
        for camera, result in zip(cameras, trajectory.results):
            sequential = renderer.render(small_cloud, camera)
            assert np.array_equal(result.image, sequential.image)

    def test_workers_bit_identical(self, small_cloud):
        renderer = BaselineRenderer(16, BoundaryMethod.ELLIPSE)
        cameras = _orbit(4)
        engine = RenderEngine(renderer)
        serial = engine.render_trajectory(small_cloud, cameras)
        parallel = engine.render_trajectory(small_cloud, cameras, workers=2)
        for a, b in zip(serial.results, parallel.results):
            assert np.array_equal(a.image, b.image)
        assert dataclasses.asdict(serial.stats) == dataclasses.asdict(
            parallel.stats
        )

    def test_merged_stats_are_sums(self, small_cloud):
        engine = RenderEngine(BaselineRenderer(16, BoundaryMethod.AABB))
        cameras = _orbit(3)
        trajectory = engine.render_trajectory(small_cloud, cameras)
        merged = trajectory.stats
        frames = [r.stats for r in trajectory.results]
        assert merged.preprocess.num_pairs == sum(
            s.preprocess.num_pairs for s in frames
        )
        assert merged.sort.num_keys == sum(s.sort.num_keys for s in frames)
        assert merged.raster.num_alpha_computations == sum(
            s.raster.num_alpha_computations for s in frames
        )
        assert merged.sort.max_sort_length == max(
            s.sort.max_sort_length for s in frames
        )

    def test_empty_camera_list(self, small_cloud):
        engine = RenderEngine(BaselineRenderer(16, BoundaryMethod.AABB))
        trajectory = engine.render_trajectory(small_cloud, [])
        assert len(trajectory) == 0
        assert trajectory.stats == RenderStats()


class TestRenderPool:
    """The process-wide render pool behind the serving layer's misses."""

    @pytest.mark.parametrize(
        "renderer",
        [
            GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE),
            BaselineRenderer(16, BoundaryMethod.ELLIPSE),
            HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.ELLIPSE),
        ],
        ids=["gstg", "baseline", "hierarchical"],
    )
    def test_pool_frames_equal_engine_render(self, small_cloud, renderer):
        cameras = _orbit(3)
        engine = RenderEngine(renderer)
        pooled = render_in_pool(renderer, True, small_cloud, cameras)
        assert len(pooled) == len(cameras)
        for (worker, result), camera in zip(pooled, cameras):
            reference = engine.render(small_cloud, camera)
            assert worker != os.getpid()
            assert result.image.tobytes() == reference.image.tobytes()
            _assert_same_result(result, reference)
            assert result.projected is None and result.assignment is None


class TestProjectionCache:
    def test_shared_cache_projects_once(self, small_cloud, camera, monkeypatch):
        import repro.experiments.cache as cache_module

        calls = {"n": 0}
        real_project = cache_module.project

        def counting_project(cloud, cam):
            calls["n"] += 1
            return real_project(cloud, cam)

        monkeypatch.setattr(cache_module, "project", counting_project)
        projections = ProjectionCache()
        baseline = RenderEngine(
            BaselineRenderer(16, BoundaryMethod.ELLIPSE), cache=projections
        )
        gstg = RenderEngine(
            GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE), cache=projections
        )
        baseline.render(small_cloud, camera)
        gstg.render(small_cloud, camera)
        baseline.render(small_cloud, camera)
        assert calls["n"] == 1
        assert len(projections) == 1

    def test_camera_key_distinguishes_poses(self):
        base = Camera(width=64, height=48, fx=60.0, fy=60.0)
        same = Camera(width=64, height=48, fx=60.0, fy=60.0)
        moved = Camera(
            width=64, height=48, fx=60.0, fy=60.0,
            translation=np.array([0.0, 0.0, 1.0]),
        )
        assert camera_key(base) == camera_key(same)
        assert camera_key(base) != camera_key(moved)

    def test_distinct_clouds_get_distinct_entries(self, rng, camera):
        cache = ProjectionCache()
        one = make_cloud(20, rng)
        two = make_cloud(20, rng)
        cache.projection(one, camera)
        cache.projection(two, camera)
        assert len(cache) == 2

    def test_eviction_bound(self, small_cloud):
        cache = ProjectionCache(max_entries=2)
        cameras = _orbit(4)
        for camera in cameras:
            cache.projection(small_cloud, camera)
        assert len(cache) == 2
        # Most recent entries survive; evicted ones recompute correctly.
        recomputed = cache.projection(small_cloud, cameras[0])
        assert np.array_equal(
            recomputed.means2d,
            ProjectionCache().projection(small_cloud, cameras[0]).means2d,
        )

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ProjectionCache(max_entries=0)
