"""Equivalence tests: hierarchical fast path vs the reference renderer.

The engine's vectorized two-level path must reproduce
``HierarchicalGSTGRenderer.render`` exactly — image bytes, every counter
and even the ``per_tile_alpha`` insertion order — because downstream
hardware simulation consumes those statistics as measured workloads.
"""

import numpy as np
import pytest

from repro.core.hierarchical import (
    HierarchicalGSTGRenderer,
    expand_group_pairs_fast,
)
from repro.core.grouping import GroupGeometry
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(17)
    camera = Camera(width=160, height=128, fx=140.0, fy=140.0)
    cloud = make_cloud(120, rng, spread=4.0)
    return camera, cloud


def assert_equivalent(reference, fast):
    """Full render-result equivalence: image plus all statistics."""
    assert np.array_equal(reference.image, fast.image)
    assert vars(reference.stats.preprocess) == vars(fast.stats.preprocess)
    assert vars(reference.stats.sort) == vars(fast.stats.sort)
    assert vars(reference.stats.raster) == vars(fast.stats.raster)
    assert reference.stats.bitmask_tests == fast.stats.bitmask_tests
    assert reference.stats.num_bitmasks == fast.stats.num_bitmasks
    assert reference.stats.bitmask_bits == fast.stats.bitmask_bits
    assert reference.stats.num_filter_checks == fast.stats.num_filter_checks
    # Same per-tile profile *and* same insertion (processing) order.
    assert (
        list(reference.stats.per_tile_alpha.items())
        == list(fast.stats.per_tile_alpha.items())
    )


class TestEquivalence:
    @pytest.mark.parametrize("method", list(BoundaryMethod))
    def test_methods(self, setup, method):
        camera, cloud = setup
        renderer = HierarchicalGSTGRenderer(16, 64, 128, method)
        assert_equivalent(
            renderer.render(cloud, camera),
            RenderEngine(renderer).render(cloud, camera),
        )

    @pytest.mark.parametrize("levels", [(16, 64, 128), (16, 64, 64), (8, 32, 64)])
    def test_level_triples(self, setup, levels):
        camera, cloud = setup
        renderer = HierarchicalGSTGRenderer(*levels, BoundaryMethod.ELLIPSE)
        assert_equivalent(
            renderer.render(cloud, camera),
            RenderEngine(renderer).render(cloud, camera),
        )

    def test_ragged_image(self, setup):
        _, cloud = setup
        camera = Camera(width=150, height=90, fx=140.0, fy=140.0)
        renderer = HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.ELLIPSE)
        assert_equivalent(
            renderer.render(cloud, camera),
            RenderEngine(renderer).render(cloud, camera),
        )

    def test_nothing_visible(self, setup):
        camera, _ = setup
        rng = np.random.default_rng(2)
        behind = make_cloud(12, rng, depth_range=(-20.0, -10.0))
        renderer = HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.ELLIPSE)
        reference = renderer.render(behind, camera)
        fast = RenderEngine(renderer).render(behind, camera)
        assert_equivalent(reference, fast)
        assert not fast.image.any()

    def test_vectorized_false_delegates(self, setup):
        camera, cloud = setup
        renderer = HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.OBB)
        engine = RenderEngine(renderer, vectorized=False)
        assert_equivalent(
            renderer.render(cloud, camera), engine.render(cloud, camera)
        )


class TestTrajectory:
    def test_engine_drives_hierarchical_renderer(self, setup):
        """render_trajectory accepts the hierarchical renderer through the
        Renderer protocol and stays bit-identical on the render pool."""
        camera, cloud = setup
        renderer = HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.ELLIPSE)
        cameras = [camera, Camera(width=160, height=128, fx=150.0, fy=150.0)]
        serial = RenderEngine(renderer).render_trajectory(cloud, cameras)
        pooled = RenderEngine(renderer).render_trajectory(
            cloud, cameras, workers=2
        )
        references = [renderer.render(cloud, cam) for cam in cameras]
        for reference, a, b in zip(references, serial.results, pooled.results):
            assert np.array_equal(reference.image, a.image)
            assert np.array_equal(reference.image, b.image)
        assert serial.stats.preprocess.num_pairs == sum(
            r.stats.preprocess.num_pairs for r in references
        )


class TestExpansion:
    def test_expand_matches_reference(self, setup):
        camera, cloud = setup
        renderer = HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.ELLIPSE)
        result = renderer.render(cloud, camera)
        super_geometry = GroupGeometry(
            width=camera.width, height=camera.height,
            tile_size=64, group_size=128,
        )
        from repro.core.bitmask import generate_bitmasks

        table = generate_bitmasks(
            result.projected, super_geometry, result.assignment,
            BoundaryMethod.ELLIPSE,
        )
        ref_g, ref_grp = HierarchicalGSTGRenderer._expand_group_pairs(
            table, super_geometry
        )
        fast_g, fast_grp = expand_group_pairs_fast(table, super_geometry)
        assert np.array_equal(ref_g, fast_g)
        assert np.array_equal(ref_grp, fast_grp)
        assert fast_g.dtype == np.int64 and fast_grp.dtype == np.int64

    def test_expand_empty_table(self):
        super_geometry = GroupGeometry(
            width=128, height=128, tile_size=64, group_size=128
        )

        class EmptyTable:
            gaussian_ids = np.empty(0, dtype=np.int64)
            group_ids = np.empty(0, dtype=np.int64)
            masks = np.empty(0, dtype=np.uint64)

        gaussians, groups = expand_group_pairs_fast(EmptyTable(), super_geometry)
        assert gaussians.size == 0 and groups.size == 0
