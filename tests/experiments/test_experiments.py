"""Tests for the experiment drivers, run at a reduced scale.

These validate the *plumbing* (row shapes, normalisations, caching) and
the cheap paper trends; the full-scale shape reproduction lives in the
benchmark harnesses.
"""

import numpy as np
import pytest

from repro.experiments import (
    RenderCache,
    run_fig3,
    run_fig11,
    run_fig12,
    run_fig13,
    run_hardware_eval,
    run_profiling_sweep,
)
from repro.experiments.hardware_eval import geomean
from repro.tiles.boundary import BoundaryMethod
from repro.tiles.grid import TileGrid
from repro.tiles.identify import identify_tiles


@pytest.fixture(scope="module")
def cache():
    """A small, shared cache: tiny scenes keep the module fast."""
    return RenderCache(resolution_scale=0.06, seed=0)


class TestRenderCache:
    def test_scene_memoised(self, cache):
        assert cache.scene("playroom") is cache.scene("playroom")

    def test_assignment_memoised(self, cache):
        a = cache.assignment("playroom", 16, BoundaryMethod.AABB)
        b = cache.assignment("playroom", 16, "aabb")
        assert a is b

    @pytest.mark.parametrize("method", list(BoundaryMethod))
    def test_assignment_equals_reference_identify(self, cache, method):
        """The vectorised identification the cache uses gives the
        per-Gaussian reference's pairs, in its order, with its counters."""
        scene = cache.scene("playroom")
        grid = TileGrid(scene.camera.width, scene.camera.height, 16)
        reference = identify_tiles(cache.projection("playroom"), grid, method)
        got = cache.assignment("playroom", 16, method)
        np.testing.assert_array_equal(got.gaussian_ids, reference.gaussian_ids)
        np.testing.assert_array_equal(got.tile_ids, reference.tile_ids)
        assert got.num_gaussians == reference.num_gaussians
        assert got.num_candidate_tiles == reference.num_candidate_tiles
        assert got.num_boundary_tests == reference.num_boundary_tests

    def test_baseline_render_memoised(self, cache):
        a = cache.baseline_render("playroom", 16, BoundaryMethod.AABB)
        assert a is cache.baseline_render("playroom", 16, BoundaryMethod.AABB)

    def test_distinct_configs_not_conflated(self, cache):
        a = cache.assignment("playroom", 16, BoundaryMethod.AABB)
        b = cache.assignment("playroom", 32, BoundaryMethod.AABB)
        assert a is not b


class TestProfilingSweep:
    def test_row_grid_complete(self, cache):
        rows = run_profiling_sweep(cache, scenes=("playroom",))
        # 2 methods x 4 tile sizes.
        assert len(rows) == 8

    def test_trends(self, cache):
        rows = run_profiling_sweep(cache, scenes=("playroom",),
                                   methods=(BoundaryMethod.AABB,))
        by_ts = {r.tile_size: r for r in rows}
        assert by_ts[8].tiles_per_gaussian > by_ts[64].tiles_per_gaussian
        assert by_ts[8].shared_percent > by_ts[64].shared_percent
        assert by_ts[8].gaussians_per_pixel < by_ts[64].gaussians_per_pixel


class TestFig3:
    def test_stage_trends(self, cache):
        rows = run_fig3(cache, scenes=("playroom",),
                        methods=(BoundaryMethod.ELLIPSE,))
        by_ts = {r.tile_size: r for r in rows}
        assert by_ts[8].sorting_ms > by_ts[64].sorting_ms
        assert by_ts[8].preprocessing_ms > by_ts[64].preprocessing_ms
        assert by_ts[8].rasterization_ms < by_ts[64].rasterization_ms

    def test_total_is_sum(self, cache):
        rows = run_fig3(cache, scenes=("playroom",), methods=(BoundaryMethod.AABB,),
                        tile_sizes=(16,))
        r = rows[0]
        assert r.total_ms == pytest.approx(
            r.preprocessing_ms + r.sorting_ms + r.rasterization_ms
        )


class TestFig11:
    def test_labels_and_reference(self, cache):
        rows = run_fig11(cache, scenes=("playroom",), combos=((16, 32), (16, 64)))
        assert [r.label for r in rows] == ["16+32", "16+64"]
        # Same scene -> same reference baseline.
        assert rows[0].baseline_ms == rows[1].baseline_ms
        for r in rows:
            assert r.speedup == pytest.approx(r.baseline_ms / r.gstg_ms)


class TestFig12:
    def test_rows_complete_and_normalised(self, cache):
        rows = run_fig12(cache, scenes=("playroom",))
        baselines = [r for r in rows if r.kind == "baseline"]
        ours = [r for r in rows if r.kind == "gstg"]
        assert len(baselines) == 3
        assert len(ours) == 9
        aabb = next(r for r in baselines if r.group_method == "aabb")
        assert aabb.speedup_vs_aabb == pytest.approx(1.0)

    def test_same_boundary_gstg_wins(self, cache):
        """Paper finding (2): at matched boundaries GS-TG beats baseline."""
        rows = run_fig12(cache, scenes=("playroom",))
        for method in ("aabb", "obb", "ellipse"):
            base = next(
                r for r in rows if r.kind == "baseline" and r.group_method == method
            )
            ours = next(
                r
                for r in rows
                if r.kind == "gstg"
                and r.group_method == method
                and r.bitmask_method == method
            )
            assert ours.speedup_vs_aabb > base.speedup_vs_aabb


class TestFig13:
    def test_rows(self, cache):
        rows = run_fig13(cache, scene="playroom")
        assert [r.config for r in rows] == ["16x16", "32x32", "64x64", "ours"]

    def test_gstg_sort_matches_64(self, cache):
        rows = {r.config: r for r in run_fig13(cache, scene="playroom")}
        assert rows["ours"].sorting_ms == pytest.approx(rows["64x64"].sorting_ms, rel=0.35)

    def test_gstg_raster_matches_16(self, cache):
        rows = {r.config: r for r in run_fig13(cache, scene="playroom")}
        assert rows["ours"].rasterization_ms == pytest.approx(
            rows["16x16"].rasterization_ms, rel=0.1
        )


class TestHardwareEval:
    def test_row_fields(self, cache):
        rows = run_hardware_eval(cache, scenes=("playroom",))
        r = rows[0]
        assert r.gstg_speedup == pytest.approx(r.baseline_ms / r.gstg_ms)
        assert r.gstg_efficiency == pytest.approx(r.baseline_uj / r.gstg_uj)

    def test_gstg_at_least_baseline(self, cache):
        rows = run_hardware_eval(cache, scenes=("playroom", "drjohnson"))
        for r in rows:
            assert r.gstg_speedup >= 0.99
            assert r.gstg_efficiency > 1.0


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([])
