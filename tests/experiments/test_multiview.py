"""Tests for the multi-view evaluation driver."""

from repro.experiments.multiview import run_multiview


class TestMultiview:
    def test_rows_follow_split(self):
        rows = run_multiview(
            "playroom", num_views=16, resolution_scale=0.05, seed=1
        )
        # playroom: every 8th view -> indices 0 and 8.
        assert [r.view_index for r in rows] == [0, 8]

    def test_all_views_lossless(self):
        rows = run_multiview(
            "playroom", num_views=8, resolution_scale=0.05, seed=1
        )
        assert all(r.lossless for r in rows)

    def test_speedup_field(self):
        rows = run_multiview(
            "playroom", num_views=8, resolution_scale=0.05, seed=1
        )
        for r in rows:
            assert r.speedup == r.baseline_ms / r.gstg_ms
            assert r.speedup > 0

    def test_workers_identical_rows(self):
        """The render-pool path reproduces the serial rows exactly."""
        serial = run_multiview(
            "playroom", num_views=16, resolution_scale=0.05, seed=1
        )
        pooled = run_multiview(
            "playroom", num_views=16, resolution_scale=0.05, seed=1, workers=2
        )
        assert serial == pooled
