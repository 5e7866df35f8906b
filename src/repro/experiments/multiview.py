"""Multi-view evaluation: Fig. 14 robustness across test views.

The paper simulates pre-trained models over the held-out test views of
each scene.  This driver renders an orbit trajectory's test split
(every-Nth convention from Table II), runs the cycle-level accelerator
on every view, and reports the per-view speedup distribution — checking
that GS-TG's advantage is a property of the workload, not of one lucky
camera pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.experiments.cache import ProjectionCache
from repro.hardware.config import GSTG_CONFIG
from repro.hardware.simulator import simulate_baseline, simulate_gstg
from repro.raster.renderer import BaselineRenderer
from repro.scenes.synthetic import load_scene
from repro.scenes.trajectory import make_view_set
from repro.tiles.boundary import BoundaryMethod


@dataclass(frozen=True)
class ViewRow:
    """Accelerator results for one test view.

    Attributes
    ----------
    scene:
        Scene name.
    view_index:
        Index within the orbit trajectory.
    baseline_ms, gstg_ms:
        Simulated frame times.
    lossless:
        Whether the two pipelines' images were bit-identical.
    """

    scene: str
    view_index: int
    baseline_ms: float
    gstg_ms: float
    lossless: bool

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.gstg_ms


def run_multiview(
    scene_name: str,
    num_views: int = 24,
    resolution_scale: float = 0.1,
    seed: int = 0,
    tile_size: int = 16,
    group_size: int = 64,
    workers: int = 1,
    render_store=None,
) -> "list[ViewRow]":
    """Evaluate both pipelines on a trajectory's test views.

    Both pipelines run through the batch :class:`RenderEngine` with a
    shared projection cache.  The default serial path renders view by
    view — each test view is projected exactly once (the baseline and
    GS-TG engines reuse it) and only one view's results are live at a
    time.  ``workers > 1`` instead renders each pipeline's pass over the
    views on the process-wide render pool
    (:func:`repro.engine.render_in_pool`), where each worker projects
    its view itself; the caller then needs an
    ``if __name__ == "__main__":`` guard (the forkserver re-imports
    ``__main__``).  Results are identical for any worker count.

    ``render_store`` optionally plugs a
    :class:`repro.serve.render_cache.SharedRenderCache` under both
    pipelines: every (view, pipeline) frame rendered here is published,
    and any frame already published — by an earlier ``run_multiview``
    call, a sweep harness or the render service, in any process — is
    served from shared memory instead of re-rendered.  Rows are
    identical with or without a store (images and stats round-trip
    bit-exactly).
    """
    scene = load_scene(scene_name, resolution_scale=resolution_scale, seed=seed)
    views = make_view_set(scene, num_views)
    # A couple of entries suffice: the two engines share each view's
    # projection within an iteration; older views are never revisited.
    projections = ProjectionCache(max_entries=4)
    baseline = RenderEngine(
        BaselineRenderer(tile_size, BoundaryMethod.ELLIPSE), cache=projections
    )
    gstg = RenderEngine(
        GSTGRenderer(tile_size, group_size, BoundaryMethod.ELLIPSE),
        cache=projections,
    )

    test_cameras = list(views.test_cameras)
    if workers > 1:
        pairs = zip(
            baseline.render_trajectory(
                scene.cloud, test_cameras, workers=workers,
                render_store=render_store,
            ).results,
            gstg.render_trajectory(
                scene.cloud, test_cameras, workers=workers,
                render_store=render_store,
            ).results,
        )
    else:
        pairs = (
            (
                baseline._render_stored(scene.cloud, camera, render_store),
                gstg._render_stored(scene.cloud, camera, render_store),
            )
            for camera in test_cameras
        )

    rows = []
    for index, (base, ours) in zip(views.test_indices, pairs):
        camera = views.cameras[index]
        w, h = camera.width, camera.height
        rows.append(
            ViewRow(
                scene=scene_name,
                view_index=index,
                baseline_ms=simulate_baseline(
                    base.stats, w, h, GSTG_CONFIG
                ).time_ms,
                gstg_ms=simulate_gstg(ours.stats, w, h, GSTG_CONFIG).time_ms,
                lossless=bool(np.array_equal(base.image, ours.image)),
            )
        )
    return rows
