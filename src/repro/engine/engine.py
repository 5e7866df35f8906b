"""The batch render engine: vectorized frames, one render pool.

:class:`RenderEngine` wraps any :class:`repro.engine.protocol.Renderer`
and provides

* ``render`` — a vectorized single-frame path for the built-in
  renderers (fast tile identification, one segmented lexsort instead of
  per-tile sorts, fused batched alpha/blend; the two-level hierarchical
  renderer's path lives in :mod:`repro.engine.hierarchical`), falling
  back to the renderer's own ``render`` for unknown implementations.
  Output (image *and* stats) is bit-identical to the sequential path.
* ``render_trajectory`` — a multi-camera batch API, serial in-process
  (projections through :class:`repro.experiments.cache.ProjectionCache`)
  or, with ``workers > 1``, on the render pool, with aggregated
  :class:`repro.raster.stats.RenderStats` merging.
* :func:`render_in_pool` — single frames of any scene and renderer on
  one process-wide forkserver pool: the only pool in the process, shared
  by trajectories, ``run_multiview`` and the serving layer's misses.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.core.bitmask import generate_bitmasks_fast
from repro.core.grouping import GroupGeometry
from repro.core.hierarchical import HierarchicalGSTGRenderer, mask_bits_set
from repro.core.pipeline import GSTGRenderer
from repro.engine.batch import (
    blend_tiles_batched,
    segmented_depth_sort,
    sort_groups_batched,
)
from repro.engine.hierarchical import render_hierarchical_batched
from repro.engine.protocol import Renderer
from repro.experiments.cache import ProjectionCache
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians
from repro.raster.renderer import BaselineRenderer, RenderResult
from repro.raster.stats import RenderStats
from repro.tiles.fast import identify_tiles_fast
from repro.tiles.grid import TileGrid


@dataclass
class TrajectoryResult:
    """A batch of rendered views plus their aggregated statistics.

    Attributes
    ----------
    results:
        Per-camera :class:`RenderResult`, in camera order.
    stats:
        All per-frame counters merged (:meth:`RenderStats.merged`).
    """

    results: "list[RenderResult]"
    stats: RenderStats

    @property
    def images(self) -> "list[np.ndarray]":
        """The rendered frames, in camera order."""
        return [r.image for r in self.results]

    def __len__(self) -> int:
        return len(self.results)


def _render_baseline_batched(
    renderer: BaselineRenderer,
    cloud: GaussianCloud,
    camera: Camera,
    proj: ProjectedGaussians,
) -> RenderResult:
    """Vectorized ``BaselineRenderer.render`` (bit-identical output)."""
    grid = TileGrid(camera.width, camera.height, renderer.tile_size)
    assignment = identify_tiles_fast(proj, grid, renderer.method)

    stats = RenderStats.for_assignment(
        len(cloud), assignment, renderer.method.relative_test_cost
    )

    image = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
    tile_ids, tile_lists = segmented_depth_sort(proj, assignment, stats.sort)
    blend_tiles_batched(proj, grid, tile_ids, tile_lists, image, stats)

    return RenderResult(
        image=image, stats=stats, projected=proj, assignment=assignment
    )


def _render_gstg_batched(
    renderer: GSTGRenderer,
    cloud: GaussianCloud,
    camera: Camera,
    proj: ProjectedGaussians,
) -> RenderResult:
    """Vectorized ``GSTGRenderer.render`` (bit-identical output)."""
    geometry = GroupGeometry(
        width=camera.width,
        height=camera.height,
        tile_size=renderer.tile_size,
        group_size=renderer.group_size,
    )
    group_assignment = identify_tiles_fast(
        proj, geometry.group_grid, renderer.group_method
    )

    stats = RenderStats.for_assignment(
        len(cloud), group_assignment, renderer.group_method.relative_test_cost
    )

    table = generate_bitmasks_fast(
        proj, geometry, group_assignment, renderer.bitmask_method, stats
    )
    group_sort = sort_groups_batched(
        proj, table.gaussian_ids, table.group_ids, table.masks, stats.sort
    )

    # Filter each group's shared sorted list through the tile bitmasks,
    # all tiles of a group at once, then blend every tile in one batch.
    tile_order: "list[int]" = []
    tile_lists: "list[np.ndarray]" = []
    for pos, group_id in enumerate(group_sort.group_ids):
        sorted_gauss = group_sort.sorted_gaussians[pos]
        sorted_masks = group_sort.sorted_masks[pos]
        tiles = geometry.tiles_of_group(int(group_id))
        slots = geometry.slots_of_group(int(group_id))
        valid = mask_bits_set(sorted_masks, slots[None, :])
        stats.num_filter_checks += sorted_masks.shape[0] * tiles.shape[0]
        for ti in range(tiles.shape[0]):
            tile_gaussians = sorted_gauss[valid[:, ti]]
            if tile_gaussians.size == 0:
                continue
            tile_order.append(int(tiles[ti]))
            tile_lists.append(tile_gaussians)

    image = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
    blend_tiles_batched(
        proj, geometry.tile_grid, np.asarray(tile_order, dtype=np.int64),
        tile_lists, image, stats,
    )

    return RenderResult(
        image=image,
        stats=stats,
        projected=proj,
        assignment=group_assignment,
    )


def _render_view_task(
    renderer: Renderer, vectorized: bool, cloud: GaussianCloud, camera: Camera
) -> "tuple[int, RenderResult]":
    """Render-pool single-frame render (module-level for picklability).

    A worker serves every scene and renderer of its process, so nothing
    is pinned: the cloud travels with the task and a throwaway engine on
    a single-slot projection cache renders it.  Returns the worker's pid
    beside the worker contract's result: image and stats only, because
    the projection and assignment arrays are O(cloud)/O(pairs) per frame
    and shipping them through the result pipe would tax exactly the
    parallelism the pool exists for.
    """
    engine = RenderEngine(
        renderer, cache=ProjectionCache(max_entries=1), vectorized=vectorized
    )
    result = engine.render(cloud, camera)
    return os.getpid(), RenderResult(
        image=result.image, stats=result.stats, projected=None, assignment=None
    )


#: The process-wide render pool behind :func:`render_in_pool`.
_RENDER_POOL: "ProcessPoolExecutor | None" = None
_RENDER_POOL_LOCK = threading.Lock()


def _render_pool() -> ProcessPoolExecutor:
    """The render pool, created on first use.

    Forkserver, not fork: a worker forked while another thread of a
    server holds a lock inherits that lock held, forever.  The
    forkserver preloads this module, so a worker starts with the engine
    imported.  One pool per process, not per caller: fresh workers pay
    hundreds of milliseconds before their first frame.
    """
    global _RENDER_POOL
    with _RENDER_POOL_LOCK:
        if _RENDER_POOL is None:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload([__name__])
            _RENDER_POOL = ProcessPoolExecutor(
                len(os.sched_getaffinity(0)), mp_context=context
            )
        return _RENDER_POOL


def _shutdown_render_pool() -> None:
    """End the render pool's workers; the next miss starts a new pool."""
    global _RENDER_POOL
    with _RENDER_POOL_LOCK:
        pool, _RENDER_POOL = _RENDER_POOL, None
    if pool is not None:
        pool.shutdown()


def _forget_render_pool() -> None:
    """Fork hook: a child owns neither its parent's pool nor its lock."""
    global _RENDER_POOL, _RENDER_POOL_LOCK
    _RENDER_POOL = None
    _RENDER_POOL_LOCK = threading.Lock()


atexit.register(_shutdown_render_pool)
os.register_at_fork(after_in_child=_forget_render_pool)


def render_in_pool(
    renderer: Renderer,
    vectorized: bool,
    cloud: GaussianCloud,
    cameras: "list[Camera] | tuple[Camera, ...]",
) -> "list[tuple[int, RenderResult]]":
    """Render ``cameras`` of ``cloud`` on the process-wide render pool.

    Blocks until every frame is back and returns ``(worker pid,
    result)`` pairs in camera order.  The pool has one worker per CPU
    this process may run on, is shared by every caller in the process
    whatever its scene or renderer, and is shut down at interpreter
    exit.  Results follow the worker contract (``projected`` and
    ``assignment`` are ``None``); images and stats are bit-identical to
    :meth:`RenderEngine.render`.  A pool whose worker died is replaced
    on the next call.
    """
    global _RENDER_POOL
    pool = _render_pool()
    futures = [
        pool.submit(_render_view_task, renderer, vectorized, cloud, camera)
        for camera in cameras
    ]
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool:
        with _RENDER_POOL_LOCK:
            if _RENDER_POOL is pool:
                _RENDER_POOL = None
        raise


class RenderEngine:
    """Batched, cache-aware front end over a single-camera renderer.

    Parameters
    ----------
    renderer:
        Any object satisfying the :class:`Renderer` protocol.  The two
        built-in renderers get the vectorized fast path; others fall back
        to their own ``render``.
    cache:
        Optional shared :class:`ProjectionCache`.  Pass the same cache to
        several engines (e.g. a baseline and a GS-TG engine comparing the
        same views) to project each ``(cloud, camera)`` pair exactly once.
    vectorized:
        When False, always delegate to ``renderer.render`` (useful for
        A/B-testing the fast path; output is identical either way).
    """

    def __init__(
        self,
        renderer: Renderer,
        *,
        cache: "ProjectionCache | None" = None,
        vectorized: bool = True,
    ) -> None:
        self.renderer = renderer
        self._owns_cache = cache is None
        self.cache = ProjectionCache() if cache is None else cache
        self.vectorized = vectorized

    def render(self, cloud: GaussianCloud, camera: Camera) -> RenderResult:
        """Render one frame; bit-identical to ``renderer.render``."""
        if not self.vectorized:
            return self.renderer.render(cloud, camera)
        # Exact-type checks: a subclass may override render(), and the
        # documented contract is that unknown renderers (subclasses
        # included) run their own render rather than the base fast path.
        if type(self.renderer) is BaselineRenderer:
            proj = self.cache.projection(cloud, camera)
            return _render_baseline_batched(self.renderer, cloud, camera, proj)
        if type(self.renderer) is GSTGRenderer:
            proj = self.cache.projection(cloud, camera)
            return _render_gstg_batched(self.renderer, cloud, camera, proj)
        if type(self.renderer) is HierarchicalGSTGRenderer:
            proj = self.cache.projection(cloud, camera)
            return render_hierarchical_batched(self.renderer, cloud, camera, proj)
        return self.renderer.render(cloud, camera)

    def _render_stored(
        self, cloud: GaussianCloud, camera: Camera, store
    ) -> RenderResult:
        """Render through an optional shared render store.

        ``store`` is a :class:`repro.serve.render_cache.SharedRenderCache`
        (duck-typed — this module must not import the serving layer): a
        hit serves the shared frame, a miss renders and publishes.  With
        ``store=None`` this is exactly :meth:`render`.
        """
        if store is None:
            return self.render(cloud, camera)
        hit = store.get(cloud, camera, self.renderer)
        if hit is not None:
            return hit
        result = self.render(cloud, camera)
        store.put(cloud, camera, self.renderer, result)
        return result

    def render_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        workers: int = 1,
        render_store=None,
    ) -> TrajectoryResult:
        """Render a multi-camera batch, serially or on the render pool.

        Parameters
        ----------
        cloud:
            The scene, shared by every view.
        cameras:
            Views to render, in order.
        workers:
            ``<= 1`` (or at most one camera) renders serially
            in-process, through a caller-supplied ``cache`` when one was
            given; an engine-owned default cache is replaced by a
            single-slot one for the trajectory (distinct orbit cameras
            never re-hit, so retaining every projection would only cost
            memory).  ``> 1`` renders on the process-wide forkserver
            pool of :func:`render_in_pool`, which has one worker per CPU
            whatever the value.  Forkserver workers re-import
            ``__main__``, so a script that passes ``workers > 1`` needs
            an ``if __name__ == "__main__":`` guard.  Images and stats
            are identical either way; pooled frames come back with
            ``projected``/``assignment`` set to ``None`` (the worker
            contract: those arrays are O(cloud) per frame and no
            trajectory consumer reads them).
        render_store:
            Optional :class:`repro.serve.render_cache.SharedRenderCache`:
            a view any process already rendered and published is served
            from shared memory instead of re-rendered, and every frame
            this trajectory renders is published back.  Store-served
            frames are bit-identical (image and stats) but carry
            ``projected``/``assignment`` as ``None``.  Lookups and
            publishes happen in this process; only misses reach the
            pool.
        """
        cameras = list(cameras)
        if workers > 1 and len(cameras) > 1:
            results = self._render_pooled(cloud, cameras, render_store)
        else:
            # A caller-supplied cache is respected: it exists to share
            # projections across engines.
            runner = self
            if self._owns_cache:
                runner = RenderEngine(
                    self.renderer,
                    cache=ProjectionCache(max_entries=1),
                    vectorized=self.vectorized,
                )
            results = [
                runner._render_stored(cloud, camera, render_store)
                for camera in cameras
            ]
        return TrajectoryResult(
            results=results,
            stats=RenderStats.merged([r.stats for r in results]),
        )

    def _render_pooled(
        self, cloud: GaussianCloud, cameras: "list[Camera]", store
    ) -> "list[RenderResult]":
        """Render the store's misses among ``cameras`` on the render pool
        and publish them; a batch the store fully serves starts no pool."""
        hits = [
            None if store is None else store.get(cloud, camera, self.renderer)
            for camera in cameras
        ]
        misses = [camera for camera, hit in zip(cameras, hits) if hit is None]
        rendered = iter(
            render_in_pool(self.renderer, self.vectorized, cloud, misses)
            if misses
            else ()
        )
        results = []
        for camera, hit in zip(cameras, hits):
            if hit is None:
                _, hit = next(rendered)
                if store is not None:
                    store.put(cloud, camera, self.renderer, hit)
            results.append(hit)
        return results
