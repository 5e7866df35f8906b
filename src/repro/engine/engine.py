"""The batch render engine: vectorized frames, parallel trajectories.

:class:`RenderEngine` wraps any :class:`repro.engine.protocol.Renderer`
and provides

* ``render`` — a vectorized single-frame path for the built-in
  renderers (fast tile identification, one segmented lexsort instead of
  per-tile sorts, fused batched alpha/blend; the two-level hierarchical
  renderer's path lives in :mod:`repro.engine.hierarchical`), falling
  back to the renderer's own ``render`` for unknown implementations.
  Output (image *and* stats) is bit-identical to the sequential path.
* ``render_trajectory`` — a multi-camera batch API with a
  ``concurrent.futures`` worker pool, shared projection caching keyed on
  ``(cloud, camera)`` via :class:`repro.experiments.cache.ProjectionCache`,
  and aggregated :class:`repro.raster.stats.RenderStats` merging.
* :func:`render_in_pool` — single frames of any scene and renderer on
  one process-wide forkserver pool, the serving layer's miss path.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
from repro.experiments.shm_cache import SharedProjectionCache, cloud_fingerprint
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


#: Worker-process state set once by the pool initializer: the scene and
#: a worker-local engine are shipped per *worker*, not per camera.
_WORKER_STATE: "tuple[RenderEngine, GaussianCloud, object | None] | None" = None


def _worker_init(
    renderer: Renderer,
    vectorized: bool,
    cloud: GaussianCloud,
    shared_cache: "SharedProjectionCache | None" = None,
    render_store=None,
) -> None:
    """Pool initializer: build the worker's engine and pin the cloud.

    Trajectory cameras are all distinct, so a worker's *private*
    projection cache can never hit — a single-slot cache stops it from
    retaining every frame's per-Gaussian arrays for the pool's lifetime.
    A :class:`SharedProjectionCache`, by contrast, is backed by shared
    memory the whole pool (and the parent) sees, so workers reuse any
    projection another process already computed instead of re-projecting
    the cloud per process.
    """
    global _WORKER_STATE
    cache = (
        shared_cache
        if shared_cache is not None
        else ProjectionCache(max_entries=1)
    )
    engine = RenderEngine(renderer, cache=cache, vectorized=vectorized)
    _WORKER_STATE = (engine, cloud, render_store)


def _render_task(camera: Camera) -> RenderResult:
    """Worker-side single-frame render (module-level for picklability).

    Only the image and the stats travel back to the parent: the
    projection and assignment arrays are O(cloud)/O(pairs) per frame and
    no trajectory consumer reads them, so shipping them through the
    result pipe would tax exactly the parallelism the pool exists for.
    A shared render store short-circuits the whole frame: a view any
    process already rendered is served from its shared segment.
    """
    assert _WORKER_STATE is not None, "worker pool not initialised"
    engine, cloud, render_store = _WORKER_STATE
    result = engine._render_stored(cloud, camera, render_store)
    return RenderResult(
        image=result.image, stats=result.stats, projected=None, assignment=None
    )


def _render_view_task(
    renderer: Renderer, vectorized: bool, cloud: GaussianCloud, camera: Camera
) -> "tuple[int, RenderResult]":
    """Render-pool single-frame render (module-level for picklability).

    A worker serves every scene and renderer of its process, so nothing
    is pinned: the cloud travels with the task and a throwaway engine on
    a single-slot projection cache renders it.  Returns the worker's pid
    beside the worker contract's result (image and stats only, as
    :func:`_render_task`).
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


class TrajectoryPool:
    """A reusable worker pool pinned to one ``(renderer, cloud)`` pair.

    ``render_trajectory`` builds and tears down its pool per call, which
    is the right shape for one big batch but wrong for a caller
    rendering many small batches of one scene: pool startup (process
    spawn/fork + initializer) would dominate every batch.  A
    ``TrajectoryPool`` pays that cost once — create it via
    :meth:`RenderEngine.open_pool`, pass it to any number of
    ``render_trajectory(pool=...)`` calls (or call :meth:`map` directly),
    and :meth:`close` it when the scene's traffic ends.

    The pool is pinned to the cloud it was opened with (worker processes
    hold it in their initializer state); rendering a different cloud
    through it raises.  Clouds are compared by content fingerprint, so
    any equal-parameter cloud object is accepted.

    Frames are bit-identical to :meth:`RenderEngine.render` for every
    executor and worker count — the pool only changes *where* a frame is
    rendered.
    """

    def __init__(
        self,
        engine: "RenderEngine",
        cloud: GaussianCloud,
        workers: int,
        *,
        executor: str = "process",
        render_store=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        self.engine = engine
        self.workers = workers
        self.executor = executor
        self.render_store = render_store
        self.cloud_fingerprint = cloud_fingerprint(cloud)
        self._closed = False
        # Serial/thread execution renders through a single-slot-cache
        # runner exactly as render_trajectory does (distinct trajectory
        # cameras never re-hit, so retaining projections only costs
        # memory); a caller-supplied cache is respected.
        if engine._owns_cache:
            self._runner = RenderEngine(
                engine.renderer,
                cache=ProjectionCache(max_entries=1),
                vectorized=engine.vectorized,
            )
        else:
            self._runner = engine
        if workers <= 1:
            self._pool = None
        elif executor == "thread":
            self._pool = ThreadPoolExecutor(max_workers=workers)
        else:
            context = (
                multiprocessing.get_context("fork")
                if multiprocessing.get_start_method() == "fork"
                else None
            )
            shared_cache = (
                engine.cache
                if isinstance(engine.cache, SharedProjectionCache)
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(
                    engine.renderer,
                    engine.vectorized,
                    cloud,
                    shared_cache,
                    render_store,
                ),
            )

    def map(
        self, cloud: GaussianCloud, cameras: "list[Camera] | tuple[Camera, ...]"
    ) -> "list[RenderResult]":
        """Render ``cameras`` of the pinned cloud across the pool."""
        if self._closed:
            raise RuntimeError("TrajectoryPool is closed")
        if cloud_fingerprint(cloud) != self.cloud_fingerprint:
            raise ValueError(
                "TrajectoryPool is pinned to a different cloud; open a pool "
                "per scene"
            )
        if self._pool is None:
            return [
                self._runner._render_stored(cloud, camera, self.render_store)
                for camera in cameras
            ]
        if self.executor == "thread":
            return list(
                self._pool.map(
                    lambda cam: self._runner._render_stored(
                        cloud, cam, self.render_store
                    ),
                    cameras,
                )
            )
        return list(self._pool.map(_render_task, cameras))

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "TrajectoryPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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

    def open_pool(
        self,
        cloud: GaussianCloud,
        workers: int,
        *,
        executor: str = "process",
        render_store=None,
    ) -> TrajectoryPool:
        """Open a reusable :class:`TrajectoryPool` pinned to ``cloud``.

        Pays worker startup once for many ``render_trajectory(pool=...)``
        calls.
        The caller owns the pool's lifecycle (``close()`` or use it as a
        context manager).
        """
        return TrajectoryPool(
            self, cloud, workers, executor=executor, render_store=render_store
        )

    def render_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        workers: int = 1,
        executor: str = "process",
        render_store=None,
        pool: "TrajectoryPool | None" = None,
    ) -> TrajectoryResult:
        """Render a multi-camera batch, optionally across a worker pool.

        Parameters
        ----------
        cloud:
            The scene, shared by every view.
        cameras:
            Views to render, in order.
        workers:
            Pool size; ``<= 1`` renders serially in-process.  Serial and
            thread rendering go through a caller-supplied ``cache`` when
            one was given; an engine-owned default cache is replaced by a
            single-slot one for the trajectory (distinct orbit cameras
            never re-hit, so retaining every projection would only cost
            memory).
        executor:
            ``"process"`` (default) or ``"thread"``.  Frames are pure
            functions of ``(cloud, camera)``, so images and stats are
            identical for any executor and worker count.  Frames
            rendered in worker *processes* come back with
            ``projected``/``assignment`` set to ``None`` — those arrays
            are per-frame O(cloud) and no trajectory consumer reads
            them, so they are not shipped across the process boundary.
            When this engine's cache is a
            :class:`repro.experiments.shm_cache.SharedProjectionCache`,
            the worker processes consult it too: any projection one
            process computes (this pool, an earlier pool, or the
            parent) is reused everywhere instead of re-projected.
        render_store:
            Optional :class:`repro.serve.render_cache.SharedRenderCache`:
            a view any process already rendered and published is served
            from shared memory instead of re-rendered, and every frame
            this trajectory renders is published back.  Store-served
            frames are bit-identical (image and stats) but carry
            ``projected``/``assignment`` as ``None`` — the worker-pool
            contract.  Works with every executor; process workers
            receive the (picklable) store through the pool initializer.
        pool:
            Optional reusable :class:`TrajectoryPool` from
            :meth:`open_pool`.  When given it supersedes ``workers`` /
            ``executor`` / ``render_store`` (they were fixed at pool
            creation) and the per-call pool startup cost disappears.
        """
        cameras = list(cameras)
        if pool is not None:
            results = pool.map(cloud, cameras)
            return TrajectoryResult(
                results=results,
                stats=RenderStats.merged([r.stats for r in results]),
            )
        # Trajectory cameras are typically all distinct, so caching their
        # projections never pays off — when this engine owns its (default)
        # cache, render through a single-slot stand-in so a long
        # trajectory does not retain every frame's per-Gaussian arrays.
        # A caller-supplied cache is respected: it exists to share
        # projections across engines.
        if self._owns_cache:
            runner = RenderEngine(
                self.renderer,
                cache=ProjectionCache(max_entries=1),
                vectorized=self.vectorized,
            )
        else:
            runner = self
        if workers <= 1 or len(cameras) <= 1:
            results = [
                runner._render_stored(cloud, camera, render_store)
                for camera in cameras
            ]
        elif executor == "thread":
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(
                        lambda cam: runner._render_stored(
                            cloud, cam, render_store
                        ),
                        cameras,
                    )
                )
        elif executor == "process":
            # Fork keeps the already-built cloud in the children without
            # re-importing, but only use it where it is the platform
            # default (Linux) — on macOS the default is spawn because
            # forking is unsafe there.
            context = (
                multiprocessing.get_context("fork")
                if multiprocessing.get_start_method() == "fork"
                else None
            )
            # A shared-memory cache crosses the process boundary (its
            # index and array payloads live in shared segments), so the
            # workers consult it instead of re-projecting per process.
            shared_cache = (
                self.cache
                if isinstance(self.cache, SharedProjectionCache)
                else None
            )
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(
                    self.renderer,
                    self.vectorized,
                    cloud,
                    shared_cache,
                    render_store,
                ),
            ) as pool:
                results = list(pool.map(_render_task, cameras))
        else:
            raise ValueError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        return TrajectoryResult(
            results=results,
            stats=RenderStats.merged([r.stats for r in results]),
        )
