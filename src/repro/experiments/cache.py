"""In-process caches of scenes, projections and rendered frames.

Experiment sweeps revisit the same (scene, renderer) configurations —
e.g. the baseline at 16x16/ellipse appears in Figs. 3, 12, 13 and 14 —
so a process-wide memo keeps each functional render to exactly one
execution.  Everything cached is deterministic (seeded scenes, pure
renderers), so caching cannot change results.

Two caches live here:

* :class:`RenderCache` — keyed on Table II scene *names*; used by the
  figure/benchmark harnesses.
* :class:`ProjectionCache` — keyed on ``(cloud, camera)`` object pairs;
  used by :class:`repro.engine.RenderEngine` so e.g. a baseline-vs-GS-TG
  losslessness comparison projects each view exactly once.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.core.pipeline import GSTGRenderer
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians, project
from repro.raster.renderer import BaselineRenderer, RenderResult
from repro.scenes.synthetic import Scene, load_scene
from repro.tiles.boundary import BoundaryMethod
from repro.tiles.grid import TileGrid
from repro.tiles.identify import TileAssignment, identify_tiles


def camera_key(camera: Camera) -> "tuple":
    """A hashable identity for a camera's full configuration.

    Two cameras with equal intrinsics, extrinsics and clip range produce
    the same key (and therefore identical projections of any cloud).
    """
    return (
        camera.width,
        camera.height,
        camera.fx,
        camera.fy,
        camera.near,
        camera.far,
        np.asarray(camera.rotation, dtype=np.float64).tobytes(),
        np.asarray(camera.translation, dtype=np.float64).tobytes(),
    )


class ProjectionCache:
    """Memoises ``project(cloud, camera)`` keyed on the object pair.

    Clouds are tracked by identity through weak references — mutating a
    cloud in place after rendering it is not supported (the functional
    pipeline never does), and a garbage-collected cloud's entries are
    dropped automatically, so the cache cannot resurrect stale ids.

    Parameters
    ----------
    max_entries:
        Bound on cached projections across all clouds; the oldest entry
        is evicted first.  An entry holds every per-Gaussian
        screen-space array, about 176 bytes per visible Gaussian: 256
        entries were ~75 MiB of never-repeated views at benchmark scale
        (~1 700 visible Gaussians) and would be tens of GiB at paper
        scale (~10^6).  Reuse is back to back — the baseline and GS-TG
        on one view, a frame re-requested at once — so the default keeps
        the last 32.  ``None`` disables eviction.
    """

    def __init__(self, max_entries: "int | None" = 32) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        # (id(cloud), camera key) -> projection, in insertion order.
        self._projections: "dict[tuple, ProjectedGaussians]" = {}
        # id(cloud) -> weakref guarding against id reuse after gc.
        self._cloud_refs: "dict[int, weakref.ref]" = {}
        # Guards the dicts (engines on several threads, such as a render
        # service's flush threads, may share one cache); projection
        # itself runs unlocked, so two threads missing on the same key
        # may both compute — the first insert wins and both results are
        # identical.  Reentrant because a gc-triggered weakref callback
        # can run _drop_cloud on a thread already inside the lock.
        self._lock = threading.RLock()

    def _drop_cloud(self, cloud_id: int) -> None:
        with self._lock:
            self._cloud_refs.pop(cloud_id, None)
            for key in [k for k in self._projections if k[0] == cloud_id]:
                del self._projections[key]

    def _validate_cloud(self, cloud: GaussianCloud) -> int:
        cloud_id = id(cloud)
        ref = self._cloud_refs.get(cloud_id)
        if ref is not None and ref() is cloud:
            return cloud_id
        if ref is not None:
            # The id was recycled after a garbage collection.
            self._drop_cloud(cloud_id)
        refs = self._cloud_refs

        def _on_gc(dead: weakref.ref, *, _cloud_id: int = cloud_id) -> None:
            if refs.get(_cloud_id) is dead:
                self._drop_cloud(_cloud_id)

        self._cloud_refs[cloud_id] = weakref.ref(cloud, _on_gc)
        return cloud_id

    def projection(self, cloud: GaussianCloud, camera: Camera) -> ProjectedGaussians:
        """The (cached) screen-space projection of ``cloud`` through ``camera``."""
        with self._lock:
            key = (self._validate_cloud(cloud), camera_key(camera))
            cached = self._projections.get(key)
        if cached is not None:
            return cached
        proj = project(cloud, camera)
        with self._lock:
            cached = self._projections.get(key)
            if cached is not None:
                return cached
            if (
                self.max_entries is not None
                and len(self._projections) >= self.max_entries
            ):
                oldest = next(iter(self._projections))
                del self._projections[oldest]
            self._projections[key] = proj
        return proj

    def __len__(self) -> int:
        with self._lock:
            return len(self._projections)


class RenderCache:
    """Memoises scenes, projections, tile assignments and renders.

    Parameters
    ----------
    resolution_scale:
        Factor applied to Table II resolutions for every scene.
    seed:
        Scene synthesis seed.
    render_store:
        Optional :class:`repro.serve.render_cache.SharedRenderCache`
        (duck-typed to avoid an import cycle).  Full renders missing
        from this process's memo are looked up in — and published to —
        the shared store, so *separate* ``RenderCache`` instances and
        *separate processes* (the fig03/fig11/fig12/fig13 sweep
        harnesses, the render service, ``run_multiview``) each compute a
        given (scene, renderer configuration) render exactly once
        between them.  Store-served results carry
        ``projected``/``assignment`` as ``None`` (the worker-pool
        contract); the figure harnesses consume only images and stats,
        which round-trip bit-exactly.
    """

    def __init__(
        self,
        resolution_scale: float = 0.125,
        seed: int = 0,
        render_store=None,
    ) -> None:
        self.resolution_scale = resolution_scale
        self.seed = seed
        self.render_store = render_store
        self._scenes: "dict[str, Scene]" = {}
        self._projections: "dict[str, ProjectedGaussians]" = {}
        self._assignments: "dict[tuple, TileAssignment]" = {}
        self._baseline: "dict[tuple, RenderResult]" = {}
        self._gstg: "dict[tuple, RenderResult]" = {}
        # One projection per scene across *every* configuration: full
        # renders run through the batch engine with this cache, so the
        # fig3/fig11/fig12/fig13 sweeps stop re-projecting the scene for
        # each tile/group/boundary combo (the engine output is
        # bit-identical to the sequential renderers, stats included).
        self._proj_cache = ProjectionCache()

    def scene(self, name: str) -> Scene:
        """The synthetic scene for a Table II entry."""
        if name not in self._scenes:
            self._scenes[name] = load_scene(
                name, resolution_scale=self.resolution_scale, seed=self.seed
            )
        return self._scenes[name]

    def projection(self, name: str) -> ProjectedGaussians:
        """Culled + projected Gaussians for the scene's camera.

        Served by the same per-scene projection cache the full renders
        go through, so tile statistics and renders share one projection.
        """
        if name not in self._projections:
            scene = self.scene(name)
            self._projections[name] = self._proj_cache.projection(
                scene.cloud, scene.camera
            )
        return self._projections[name]

    def assignment(
        self, name: str, tile_size: int, method: BoundaryMethod
    ) -> TileAssignment:
        """Tile identification only (enough for the Section III stats)."""
        key = (name, tile_size, BoundaryMethod(method))
        if key not in self._assignments:
            scene = self.scene(name)
            grid = TileGrid(scene.camera.width, scene.camera.height, tile_size)
            self._assignments[key] = identify_tiles(
                self.projection(name), grid, method
            )
        return self._assignments[key]

    def _stored_render(self, renderer, scene: Scene) -> RenderResult:
        """One full render: engine path, shared projection, shared store.

        The render goes through the batch engine (bit-identical to
        ``renderer.render``, image *and* stats) with the per-scene
        projection cache, and — when a ``render_store`` is plugged in —
        is first looked up in, then published to, the cross-process
        store.
        """
        # Local import: the engine module imports this one (cycle).
        from repro.engine import RenderEngine

        engine = RenderEngine(renderer, cache=self._proj_cache)
        return engine._render_stored(scene.cloud, scene.camera, self.render_store)

    def baseline_render(
        self, name: str, tile_size: int, method: BoundaryMethod
    ) -> RenderResult:
        """Full conventional-pipeline render."""
        key = (name, tile_size, BoundaryMethod(method))
        if key not in self._baseline:
            scene = self.scene(name)
            renderer = BaselineRenderer(tile_size=tile_size, method=method)
            self._baseline[key] = self._stored_render(renderer, scene)
        return self._baseline[key]

    def gstg_render(
        self,
        name: str,
        tile_size: int,
        group_size: int,
        group_method: BoundaryMethod,
        bitmask_method: BoundaryMethod,
    ) -> RenderResult:
        """Full GS-TG render."""
        key = (
            name,
            tile_size,
            group_size,
            BoundaryMethod(group_method),
            BoundaryMethod(bitmask_method),
        )
        if key not in self._gstg:
            scene = self.scene(name)
            renderer = GSTGRenderer(
                tile_size=tile_size,
                group_size=group_size,
                group_method=group_method,
                bitmask_method=bitmask_method,
            )
            self._gstg[key] = self._stored_render(renderer, scene)
        return self._gstg[key]
