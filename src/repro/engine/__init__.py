"""Batch render engine: vectorized tiles, multi-camera parallelism.

The engine layer sits on top of the functional renderers:

* :class:`Renderer` — the structural protocol both built-in renderers
  (and any future pipeline) satisfy.
* :class:`RenderEngine` — vectorized single-frame rendering (grouped
  NumPy passes over all tiles instead of a Python per-tile loop; the
  baseline, GS-TG and two-level hierarchical renderers all have fast
  paths) plus a ``render_trajectory`` batch API with worker pools,
  shared projection caching (in-process or cross-process via
  :class:`repro.experiments.shm_cache.SharedProjectionCache`) and
  merged statistics.  Outputs are bit-identical to the sequential
  renderers — the paper's losslessness guarantee extends through the
  batch path.
* :class:`TrajectoryPool` — a reusable worker pool pinned to one
  ``(renderer, cloud)`` pair (:meth:`RenderEngine.open_pool`), so
  callers that render many small batches of the same scene pay worker
  startup once.
* :func:`render_in_pool` — single frames of any scene and renderer on
  one process-wide forkserver pool, created on first use; the serving
  layer renders its cache misses there.

See ``docs/architecture.md`` for where this layer sits in the system.
"""

from repro.engine.batch import (
    blend_tiles_batched,
    segmented_depth_sort,
    sort_groups_batched,
)
from repro.engine.engine import (
    RenderEngine,
    TrajectoryPool,
    TrajectoryResult,
    render_in_pool,
)
from repro.engine.protocol import Renderer

__all__ = [
    "RenderEngine",
    "Renderer",
    "TrajectoryPool",
    "TrajectoryResult",
    "blend_tiles_batched",
    "render_in_pool",
    "segmented_depth_sort",
    "sort_groups_batched",
]
