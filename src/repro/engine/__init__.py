"""Batch render engine: vectorized tiles, one render pool.

The engine layer sits on top of the functional renderers:

* :class:`Renderer` — the structural protocol both built-in renderers
  (and any future pipeline) satisfy.
* :class:`RenderEngine` — vectorized single-frame rendering (grouped
  NumPy passes over all tiles instead of a Python per-tile loop; the
  baseline, GS-TG and two-level hierarchical renderers all have fast
  paths) plus a ``render_trajectory`` batch API with in-process
  projection caching and merged statistics.  ``workers > 1`` renders
  the batch on the render pool below.  Outputs are bit-identical to the
  sequential renderers — the paper's losslessness guarantee extends
  through the batch path.
* :func:`render_in_pool` — single frames of any scene and renderer on
  one process-wide forkserver pool, created on first use: the only
  worker pool in the process.  Trajectories, ``run_multiview`` and the
  serving layer's cache misses all render there.  Its workers re-import
  ``__main__``, so a script that uses it needs an
  ``if __name__ == "__main__":`` guard.

See ``docs/architecture.md`` for where this layer sits in the system.
"""

from repro.engine.batch import (
    blend_tiles_batched,
    segmented_depth_sort,
    sort_groups_batched,
)
from repro.engine.engine import RenderEngine, TrajectoryResult, render_in_pool
from repro.engine.protocol import Renderer

__all__ = [
    "RenderEngine",
    "Renderer",
    "TrajectoryResult",
    "blend_tiles_batched",
    "render_in_pool",
    "segmented_depth_sort",
    "sort_groups_batched",
]
