"""GS-TG reproduction: tile-grouping 3D Gaussian Splatting acceleration.

A from-scratch Python implementation of the system described in
"GS-TG: 3D Gaussian Splatting Accelerator with Tile Grouping for Reducing
Redundant Sorting while Preserving Rasterization Efficiency" (DAC 2025):

* ``repro.gaussians`` -- the 3D-GS scene/camera/projection substrate,
* ``repro.tiles``     -- tiling and the AABB / OBB / Ellipse boundary tests,
* ``repro.raster``    -- per-tile sorting, alpha math, blending, the
  conventional baseline renderer,
* ``repro.core``      -- the GS-TG pipeline (grouping, bitmasks, group-wise
  sorting, tile-wise rasterization),
* ``repro.engine``    -- the vectorized batch render engine (segmented
  sorting, fused tile blending, multi-camera trajectories on the one
  render pool, projection caching for serial renders),
* ``repro.scenes``    -- Table II dataset registry and synthetic scenes,
* ``repro.analysis``  -- profiling statistics and the GPU timing model,
* ``repro.hardware``  -- the cycle-level accelerator simulator, the GSCore
  comparator model, DRAM and energy models,
* ``repro.serve``     -- the serving stack: async streaming render
  service, micro-batching with adaptive sizing, cross-process render
  cache, the TCP/HTTP network gateway, shared-secret wire auth,
* ``repro.cluster``   -- the sharded multi-gateway cluster: rendezvous
  shard router, replication, health-aware routing with failover, and
  subprocess backend fleets.

``docs/architecture.md`` maps how the layers fit together.
"""

from repro.core import GSTGRenderer
from repro.engine import RenderEngine, TrajectoryResult
from repro.raster import BaselineRenderer
from repro.scenes import load_scene
from repro.tiles import BoundaryMethod

__version__ = "1.1.0"

__all__ = [
    "BaselineRenderer",
    "BoundaryMethod",
    "GSTGRenderer",
    "RenderEngine",
    "TrajectoryResult",
    "__version__",
    "load_scene",
]
