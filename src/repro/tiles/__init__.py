"""Tile subsystem: the image tiling and Gaussian-tile intersection tests.

Implements the ``Tile Identification`` step of the preprocessing stage with
the three boundary methods the paper compares (Fig. 2): axis-aligned
bounding boxes (AABB, the original 3D-GS), oriented bounding boxes (OBB,
GSCore) and the exact ellipse boundary (FlashGS).
"""

from repro.tiles.boundary import (
    BoundaryMethod,
    gaussian_rect_hits,
    obb_half_extents,
)
from repro.tiles.grid import TileGrid
from repro.tiles.identify import TileAssignment, identify_tiles

__all__ = [
    "BoundaryMethod",
    "TileAssignment",
    "TileGrid",
    "gaussian_rect_hits",
    "identify_tiles",
    "obb_half_extents",
]
