"""Vectorised tile identification (fast path, all boundary methods).

The reference :func:`repro.tiles.identify.identify_tiles` loops per
Gaussian, which is the clearest formulation but dominates sweep runtime.
The whole assignment can instead be computed with array arithmetic:
bounding rectangles and candidate ranges per Gaussian, prefix sums, one
flattened index expansion, then a single batched boundary refinement over
every (Gaussian, candidate-tile) pair.  The output is **identical** to
the reference implementation (same pairs, same order, same counters) —
enforced by equivalence tests — so callers can swap it in wherever
identification dominates profiling time.  ``repro.engine`` renders
through this path.
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.projection import ProjectedGaussians
from repro.tiles.boundary import BoundaryMethod, bounding_rects, pair_rect_hits
from repro.tiles.grid import TileGrid
from repro.tiles.identify import TileAssignment


def _expand_candidates(
    grid: TileGrid, rects: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Flatten per-Gaussian candidate tile rectangles into pair arrays.

    ``rects`` are the (m, 4) bounding rectangles.  Returns
    ``(gaussian_ids, cand_tx, cand_ty)`` with Gaussians in index order and
    each Gaussian's candidates in row-major order — the reference
    emission order.
    """
    ts = float(grid.tile_size)
    tx0 = np.maximum(np.floor(rects[:, 0] / ts).astype(np.int64), 0)
    ty0 = np.maximum(np.floor(rects[:, 1] / ts).astype(np.int64), 0)
    tx1 = np.minimum(np.ceil(rects[:, 2] / ts).astype(np.int64), grid.tiles_x)
    ty1 = np.minimum(np.ceil(rects[:, 3] / ts).astype(np.int64), grid.tiles_y)
    tx1 = np.maximum(tx1, tx0)
    ty1 = np.maximum(ty1, ty0)

    counts = (tx1 - tx0) * (ty1 - ty0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty

    gaussian_ids = np.repeat(np.arange(rects.shape[0], dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    widths = np.repeat(tx1 - tx0, counts)
    cand_tx = np.repeat(tx0, counts) + local % np.maximum(widths, 1)
    cand_ty = np.repeat(ty0, counts) + local // np.maximum(widths, 1)
    return gaussian_ids, cand_tx, cand_ty


def identify_tiles_fast(
    proj: ProjectedGaussians,
    grid: TileGrid,
    method: BoundaryMethod = BoundaryMethod.AABB,
) -> TileAssignment:
    """Vectorised equivalent of ``identify_tiles(proj, grid, method)``.

    Candidate expansion from the bounding rectangles, then one batched
    boundary refinement (:func:`repro.tiles.boundary.pair_rect_hits`)
    over all (Gaussian, candidate-tile) pairs — including the reference
    path's clipped-rect handling at the image border.  Pairs, order and
    counters match the reference exactly; boundary tests are charged per
    candidate as in the reference (zero for AABB, whose bounding square
    *is* the boundary).
    """
    method = BoundaryMethod(method)
    rects = bounding_rects(proj, method)
    gaussian_ids, cand_tx, cand_ty = _expand_candidates(grid, rects)
    num_candidates = int(gaussian_ids.shape[0])
    counted = method is not BoundaryMethod.AABB
    if num_candidates == 0:
        empty = np.empty(0, dtype=np.int64)
        return TileAssignment(
            grid=grid,
            method=method,
            gaussian_ids=empty,
            tile_ids=empty,
            num_gaussians=len(proj),
            num_candidate_tiles=0,
            num_boundary_tests=0,
        )

    ts = float(grid.tile_size)
    rect_x0 = (cand_tx * ts).astype(np.float64)
    rect_y0 = (cand_ty * ts).astype(np.float64)
    cand_rects = np.stack(
        [
            rect_x0,
            rect_y0,
            np.minimum(rect_x0 + ts, float(grid.width)),
            np.minimum(rect_y0 + ts, float(grid.height)),
        ],
        axis=1,
    )
    hits = pair_rect_hits(proj, gaussian_ids, cand_rects, method)

    return TileAssignment(
        grid=grid,
        method=method,
        gaussian_ids=gaussian_ids[hits],
        tile_ids=(cand_ty * grid.tiles_x + cand_tx)[hits],
        num_gaussians=len(proj),
        num_candidate_tiles=num_candidates,
        num_boundary_tests=num_candidates if counted else 0,
    )
