"""Per-Gaussian tile bitmasks (the BGM's output in hardware).

For every (Gaussian, group) intersection pair, a ``tiles_per_group``-bit
word marks which small tiles inside the group the Gaussian influences:
bit ``i`` (LSB = slot 0) corresponds to the row-major ``i``-th tile of the
group.  During rasterization a tile with one-hot ``Tile_Location`` selects
Gaussians with ``Tile_Bitmask & Tile_Location != 0`` — exactly the bitwise
AND / OR-reduce valid-flag logic of the RM block (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grouping import GroupGeometry
from repro.gaussians.projection import ProjectedGaussians
from repro.raster.stats import RenderStats
from repro.tiles.boundary import (
    BoundaryMethod,
    bounding_rect,
    bounding_rects,
    gaussian_rect_hits,
    pair_rect_hits,
)
from repro.tiles.identify import TileAssignment


@dataclass
class BitmaskTable:
    """Bitmasks for every (Gaussian, group) pair of a group assignment.

    Attributes
    ----------
    geometry:
        The tile/group geometry the masks refer to.
    method:
        Boundary method used for the per-tile tests.
    gaussian_ids, group_ids:
        ``(k,)`` pair arrays, aligned with ``masks`` (same order as the
        group assignment they were generated from).
    masks:
        ``(k,)`` unsigned integer bitmask per pair.
    num_tile_tests:
        Total per-tile boundary tests executed.
    """

    geometry: GroupGeometry
    method: BoundaryMethod
    gaussian_ids: np.ndarray
    group_ids: np.ndarray
    masks: np.ndarray
    num_tile_tests: int

    def __len__(self) -> int:
        return self.masks.shape[0]


def popcount(masks: np.ndarray) -> np.ndarray:
    """Number of set bits per mask word (vectorised)."""
    masks = np.asarray(masks, dtype=np.uint64)
    counts = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    while np.any(work):
        counts += (work & np.uint64(1)).astype(np.int64)
        work >>= np.uint64(1)
    return counts


def generate_bitmasks(
    proj: ProjectedGaussians,
    geometry: GroupGeometry,
    group_assignment: TileAssignment,
    method: BoundaryMethod,
    stats: "RenderStats | None" = None,
) -> BitmaskTable:
    """Generate the tile bitmask for every (Gaussian, group) pair.

    For each pair emitted by group identification, the Gaussian is tested
    (with ``method``) against every in-image tile of the group; hits set
    the tile's slot bit.  Pairs whose mask comes out zero are kept in the
    table — the rasterization filter naturally drops them, mirroring the
    hardware (the BGM does not re-run group identification).
    """
    if group_assignment.grid.tile_size != geometry.group_size:
        raise ValueError("group assignment grid does not match the geometry")
    if geometry.tiles_per_group > 64:
        raise ValueError(
            "bitmasks are uint64 words; geometry has "
            f"{geometry.tiles_per_group} tile slots per group (> 64)"
        )

    k = group_assignment.num_pairs
    masks = np.zeros(k, dtype=np.uint64)
    num_tests = 0

    # Cache per-group tile rectangles and slots: groups repeat across pairs.
    rect_cache: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
    tg = geometry.tile_grid
    for pair_idx in range(k):
        gauss = int(group_assignment.gaussian_ids[pair_idx])
        group = int(group_assignment.tile_ids[pair_idx])
        cached = rect_cache.get(group)
        if cached is None:
            tiles = geometry.tiles_of_group(group)
            cached = (tg.tile_rects(tiles), geometry.slots_of_group(group))
            rect_cache[group] = cached
        rects, slots = cached
        hits = gaussian_rect_hits(proj, gauss, rects, method)
        # GPU cost accounting: a software bitmask kernel walks the group's
        # tile *rows* (it assembles one row of mask bits per iteration)
        # and skips rows outside the Gaussian's bounding rectangle — rows
        # beyond the rect cannot contain hits because the rect contains
        # the boundary shape, so the functional result is unaffected.
        # Every tile of a surviving row is tested.  The *hardware* BGM
        # instead tests all tiles of the group with its fixed 4-unit
        # pipeline; its cycle model uses num_bitmasks x bitmask_bits.
        _, by0, _, by1 = bounding_rect(proj, gauss, method)
        in_row_range = (rects[:, 1] <= by1) & (rects[:, 3] >= by0)
        num_tests += int(np.count_nonzero(in_row_range))
        if np.any(hits):
            bits = np.sum(np.left_shift(np.uint64(1), slots[hits].astype(np.uint64)))
            masks[pair_idx] = bits

    if stats is not None:
        stats.bitmask_tests += num_tests
        stats.bitmask_test_cost = method.relative_test_cost
        stats.num_bitmasks += k
        stats.bitmask_bits = geometry.tiles_per_group

    return BitmaskTable(
        geometry=geometry,
        method=BoundaryMethod(method),
        gaussian_ids=group_assignment.gaussian_ids.copy(),
        group_ids=group_assignment.tile_ids.copy(),
        masks=masks,
        num_tile_tests=num_tests,
    )


def generate_bitmasks_fast(
    proj: ProjectedGaussians,
    geometry: GroupGeometry,
    group_assignment: TileAssignment,
    method: BoundaryMethod,
    stats: "RenderStats | None" = None,
) -> BitmaskTable:
    """Vectorised equivalent of :func:`generate_bitmasks`.

    The reference tests every (Gaussian, group) pair against all of the
    group's tiles, one pair at a time.  Here each pair's candidate slots
    come from two small overlap tests against the Gaussian's
    :func:`bounding_rects` rectangle: one over the group's tile rows and
    one over its tile columns, ``(k, tiles_per_side)`` each, with the
    same closed-interval comparisons as the reference's row-range
    accounting.  A slot is a candidate when both its row and its column
    touch the rectangle; that rectangle contains the boundary shape, so
    no other slot can hit.  One batched boundary test then runs on the
    candidates, whose rectangles are assembled from the row and column
    edges.  Masks, pair order and all counters are identical to the
    reference — enforced by equivalence tests — which keeps GS-TG's
    losslessness property intact through the fast path.
    """
    if group_assignment.grid.tile_size != geometry.group_size:
        raise ValueError("group assignment grid does not match the geometry")
    if geometry.tiles_per_group > 64:
        raise ValueError(
            "bitmasks are uint64 words; geometry has "
            f"{geometry.tiles_per_group} tile slots per group (> 64)"
        )

    k = group_assignment.num_pairs
    method = BoundaryMethod(method)
    masks = np.zeros(k, dtype=np.uint64)
    num_tests = 0
    if k:
        tg = geometry.tile_grid
        side = geometry.tiles_per_side
        gauss = group_assignment.gaussian_ids
        bx0, by0, bx1, by1 = bounding_rects(proj, method)[gauss].T

        # The (k, side) tile columns and rows of each pair's group, with
        # their edges clipped to the image as in TileGrid.tile_rects;
        # columns and rows past the image's edge are invalid.
        gx, gy = geometry.group_grid.tile_coords(group_assignment.tile_ids)
        local = np.arange(side)
        tx = gx[:, None] * side + local
        ty = gy[:, None] * side + local
        x0 = (tx * tg.tile_size).astype(np.float64)
        y0 = (ty * tg.tile_size).astype(np.float64)
        x1 = np.minimum(x0 + tg.tile_size, float(tg.width))
        y1 = np.minimum(y0 + tg.tile_size, float(tg.height))
        valid_cols = tx < tg.tiles_x

        # Row-range test accounting, identical to the reference: a pair
        # is charged one test per in-image group tile whose row range
        # overlaps the Gaussian's bounding rectangle.
        rows = (ty < tg.tiles_y) & (y0 <= by1[:, None]) & (y1 >= by0[:, None])
        num_tests = int(
            np.count_nonzero(rows, axis=1) @ np.count_nonzero(valid_cols, axis=1)
        )

        # Candidates: slots whose row and column both touch the bounding
        # rectangle (closed intervals, like the tests), in slot order.
        cols = valid_cols & (x0 <= bx1[:, None]) & (x1 >= bx0[:, None])
        candidates = np.flatnonzero(rows[:, :, None] & cols[:, None, :])
        pair_idx, slot = np.divmod(candidates, side * side)
        row, col = np.divmod(slot, side)

        # Their rectangles, from the row and column edges; stored column
        # by column, the layout the boundary tests read.
        at_col = pair_idx * side + col
        at_row = pair_idx * side + row
        rects = np.empty((candidates.shape[0], 4), order="F")
        np.take(x0, at_col, out=rects[:, 0])
        np.take(y0, at_row, out=rects[:, 1])
        np.take(x1, at_col, out=rects[:, 2])
        np.take(y1, at_row, out=rects[:, 3])
        hits = pair_rect_hits(proj, gauss[pair_idx], rects, method)
        np.bitwise_or.at(
            masks,
            pair_idx[hits],
            np.left_shift(np.uint64(1), slot[hits].astype(np.uint64)),
        )

    if stats is not None:
        stats.bitmask_tests += num_tests
        stats.bitmask_test_cost = method.relative_test_cost
        stats.num_bitmasks += k
        stats.bitmask_bits = geometry.tiles_per_group

    return BitmaskTable(
        geometry=geometry,
        method=method,
        gaussian_ids=group_assignment.gaussian_ids.copy(),
        group_ids=group_assignment.tile_ids.copy(),
        masks=masks,
        num_tile_tests=num_tests,
    )
