"""Vectorized batch kernels: segmented sorting and fused tile blending.

The seed renderers loop over tiles in Python — one ``depth_sort`` and one
``blend_tile`` call per tile.  These kernels restructure that work into
grouped NumPy operations over *all* non-empty tiles of a frame:

* **Segmented depth sort** — a single ``np.lexsort`` over the flattened
  (Gaussian, tile) pair buffer orders every tile's list at once
  (tile-major, then depth, then Gaussian id for the deterministic
  tie-break).  Each tile's segment of the result equals what the per-tile
  ``depth_sort`` would have produced, because the per-tile sort uses the
  same (depth, id) key.
* **Batched blending** — tiles advance through their sorted lists in
  lock-step: at step ``j`` the ``j``-th Gaussian of every tile is
  evaluated over all of those tiles' pixels in one pass.  The blend
  state (pixel centre, transmittance, colour) is stored *aligned with
  the tile-ordered list of pixels still in play*, so a step gathers and
  scatters nothing: each Gaussian parameter is read once per tile and
  run-length expanded over the tile's rows, Eq. (1) runs through those
  expanded rows in place, and Eq. (2) is applied to every entry with the
  alpha of dead or below-cutoff entries set to 0 (``x + 0.0`` and
  ``x * 1.0`` are exact).  Pixels that early-exit, and tiles whose list
  ran out, stay in the arrays masked until the live fraction falls
  below ``_COMPACT_BELOW``; only then are their colours written out and
  the state compressed.  Every entry that does blend sees the
  operations of :func:`repro.raster.blend.blend_tile` in its order, so
  images are **bit-identical** to it and the early-exit, cutoff and
  counter semantics are all reproduced exactly.

Python-level work drops from O(sum of list lengths) iterations to
O(longest list) iterations per frame, each a fixed number of
contiguous elementwise passes.
"""

from __future__ import annotations

import numpy as np

from repro.core.group_sort import GroupSortResult
from repro.gaussians.projection import ProjectedGaussians
from repro.raster.alpha import ALPHA_CUTOFF, MAX_ALPHA
from repro.raster.blend import EARLY_EXIT_TRANSMITTANCE
from repro.raster.sorting import sort_comparison_count
from repro.raster.stats import RenderStats, SortCounters
from repro.tiles.grid import TileGrid
from repro.tiles.identify import TileAssignment


def segmented_depth_sort(
    proj: ProjectedGaussians,
    assignment: TileAssignment,
    counters: "SortCounters | None" = None,
) -> "tuple[np.ndarray, list[np.ndarray]]":
    """Depth-sort every tile's Gaussian list with one global lexsort.

    Returns ``(nonempty_tile_ids, tile_lists)`` where ``tile_lists[i]``
    is the front-to-back Gaussian list of ``nonempty_tile_ids[i]``
    (ascending tile id), each identical to
    ``depth_sort(proj.depths[g], g)`` on that tile's pair segment.
    Counters record one sort per non-empty tile in tile order, exactly
    like the sequential renderer.
    """
    gauss = assignment.gaussian_ids
    tiles = assignment.tile_ids
    order = np.lexsort((gauss, proj.depths[gauss], tiles))
    sorted_tiles = tiles[order]
    sorted_gauss = gauss[order]

    boundaries = np.searchsorted(
        sorted_tiles, np.arange(assignment.grid.num_tiles + 1)
    )
    lengths = np.diff(boundaries)
    nonempty = np.flatnonzero(lengths)

    tile_lists = [
        sorted_gauss[boundaries[t] : boundaries[t + 1]] for t in nonempty
    ]
    if counters is not None:
        for n in lengths[nonempty]:
            n = int(n)
            counters.record(n, sort_comparison_count(n))
    return nonempty, tile_lists


def sort_groups_batched(
    proj: ProjectedGaussians,
    pair_gaussians: np.ndarray,
    pair_groups: np.ndarray,
    pair_masks: np.ndarray,
    counters: "SortCounters | None" = None,
) -> GroupSortResult:
    """Vectorized :func:`repro.core.group_sort.sort_groups`.

    One lexsort keyed (group, depth, Gaussian id) replaces the per-group
    sorting loop; output and counters match the reference exactly (the
    reference sorts each group's segment with the same (depth, id) key
    and records groups in ascending id order).
    """
    pair_gaussians = np.asarray(pair_gaussians)
    pair_groups = np.asarray(pair_groups)
    pair_masks = np.asarray(pair_masks)
    if not (pair_gaussians.shape == pair_groups.shape == pair_masks.shape):
        raise ValueError("pair arrays must be aligned")

    order = np.lexsort(
        (pair_gaussians, proj.depths[pair_gaussians], pair_groups)
    )
    groups_sorted = pair_groups[order]
    gauss_sorted = pair_gaussians[order]
    masks_sorted = pair_masks[order]

    unique_groups, starts = np.unique(groups_sorted, return_index=True)
    ends = np.append(starts[1:], groups_sorted.shape[0])

    sorted_gaussians = [gauss_sorted[s:e] for s, e in zip(starts, ends)]
    sorted_masks = [masks_sorted[s:e] for s, e in zip(starts, ends)]
    if counters is not None:
        for s, e in zip(starts, ends):
            n = int(e - s)
            counters.record(n, sort_comparison_count(n))

    return GroupSortResult(
        group_ids=unique_groups,
        sorted_gaussians=sorted_gaussians,
        sorted_masks=sorted_masks,
    )


#: Live fraction of the blend state below which it is compacted.  Dead
#: and finished pixels ride along masked until then: a compaction is one
#: boolean compress of every state array, which costs more than several
#: steps of masked arithmetic over the same entries.
_COMPACT_BELOW = 0.8


def blend_tiles_batched(
    proj: ProjectedGaussians,
    grid: TileGrid,
    tile_ids: np.ndarray,
    tile_lists: "list[np.ndarray]",
    image: np.ndarray,
    stats: "RenderStats | None" = None,
) -> None:
    """Blend many tiles at once, bit-identical to per-tile ``blend_tile``.

    Parameters
    ----------
    proj:
        Projected Gaussians.
    grid:
        The rasterization tile grid; ``image`` must match its resolution.
    tile_ids:
        Tile ids to rasterise, in the order the sequential pipeline would
        have processed them (this fixes ``per_tile_alpha`` insertion
        order).  Every listed tile must have a non-empty list.
    tile_lists:
        Depth-sorted Gaussian index array per tile, aligned with
        ``tile_ids``.
    image:
        ``(height, width, 3)`` output, written in place.
    stats:
        Optional counter sink; raster counters and ``per_tile_alpha``
        match the sequential path exactly.
    """
    tile_ids = np.asarray(tile_ids, dtype=np.int64)
    num_tiles = len(tile_lists)
    if tile_ids.shape != (num_tiles,):
        raise ValueError(
            f"tile_ids {tile_ids.shape} and tile_lists ({num_tiles}) "
            "must be aligned"
        )
    if num_tiles == 0:
        return
    lengths = np.fromiter(
        (arr.shape[0] for arr in tile_lists), dtype=np.int64, count=num_tiles
    )
    if np.any(lengths == 0):
        raise ValueError("tile_lists must be non-empty (drop empty tiles)")
    list_end = np.cumsum(lengths)
    list_start = list_end - lengths
    flat_lists = np.concatenate(tile_lists)

    # Every tile's pixel block, row-major inside the tile and tiles in
    # call order, from rect arithmetic alone.
    rects = grid.tile_rects(tile_ids).astype(np.int64)
    widths = rects[:, 2] - rects[:, 0]
    sizes = widths * (rects[:, 3] - rects[:, 1])
    num_pixels = int(sizes.sum())
    local = np.arange(num_pixels) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_width = np.repeat(widths, sizes)
    ix = np.repeat(rects[:, 0], sizes) + local % row_width
    iy = np.repeat(rects[:, 1], sizes) + local // row_width

    # One contiguous column per Eq. (1)/(2) parameter, so a step reads
    # each at the tiles' current Gaussian and run-length expands it.
    params = np.stack(
        [
            proj.means2d[:, 0],
            proj.means2d[:, 1],
            proj.conics[:, 0],
            2.0 * proj.conics[:, 1],
            proj.conics[:, 2],
            proj.opacities,
            proj.colors[:, 0],
            proj.colors[:, 1],
            proj.colors[:, 2],
        ]
    )

    # Blend state, aligned with the tile-ordered list of pixels still in
    # play (plus the dead ones awaiting compaction).  ``origin`` maps an
    # entry back to its pixel; ``alive`` is False once a pixel
    # early-exited or its tile's list ran out.
    x = ix + 0.5
    y = iy + 0.5
    transmittance = np.ones(num_pixels)
    red = np.zeros(num_pixels)
    green = np.zeros(num_pixels)
    blue = np.zeros(num_pixels)
    origin = np.arange(num_pixels)
    alive = np.ones(num_pixels, dtype=bool)
    significant = np.empty(num_pixels, dtype=bool)

    # The tile slots with entries in the state, the rows each holds and
    # where its run ends; rebuilt at every compaction.
    alive_count = sizes.copy()
    run_tiles = np.flatnonzero(alive_count)
    run_rows = alive_count[run_tiles]
    run_end = np.cumsum(run_rows)
    run_of_tile = np.arange(num_tiles)

    alpha_per_tile = np.zeros(num_tiles, dtype=np.int64)
    blend_operations = 0
    early_exits = 0
    live = held = num_pixels
    by_length = np.argsort(lengths, kind="stable")
    ending = zip(lengths[by_length].tolist(), by_length.tolist())
    next_length, next_tile = next(ending)

    step = 0
    while live:
        # A tile is charged its live pixels while it still has Gaussians
        # and live pixels — the latter is the sequential early break.
        alpha_per_tile[run_tiles] += alive_count[run_tiles]
        gaussians = flat_lists[
            np.minimum(list_start[run_tiles] + step, list_end[run_tiles] - 1)
        ]
        mx, my, ca, cb2, cc, opacity, cr, cg, cb = np.repeat(
            params[:, gaussians], run_rows, axis=1
        )

        # Eq. (1), the operations of compute_alpha in its order, each
        # into the expanded parameter row it no longer needs.
        dx = np.subtract(x, mx, out=mx)
        dy = np.subtract(y, my, out=my)
        np.multiply(ca, dx, out=ca)
        np.multiply(ca, dx, out=ca)
        np.multiply(cb2, dx, out=cb2)
        np.multiply(cb2, dy, out=cb2)
        np.multiply(cc, dy, out=cc)
        np.multiply(cc, dy, out=cc)
        np.add(ca, cb2, out=ca)
        np.add(ca, cc, out=ca)
        np.multiply(ca, -0.5, out=ca)
        np.minimum(ca, 0.0, out=ca)
        np.exp(ca, out=ca)
        np.multiply(opacity, ca, out=ca)
        alphas = np.minimum(ca, MAX_ALPHA, out=ca)

        hit = np.greater_equal(alphas, ALPHA_CUTOFF, out=significant[:held])
        np.logical_and(hit, alive, out=hit)
        blend_operations += int(np.count_nonzero(hit))

        # Eq. (2) without gather or scatter: an entry that is dead or
        # below the cutoff blends alpha 0, and x + 0.0 == x, x * 1.0 == x
        # exactly, so the others see blend_tile's operations unchanged.
        np.multiply(alphas, hit, out=alphas)
        w = np.multiply(transmittance, alphas, out=opacity)
        red += np.multiply(w, cr, out=cr)
        green += np.multiply(w, cg, out=cg)
        blue += np.multiply(w, cb, out=cb)
        transmittance *= np.subtract(1.0, alphas, out=alphas)

        done = np.less(transmittance, EARLY_EXIT_TRANSMITTANCE, out=hit)
        np.logical_and(done, alive, out=done)
        dying = np.flatnonzero(done)
        if dying.size:
            alive[dying] = False
            early_exits += dying.size
            live -= dying.size
            alive_count[run_tiles] -= np.bincount(
                np.searchsorted(run_end, dying, side="right"),
                minlength=run_tiles.size,
            )

        # Tiles whose list ends here leave play with whatever still lives.
        step += 1
        while next_length == step:
            if alive_count[next_tile]:
                run = run_of_tile[next_tile]
                alive[run_end[run] - run_rows[run] : run_end[run]] = False
                live -= int(alive_count[next_tile])
                alive_count[next_tile] = 0
            next_length, next_tile = next(ending, (0, 0))  # 0: none left

        if live < _COMPACT_BELOW * held:
            dead = ~alive
            gone = origin[dead]
            image[iy[gone], ix[gone]] = np.stack(
                [red[dead], green[dead], blue[dead]], axis=1
            )
            x, y, transmittance, red, green, blue, origin = (
                column[alive]
                for column in (x, y, transmittance, red, green, blue, origin)
            )
            held = live
            alive = np.ones(held, dtype=bool)
            run_tiles = np.flatnonzero(alive_count)
            run_rows = alive_count[run_tiles]
            run_end = np.cumsum(run_rows)
            run_of_tile[run_tiles] = np.arange(run_tiles.size)

    image[iy[origin], ix[origin]] = np.stack([red, green, blue], axis=1)

    if stats is not None:
        stats.raster.num_alpha_computations += int(alpha_per_tile.sum())
        stats.raster.num_blend_operations += blend_operations
        stats.raster.num_pixels += num_pixels
        stats.raster.num_tile_passes += int(lengths.sum())
        stats.raster.num_early_exit_pixels += early_exits
        stats.per_tile_alpha.update(
            zip(tile_ids.tolist(), alpha_per_tile.tolist())
        )
