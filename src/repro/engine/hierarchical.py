"""Vectorized fast path for the two-level hierarchical renderer.

The reference :class:`repro.core.hierarchical.HierarchicalGSTGRenderer`
walks pure-Python hot loops at every stage: per-Gaussian tile
identification, per-pair bitmask generation (twice — one mask level per
grouping level), bit-by-bit expansion of the group-level masks into
(Gaussian, group) pairs, a ``(gaussian, group) -> mask`` dict joining the
tile-level masks back onto each supergroup's sorted list, and one
``blend_tile`` call per tile.  This module restructures all of it into
grouped NumPy passes:

* identification and both bitmask levels reuse the established
  vectorized kernels (:func:`repro.tiles.fast.identify_tiles_fast`,
  :func:`repro.core.bitmask.generate_bitmasks_fast`); each mask level
  runs the boundary test only on the slots whose tile row and column
  both touch the Gaussian's bounding rectangle;
* the group-pair expansion becomes one broadcast shift-and-mask over a
  dense ``(pairs, slots)`` bit matrix
  (:func:`repro.core.hierarchical.expand_group_pairs_fast`);
* the supergroup sort is one segmented lexsort
  (:func:`repro.engine.batch.sort_groups_batched`);
* the per-pair mask dict becomes a sorted-key ``searchsorted`` join, and
  both filter levels are fused bit-matrix compresses whose output order
  reproduces the sequential traversal exactly;
* blending goes through :func:`repro.engine.batch.blend_tiles_batched`.

Images *and* statistics (``per_tile_alpha``, ``num_filter_checks``, every
counter) are bit-identical to the reference renderer — enforced by
equivalence and Hypothesis property tests — so the losslessness argument
carries through the fast path unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitmask import generate_bitmasks_fast
from repro.core.grouping import GroupGeometry
from repro.core.hierarchical import (
    HierarchicalGSTGRenderer,
    expand_group_pairs_fast,
    mask_bits_set,
    padded_level_layout,
)
from repro.engine.batch import blend_tiles_batched, sort_groups_batched
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.projection import ProjectedGaussians
from repro.raster.renderer import RenderResult
from repro.raster.stats import RenderStats
from repro.tiles.fast import identify_tiles_fast
from repro.tiles.identify import TileAssignment


def _filter_two_levels(
    super_sort,
    tile_table,
    super_geometry: GroupGeometry,
    tile_geometry: GroupGeometry,
    stats: RenderStats,
) -> "tuple[np.ndarray, list[np.ndarray]]":
    """Fused two-level mask filtering over every supergroup at once.

    Returns ``(tile_ids, tile_lists)`` in the exact order the sequential
    renderer visits tiles: supergroups ascending, member groups in slot
    order, member tiles in slot order — with each tile's list front-to-
    back.  Filter-check counters are charged identically to the
    reference's per-group/per-tile loops.
    """
    num_segments = super_sort.group_ids.shape[0]
    seg_lengths = np.fromiter(
        (a.shape[0] for a in super_sort.sorted_gaussians),
        dtype=np.int64,
        count=num_segments,
    )
    flat_gauss = np.concatenate(super_sort.sorted_gaussians)
    flat_masks = np.concatenate(super_sort.sorted_masks).astype(
        np.uint64, copy=False
    )
    seg_of_pair = np.repeat(np.arange(num_segments, dtype=np.int64), seg_lengths)

    # Level 1: group membership bits of every supergroup pair.  Every
    # pair is checked against every in-image group of its supergroup —
    # the same checks the sequential group loop charges.
    padded_groups, padded_slots, group_valid = padded_level_layout(
        super_geometry, super_sort.group_ids
    )
    pair_valid = group_valid[seg_of_pair]
    stats.num_filter_checks += int(np.count_nonzero(pair_valid))
    member = mask_bits_set(flat_masks, padded_slots[seg_of_pair])
    member &= pair_valid

    entry_pair, entry_slot = np.nonzero(member)
    empty_ids = np.empty(0, dtype=np.int64)
    if entry_pair.size == 0:
        return empty_ids, []

    # Reorder the (pair, group-slot) hits into the sequential traversal
    # order: supergroup, then group slot, then pair position (pairs are
    # already depth-sorted within their segment).
    entry_seg = seg_of_pair[entry_pair]
    order = np.lexsort((entry_pair, entry_slot, entry_seg))
    entry_pair = entry_pair[order]
    entry_slot = entry_slot[order]
    entry_seg = entry_seg[order]
    entry_gauss = flat_gauss[entry_pair]
    entry_group = padded_groups[entry_seg, entry_slot]

    num_entries = entry_pair.shape[0]
    run_start = np.empty(num_entries, dtype=bool)
    run_start[0] = True
    run_start[1:] = (entry_seg[1:] != entry_seg[:-1]) | (
        entry_slot[1:] != entry_slot[:-1]
    )
    run_id = np.cumsum(run_start) - 1

    # Join the tile-level masks: the sequential path's per-pair
    # ``(gaussian, group) -> mask`` dict becomes one searchsorted lookup
    # against the key-sorted bitmask table (keys are unique: a group
    # belongs to exactly one supergroup).
    num_group_ids = tile_geometry.group_grid.num_tiles
    if len(tile_table) == 0:
        entry_tmask = np.zeros(num_entries, dtype=np.uint64)
    else:
        table_keys = (
            tile_table.gaussian_ids * num_group_ids + tile_table.group_ids
        )
        key_order = np.argsort(table_keys)
        sorted_keys = table_keys[key_order]
        queries = entry_gauss * num_group_ids + entry_group
        pos = np.searchsorted(sorted_keys, queries)
        pos = np.minimum(pos, sorted_keys.shape[0] - 1)
        found = sorted_keys[pos] == queries
        entry_tmask = np.where(
            found, tile_table.masks[key_order[pos]], np.uint64(0)
        )

    # Level 2: tile membership bits of every surviving (gaussian, group)
    # entry — every entry of a non-empty group is checked against every
    # in-image tile of that group, as in the sequential tile loop.
    unique_groups, group_inv = np.unique(entry_group, return_inverse=True)
    tile_tiles, tile_slots, tile_valid = padded_level_layout(
        tile_geometry, unique_groups
    )
    entry_valid = tile_valid[group_inv]
    stats.num_filter_checks += int(np.count_nonzero(entry_valid))
    tmember = mask_bits_set(entry_tmask, tile_slots[group_inv])
    tmember &= entry_valid

    cell_entry, cell_slot = np.nonzero(tmember)
    if cell_entry.size == 0:
        return empty_ids, []
    cell_run = run_id[cell_entry]
    order2 = np.lexsort((cell_entry, cell_slot, cell_run))
    cell_entry = cell_entry[order2]
    cell_slot = cell_slot[order2]
    cell_run = cell_run[order2]

    cell_gauss = entry_gauss[cell_entry]
    cell_tile = tile_tiles[group_inv[cell_entry], cell_slot]

    num_cells = cell_entry.shape[0]
    tile_start = np.empty(num_cells, dtype=bool)
    tile_start[0] = True
    tile_start[1:] = (cell_run[1:] != cell_run[:-1]) | (
        cell_slot[1:] != cell_slot[:-1]
    )
    starts = np.flatnonzero(tile_start)
    ends = np.append(starts[1:], num_cells)
    tile_ids = cell_tile[starts]
    tile_lists = [cell_gauss[s:e] for s, e in zip(starts, ends)]
    return tile_ids, tile_lists


def render_hierarchical_batched(
    renderer: HierarchicalGSTGRenderer,
    cloud: GaussianCloud,
    camera: Camera,
    proj: ProjectedGaussians,
) -> RenderResult:
    """Vectorized ``HierarchicalGSTGRenderer.render`` (bit-identical)."""
    super_geometry = GroupGeometry(
        width=camera.width,
        height=camera.height,
        tile_size=renderer.group_size,
        group_size=renderer.super_size,
    )
    tile_geometry = GroupGeometry(
        width=camera.width,
        height=camera.height,
        tile_size=renderer.tile_size,
        group_size=renderer.group_size,
    )

    # Step 1: supergroup identification.
    super_assignment = identify_tiles_fast(
        proj, super_geometry.group_grid, renderer.method
    )
    stats = RenderStats.for_assignment(
        len(cloud), super_assignment, renderer.method.relative_test_cost
    )

    # Step 2a: group-level bitmasks within each supergroup.
    group_table = generate_bitmasks_fast(
        proj, super_geometry, super_assignment, renderer.method, stats
    )

    # Step 2b: expand set bits into (Gaussian, group) pairs, then
    # generate tile-level bitmasks for those pairs.
    pair_gaussians, pair_groups = expand_group_pairs_fast(
        group_table, super_geometry
    )
    group_assignment = TileAssignment(
        grid=tile_geometry.group_grid,
        method=renderer.method,
        gaussian_ids=pair_gaussians,
        tile_ids=pair_groups,
        num_gaussians=len(proj),
    )
    tile_table = generate_bitmasks_fast(
        proj, tile_geometry, group_assignment, renderer.method, stats
    )

    # Step 3: one segmented lexsort orders every supergroup at once.
    super_sort = sort_groups_batched(
        proj,
        group_table.gaussian_ids,
        group_table.group_ids,
        group_table.masks,
        stats.sort,
    )

    # Step 4: fused two-level filtering, then one batched blend.
    image = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
    if super_sort.group_ids.shape[0]:
        tile_ids, tile_lists = _filter_two_levels(
            super_sort, tile_table, super_geometry, tile_geometry, stats
        )
        blend_tiles_batched(
            proj, tile_geometry.tile_grid, tile_ids, tile_lists, image, stats
        )

    return RenderResult(
        image=image,
        stats=stats,
        projected=proj,
        assignment=super_assignment,
    )
