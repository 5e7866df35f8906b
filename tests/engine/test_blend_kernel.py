"""The live-set blend kernel against its oracle, the per-tile ``blend_tile``.

Frames are built directly in screen space so that every shape the
kernel treats specially is present in each of them: clipped edge tiles,
length-1 lists, a tile that dies long before its list ends, one list
that outlives every other (so the state is compacted several times),
duplicate depths, and a shuffled tile order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batch
from repro.engine.batch import blend_tiles_batched
from repro.raster.blend import blend_tile
from repro.raster.sorting import depth_sort
from repro.raster.stats import RenderStats
from repro.tiles.grid import TileGrid
from tests.conftest import make_projected

WIDTH, HEIGHT, TILE = 70, 45, 16  # 5 x 3 tiles; right column 6 px, bottom row 13 px


def _frame(seed: int):
    """``(proj, grid, tile_ids, tile_lists)`` with every special case in it."""
    rng = np.random.default_rng(seed)
    grid = TileGrid(WIDTH, HEIGHT, TILE)
    faint, solid, mixed = 400, 6, 60
    n = faint + solid + mixed
    means = rng.uniform([-10.0, -10.0], [WIDTH + 10.0, HEIGHT + 10.0], (n, 2))
    sigmas = rng.uniform(0.7, 9.0, (n, 2))
    opacities = rng.uniform(0.05, 0.99, n)
    # Faint, frame-filling Gaussians: the long list made of them blends
    # on every pixel without ever exhausting one.
    sigmas[:faint] = 300.0
    opacities[:faint] = rng.uniform(0.004, 0.012, faint)
    # Solid, frame-filling Gaussians: three of them end any pixel.
    sigmas[faint : faint + solid] = 500.0
    opacities[faint : faint + solid] = 0.99
    proj = make_projected(
        means,
        sigmas,
        rng.uniform(0.0, np.pi, n),
        opacities,
        rng.uniform(0.0, 1.0, (n, 3)),
        # Few distinct depths: ties everywhere, broken by Gaussian id.
        rng.integers(1, 12, n).astype(np.float64),
    )

    def sorted_list(ids):
        ids = np.asarray(ids, dtype=np.int64)
        return depth_sort(proj.depths[ids], ids)

    tile_ids = rng.permutation(grid.num_tiles)[: rng.integers(6, grid.num_tiles + 1)]
    pool = np.arange(faint + solid, n)
    tile_lists = [
        sorted_list(rng.choice(pool, rng.integers(1, 40), replace=False))
        for _ in tile_ids
    ]
    tile_lists[0] = sorted_list(np.arange(faint))              # outlives the rest
    tile_lists[1] = np.concatenate(                            # dead after three
        [np.arange(faint, faint + solid), sorted_list(pool)]
    )
    tile_lists[2] = tile_lists[2][:1]                          # length 1
    tile_lists[3] = np.array([faint], dtype=np.int64)          # length 1, solid
    return proj, grid, tile_ids, tile_lists


def _blend_sequential(proj, grid, tile_ids, tile_lists):
    image = np.zeros((grid.height, grid.width, 3))
    stats = RenderStats()
    for tile_id, sorted_ids in zip(tile_ids, tile_lists):
        tile_id = int(tile_id)
        px, py = grid.tile_pixels(tile_id)
        before = stats.raster.num_alpha_computations
        result = blend_tile(proj, sorted_ids, px, py, stats.raster)
        stats.per_tile_alpha[tile_id] = (
            stats.raster.num_alpha_computations - before
        )
        x0, y0, x1, y1 = (int(v) for v in grid.tile_rect(tile_id))
        image[y0:y1, x0:x1] = result.color
    return image, stats


def _blend_batched(proj, grid, tile_ids, tile_lists):
    image = np.zeros((grid.height, grid.width, 3))
    stats = RenderStats()
    blend_tiles_batched(proj, grid, tile_ids, tile_lists, image, stats)
    return image, stats


def _assert_identical(got, want):
    image, stats = got
    want_image, want_stats = want
    assert image.tobytes() == want_image.tobytes()
    assert stats == want_stats
    assert list(stats.per_tile_alpha) == list(want_stats.per_tile_alpha)


class TestAgainstBlendTile:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bytes_and_stats_match(self, seed):
        frame = _frame(seed)
        _assert_identical(_blend_batched(*frame), _blend_sequential(*frame))

    def test_frame_has_the_special_cases(self):
        proj, grid, tile_ids, tile_lists = _frame(7)
        _, stats = _blend_sequential(proj, grid, tile_ids, tile_lists)
        sizes = [grid.num_pixels_in_tile(int(t)) for t in tile_ids]
        assert min(sizes) < TILE * TILE == max(sizes)
        assert {len(ids) for ids in tile_lists} >= {1, 400}
        # The long list runs to its end on every pixel of its tile ...
        assert stats.per_tile_alpha[int(tile_ids[0])] == 400 * sizes[0]
        # ... and the solid tile stops after three of its 66 Gaussians.
        assert stats.per_tile_alpha[int(tile_ids[1])] == 3 * sizes[1]
        assert stats.raster.num_early_exit_pixels >= sizes[1]


class TestCompaction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_and_always_compacting_agree(self, seed, monkeypatch):
        frame = _frame(seed)
        want = _blend_batched(*frame)
        for live_fraction in (0.0, 1.0):
            monkeypatch.setattr(batch, "_COMPACT_BELOW", live_fraction)
            _assert_identical(_blend_batched(*frame), want)


class TestArguments:
    def test_tile_ids_may_be_a_list(self):
        proj, grid, tile_ids, tile_lists = _frame(3)
        _assert_identical(
            _blend_batched(proj, grid, tile_ids.tolist(), tile_lists),
            _blend_batched(proj, grid, tile_ids, tile_lists),
        )

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misaligned_tile_ids_rejected(self, extra):
        proj, grid, tile_ids, tile_lists = _frame(3)
        ids = tile_ids[:extra] if extra < 0 else np.append(tile_ids, 0)
        image = np.zeros((grid.height, grid.width, 3))
        with pytest.raises(ValueError, match="aligned"):
            blend_tiles_batched(proj, grid, ids, tile_lists, image)
        assert not image.any()
