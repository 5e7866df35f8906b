"""``pair_rect_hits`` evaluates the ellipse test in blocks of 4096 pairs:
the blocks must tile the input exactly and change no result."""

import numpy as np
import pytest

from repro.tiles.boundary import (
    _ELLIPSE_BLOCK,
    BoundaryMethod,
    _pair_overlap_ellipse,
    pair_rect_hits,
)
from tests.conftest import make_projected


@pytest.mark.parametrize("pairs", [4095, 4096, 4097, 10_000])
def test_blocked_equals_one_shot(pairs):
    assert _ELLIPSE_BLOCK == 4096
    rng = np.random.default_rng(pairs)
    n = 300
    proj = make_projected(
        rng.uniform(0.0, 256.0, (n, 2)),
        rng.uniform(0.6, 12.0, (n, 2)),
        rng.uniform(0.0, np.pi, n),
        np.full(n, 0.5),
        np.zeros((n, 3)),
        np.ones(n),
    )
    pair_ids = rng.integers(0, n, pairs)
    # 16-px tiles within reach of their Gaussian: a fair mix of hits and
    # misses, each decided by its own 4x2 @ 2x2 product.
    origin = np.floor(
        (proj.means2d[pair_ids] + rng.uniform(-30.0, 30.0, (pairs, 2))) / 16.0
    ) * 16.0
    rects = np.concatenate([origin, origin + 16.0], axis=1)

    hits = pair_rect_hits(proj, pair_ids, rects, BoundaryMethod.ELLIPSE)
    one_shot = _pair_overlap_ellipse(proj, pair_ids, rects)
    assert hits.dtype == np.bool_ and hits.shape == (pairs,)
    assert np.array_equal(hits, one_shot)
    assert 0.2 < hits.mean() < 0.8
