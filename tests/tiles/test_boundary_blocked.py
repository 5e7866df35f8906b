"""``pair_rect_hits`` evaluates the ellipse test in blocks of 4096 pairs:
the blocks must tile the input exactly and change no result.

The vectorised test is also checked bit for bit against a written-out
scalar reference: the same products, in the same order, one pair at a
time in Python floats.  Generated pairs include eigenvalues at and
below the ``1e-18`` floor, rectangles tangent to the ellipse, and
zero-width clipped edge tiles.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.projection import SIGMA_EXTENT
from repro.tiles.boundary import (
    _ELLIPSE_BLOCK,
    BoundaryMethod,
    _pair_overlap_ellipse,
    _whitened_rect_distance,
    bounding_rects,
    pair_rect_hits,
)
from tests.conftest import make_projected


def scalar_whitened_rect_distance(proj, i, rect) -> "tuple[bool, float]":
    """One pair of ``_whitened_rect_distance``, written out in Python floats.

    Corners are walked in boundary order (x0, y0), (x1, y0), (x1, y1),
    (x0, y1); a corner at offset ``(X, Y)`` from the mean whitens to
    ``((X*u00 + Y*u10)*ia, (X*u01 + Y*u11)*ib)``.
    """
    mx, my = proj.means2d[i].tolist()
    (u00, u01), (u10, u11) = proj.eigvecs[i].tolist()
    la, lb = proj.eigvals[i].tolist()
    ia = 1.0 / (SIGMA_EXTENT * math.sqrt(max(la, 1e-18)))
    ib = 1.0 / (SIGMA_EXTENT * math.sqrt(max(lb, 1e-18)))
    x0, y0, x1, y1 = (float(v) for v in rect)
    white = []
    for px, py in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
        X, Y = px - mx, py - my
        white.append(((X * u00 + Y * u10) * ia, (X * u01 + Y * u11) * ib))
    crosses, dists = [], []
    for c in range(4):
        wx, wy = white[c]
        ex, ey = white[(c + 1) % 4][0] - wx, white[(c + 1) % 4][1] - wy
        crosses.append(wx * ey - wy * ex)
        seg_len2 = max(ex * ex + ey * ey, 1e-30)
        t = min(max(-(wx * ex + wy * ey) / seg_len2, 0.0), 1.0)
        px, py = wx + t * ex, wy + t * ey
        dists.append(px * px + py * py)
    inside = all(c >= 0.0 for c in crosses) or all(c <= 0.0 for c in crosses)
    return inside, min(dists)


def _generated_pairs(seed: int, pairs: int = 256):
    """Pairs that stress the ellipse test where its decision is closest.

    Half the footprints are axis-aligned with power-of-two sigmas and
    integer means, so their bounding rectangles are exact and a rectangle
    built on one is tangent to the ellipse; an eighth get eigenvalues at
    or under the ``1e-18`` floor; a quarter of the rectangles have zero
    width or height, like a tile clipped at the image's edge.
    """
    rng = np.random.default_rng(seed)
    n = 48
    aligned = rng.random(n) < 0.5
    sigmas = np.where(
        aligned[:, None],
        2.0 ** rng.integers(-1, 4, (n, 2)),
        rng.uniform(0.3, 12.0, (n, 2)),
    )
    means = np.where(
        aligned[:, None],
        rng.integers(0, 256, (n, 2)).astype(float),
        rng.uniform(0.0, 256.0, (n, 2)),
    )
    angles = np.where(aligned, 0.0, rng.uniform(0.0, np.pi, n))
    proj = make_projected(
        means, sigmas, angles, np.full(n, 0.5), np.zeros((n, 3)), np.ones(n)
    )
    floored = rng.random(n) < 0.125
    eigvals = proj.eigvals.copy()
    eigvals[floored, 1] = rng.choice([0.0, 1e-30, 1e-18, 2e-18], floored.sum())
    proj = dataclasses.replace(proj, eigvals=eigvals)

    pair_ids = rng.integers(0, n, pairs)
    size = rng.choice([1.0, 4.0, 16.0], (pairs, 2))
    origin = np.floor(proj.means2d[pair_ids] + rng.uniform(-30.0, 30.0, (pairs, 2)))
    rects = np.concatenate([origin, origin + size], axis=1)
    # Tangent: the rectangle starts where the ellipse's bounding box
    # ends, right, left, below or above it, and spans the mean across.
    tangent = rng.random(pairs) < 0.4
    box = bounding_rects(proj, BoundaryMethod.ELLIPSE)[pair_ids[tangent]]
    mx, my = proj.means2d[pair_ids[tangent]].T
    w, h = size[tangent].T
    side = rng.integers(0, 4, tangent.sum())
    x0 = np.choose(side, [box[:, 2], box[:, 0] - w, mx - w / 2, mx - w / 2])
    y0 = np.choose(side, [my - h / 2, my - h / 2, box[:, 3], box[:, 1] - h])
    rects[tangent] = np.stack([x0, y0, x0 + w, y0 + h], axis=1)
    # Zero-width or zero-height clipped edge tiles.
    clipped = rng.random(pairs) < 0.25
    axis = rng.integers(0, 2, clipped.sum())
    rows = np.flatnonzero(clipped)
    rects[rows, axis + 2] = rects[rows, axis]
    return proj, pair_ids, rects


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
    # misses, each decided by its own four corners.
    origin = np.floor(
        (proj.means2d[pair_ids] + rng.uniform(-30.0, 30.0, (pairs, 2))) / 16.0
    ) * 16.0
    rects = np.concatenate([origin, origin + 16.0], axis=1)

    hits = pair_rect_hits(proj, pair_ids, rects, BoundaryMethod.ELLIPSE)
    one_shot = _pair_overlap_ellipse(proj, pair_ids, rects)
    assert hits.dtype == np.bool_ and hits.shape == (pairs,)
    assert np.array_equal(hits, one_shot)
    assert 0.2 < hits.mean() < 0.8
    # Column-major rects (the bitmask kernel's layout) change nothing.
    assert np.array_equal(
        pair_rect_hits(
            proj, pair_ids, np.asfortranarray(rects), BoundaryMethod.ELLIPSE
        ),
        hits,
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_vectorised_equals_scalar_reference_bit_for_bit(seed):
    proj, pair_ids, rects = _generated_pairs(seed)
    inside, dist2 = _whitened_rect_distance(proj, pair_ids, rects)
    want = [
        scalar_whitened_rect_distance(proj, int(i), rect)
        for i, rect in zip(pair_ids, rects)
    ]
    assert inside.tolist() == [w[0] for w in want]
    assert dist2.view(np.uint64).tolist() == (
        np.array([w[1] for w in want]).view(np.uint64).tolist()
    )
    # The decision follows, block by block.
    hits = pair_rect_hits(proj, pair_ids, rects, BoundaryMethod.ELLIPSE)
    assert np.array_equal(hits, [w[0] or w[1] <= 1.0 for w in want])


def test_generated_pairs_reach_the_boundary():
    """The generator does produce the cases it is meant to: decisions at
    the unit circle, floored axes and zero-width rectangles."""
    proj, pair_ids, rects = _generated_pairs(0, 2048)
    _, dist2 = _whitened_rect_distance(proj, pair_ids, rects)
    assert np.count_nonzero(np.abs(dist2 - 1.0) < 1e-12) >= 10
    assert np.any(proj.eigvals[pair_ids, 1] <= 1e-18)
    assert np.any(rects[:, 0] == rects[:, 2]) and np.any(rects[:, 1] == rects[:, 3])
