"""Gaussian-vs-rectangle boundary tests: AABB, OBB and exact Ellipse.

These are the three methods of Fig. 2.  All three agree on the underlying
footprint — the 3-sigma ellipse of the projected 2D Gaussian — and differ
only in how tightly they test it against a tile rectangle:

* ``AABB``  — the original 3D-GS: a circumscribed axis-aligned square of
  half-width ``3 * sqrt(lambda_max)``; cheapest, loosest.
* ``OBB``   — GSCore: the oriented 3-sigma bounding box, tested with the
  separating-axis theorem; tighter, moderately more expensive.
* ``ELLIPSE`` — FlashGS: the exact ellipse-rectangle intersection; tightest
  and most expensive per test.

Every test here is *conservatively exact with respect to its boundary
shape*: the ellipse test returns True iff the closed 3-sigma ellipse
geometrically intersects the closed rectangle.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.gaussians.projection import SIGMA_EXTENT, ProjectedGaussians


class BoundaryMethod(str, Enum):
    """Boundary shapes used to decide Gaussian-tile intersection (Fig. 2)."""

    AABB = "aabb"
    OBB = "obb"
    ELLIPSE = "ellipse"

    #: Relative per-rectangle test cost used by the GPU timing model
    #: (AABB is a pure range computation; OBB runs a 4-axis SAT; the
    #: ellipse test whitens the rectangle and measures distances).
    @property
    def relative_test_cost(self) -> float:
        return {"aabb": 1.0, "obb": 3.0, "ellipse": 6.0}[self.value]


def obb_half_extents(proj: ProjectedGaussians) -> np.ndarray:
    """Per-Gaussian half extents ``(3*sqrt(l1), 3*sqrt(l2))`` of the OBB."""
    return SIGMA_EXTENT * np.sqrt(proj.eigvals)


def bounding_rect(proj: ProjectedGaussians, i: int, method: BoundaryMethod) -> "tuple":
    """Screen-space AABB of Gaussian ``i``'s boundary shape.

    Used to enumerate candidate tiles before the per-rectangle refinement.
    For ``AABB`` this *is* the boundary (a square of half-width ``radii``);
    for OBB/ELLIPSE it is the tight axis-aligned box of the oriented shape.
    """
    mx, my = proj.means2d[i]
    if method is BoundaryMethod.AABB:
        r = proj.radii[i]
        return mx - r, my - r, mx + r, my + r
    if method is BoundaryMethod.OBB:
        a, b = obb_half_extents(proj)[i]
        u = proj.eigvecs[i, :, 0]
        v = proj.eigvecs[i, :, 1]
        hx = a * abs(u[0]) + b * abs(v[0])
        hy = a * abs(u[1]) + b * abs(v[1])
        return mx - hx, my - hy, mx + hx, my + hy
    # Ellipse: the tight AABB of the 3-sigma ellipse has half extents
    # 3*sqrt(diagonal of the covariance).
    hx = SIGMA_EXTENT * np.sqrt(proj.cov2d[i, 0, 0])
    hy = SIGMA_EXTENT * np.sqrt(proj.cov2d[i, 1, 1])
    return mx - hx, my - hy, mx + hx, my + hy


def bounding_rects(proj: ProjectedGaussians, method: BoundaryMethod) -> np.ndarray:
    """Vectorised :func:`bounding_rect`: ``(m, 4)`` rects for all Gaussians.

    Produces bit-identical values to calling :func:`bounding_rect` per
    Gaussian — every arithmetic step mirrors the scalar path elementwise.
    """
    mx = proj.means2d[:, 0]
    my = proj.means2d[:, 1]
    if method is BoundaryMethod.AABB:
        r = proj.radii
        return np.stack([mx - r, my - r, mx + r, my + r], axis=1)
    if method is BoundaryMethod.OBB:
        half = obb_half_extents(proj)
        a = half[:, 0]
        b = half[:, 1]
        u = proj.eigvecs[:, :, 0]
        v = proj.eigvecs[:, :, 1]
        hx = a * np.abs(u[:, 0]) + b * np.abs(v[:, 0])
        hy = a * np.abs(u[:, 1]) + b * np.abs(v[:, 1])
        return np.stack([mx - hx, my - hy, mx + hx, my + hy], axis=1)
    hx = SIGMA_EXTENT * np.sqrt(proj.cov2d[:, 0, 0])
    hy = SIGMA_EXTENT * np.sqrt(proj.cov2d[:, 1, 1])
    return np.stack([mx - hx, my - hy, mx + hx, my + hy], axis=1)


def _pair_overlap_aabb(
    proj: ProjectedGaussians, pair_ids: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """Axis-aligned square (half-width ``radii``) vs rectangles, per pair."""
    mx = proj.means2d[pair_ids, 0]
    my = proj.means2d[pair_ids, 1]
    r = proj.radii[pair_ids]
    return (
        (rects[:, 0] <= mx + r)
        & (rects[:, 2] >= mx - r)
        & (rects[:, 1] <= my + r)
        & (rects[:, 3] >= my - r)
    )


def _pair_overlap_obb(
    proj: ProjectedGaussians, pair_ids: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """Separating-axis test: oriented 3-sigma boxes vs rectangles, per pair."""
    mx = proj.means2d[pair_ids, 0]
    my = proj.means2d[pair_ids, 1]
    half = obb_half_extents(proj)[pair_ids]
    a = half[:, 0]
    b = half[:, 1]
    u = proj.eigvecs[pair_ids][:, :, 0]
    v = proj.eigvecs[pair_ids][:, :, 1]
    u0 = np.abs(u[:, 0])
    u1 = np.abs(u[:, 1])
    v0 = np.abs(v[:, 0])
    v1 = np.abs(v[:, 1])

    cx = 0.5 * (rects[:, 0] + rects[:, 2])
    cy = 0.5 * (rects[:, 1] + rects[:, 3])
    hw = 0.5 * (rects[:, 2] - rects[:, 0])
    hh = 0.5 * (rects[:, 3] - rects[:, 1])
    dx = cx - mx
    dy = cy - my

    sep_x = np.abs(dx) > (a * u0 + b * v0 + hw)
    sep_y = np.abs(dy) > (a * u1 + b * v1 + hh)
    du = dx * u[:, 0] + dy * u[:, 1]
    sep_u = np.abs(du) > (a + hw * u0 + hh * u1)
    dv = dx * v[:, 0] + dy * v[:, 1]
    sep_v = np.abs(dv) > (b + hw * v0 + hh * v1)

    return ~(sep_x | sep_y | sep_u | sep_v)


def _whitened_rect_distance(
    proj: ProjectedGaussians, pair_ids: np.ndarray, rects: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Each rectangle seen from its Gaussian's whitened frame.

    The whitening transform sends the Gaussian's 3-sigma ellipse to the
    unit circle and the rectangle to a parallelogram.  Returns ``(inside,
    dist2)`` per pair: whether the origin lies inside that parallelogram,
    and the squared distance from the origin to its boundary.

    Every per-corner quantity is a flat ``(4, k)`` array, one row per
    corner, and every formula is written out once as elementwise
    products and sums in one fixed order.  A corner at offset ``(X, Y)``
    from the mean whitens to

        wx = (X*u00 + Y*u10) * ia,    wy = (X*u01 + Y*u11) * ib

    with ``u`` the eigenvector matrix (eigenvectors as columns) and
    ``ia, ib`` the inverse 3-sigma half axes.  A pair's result therefore
    depends on that pair alone and equals the same arithmetic done one
    scalar at a time, which ``tests/tiles/test_boundary_blocked.py``
    checks bit for bit.
    """
    k = pair_ids.shape[0]
    eigvals, eigvecs, means = proj.eigvals, proj.eigvecs, proj.means2d
    ia = 1.0 / (SIGMA_EXTENT * np.sqrt(np.maximum(eigvals[:, 0][pair_ids], 1e-18)))
    ib = 1.0 / (SIGMA_EXTENT * np.sqrt(np.maximum(eigvals[:, 1][pair_ids], 1e-18)))
    u00, u01 = eigvecs[:, 0, 0][pair_ids], eigvecs[:, 0, 1][pair_ids]
    u10, u11 = eigvecs[:, 1, 0][pair_ids], eigvecs[:, 1, 1][pair_ids]
    # Rows (x0, x1) and (y0, y1) of offsets from the mean, C-ordered so
    # that every (4, k) array below is too.
    columns = np.ascontiguousarray(rects.T)
    xs = columns[0::2] - means[:, 0][pair_ids]
    ys = columns[1::2] - means[:, 1][pair_ids]

    # Each product is formed once and broadcast over the corner grid
    # (y0, y1) x (x0, x1), whose rows are the corners (x0, y0), (x1, y0),
    # (x0, y1), (x1, y1).  Walking the rectangle's boundary visits them
    # in the order 0, 1, 3, 2: edge c runs from corner c to corner nxt[c].
    wx = ((xs * u00)[None] + (ys * u10)[:, None]).reshape(4, k) * ia
    wy = ((xs * u01)[None] + (ys * u11)[:, None]).reshape(4, k) * ib
    nxt = [1, 3, 0, 2]
    ex = wx[nxt] - wx
    ey = wy[nxt] - wy

    # The origin is inside iff it lies on the same side of all four edges.
    cross = wx * ey - wy * ex
    inside = (cross >= 0.0).all(axis=0) | (cross <= 0.0).all(axis=0)

    # Squared distance to the closest point of each edge.
    seg_len2 = np.maximum(ex * ex + ey * ey, 1e-30)
    t = np.minimum(np.maximum(-(wx * ex + wy * ey) / seg_len2, 0.0), 1.0)
    px = wx + t * ex
    py = wy + t * ey
    return inside, (px * px + py * py).min(axis=0)


def _pair_overlap_ellipse(
    proj: ProjectedGaussians, pair_ids: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """Exact 3-sigma-ellipse vs rectangle intersection.

    The rectangle meets the ellipse iff, in the whitened frame, it
    contains the origin or comes within distance 1 of it.
    """
    inside, dist2 = _whitened_rect_distance(proj, pair_ids, rects)
    return inside | (dist2 <= 1.0)


#: Pairs per evaluation of the ellipse test inside :func:`pair_rect_hits`.
#: The test keeps about a dozen ``(4, k)`` float64 temporaries alive, so a
#: block of 4096 pairs stays near 1.5 MiB, inside a 2 MiB L2.  Swept on
#: the two bench scenes (24 frames; GS-TG bitmask / baseline identify in
#: ms per frame, 2-core Xeon VM): 2048 -> 5.5 / 4.2, 4096 -> 5.0 / 4.1,
#: 8192 -> 7.2 / 5.7, unblocked -> 8.2 / 7.1.
_ELLIPSE_BLOCK = 4096


def pair_rect_hits(
    proj: ProjectedGaussians,
    pair_ids: np.ndarray,
    rects: np.ndarray,
    method: BoundaryMethod,
) -> np.ndarray:
    """Vectorised :func:`gaussian_rect_hits` over (Gaussian, rect) pairs.

    Parameters
    ----------
    proj:
        Projected Gaussians.
    pair_ids:
        ``(k,)`` Gaussian index per pair (repeats allowed).
    rects:
        ``(k, 4)`` rectangle per pair, aligned with ``pair_ids``.
    method:
        Which boundary shape to test.

    Returns
    -------
    ``(k,)`` boolean hit mask, bit-identical to evaluating the scalar
    :func:`gaussian_rect_hits` pair by pair (every method's formulas are
    elementwise operations on per-pair columns, performed in the same
    order whatever the batch).
    """
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    rects = np.asarray(rects, dtype=np.float64)
    if rects.ndim != 2 or rects.shape[1] != 4:
        raise ValueError(f"rects must be (k, 4), got {rects.shape}")
    if pair_ids.shape[0] != rects.shape[0]:
        raise ValueError("pair_ids and rects must be aligned")
    if pair_ids.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if method is BoundaryMethod.AABB:
        return _pair_overlap_aabb(proj, pair_ids, rects)
    if method is BoundaryMethod.OBB:
        return _pair_overlap_obb(proj, pair_ids, rects)
    if method is BoundaryMethod.ELLIPSE:
        # In blocks, so that the test's temporaries stay in cache.
        # Every operation is elementwise per pair (or a reduction
        # over one pair's four corners), so blocking cannot change a
        # result.
        hits = np.empty(pair_ids.shape[0], dtype=bool)
        for start in range(0, pair_ids.shape[0], _ELLIPSE_BLOCK):
            block = slice(start, start + _ELLIPSE_BLOCK)
            hits[block] = _pair_overlap_ellipse(
                proj, pair_ids[block], rects[block]
            )
        return hits
    raise ValueError(f"unknown boundary method: {method!r}")


def gaussian_rect_hits(
    proj: ProjectedGaussians,
    i: int,
    rects: np.ndarray,
    method: BoundaryMethod,
) -> np.ndarray:
    """Test Gaussian ``i`` of ``proj`` against a batch of pixel rectangles.

    Parameters
    ----------
    proj:
        Projected Gaussians.
    i:
        Index into ``proj`` (not the source cloud).
    rects:
        ``(k, 4)`` rectangles ``(x0, y0, x1, y1)``.
    method:
        Which boundary shape to test.

    Returns
    -------
    ``(k,)`` boolean hit mask.
    """
    rects = np.asarray(rects, dtype=np.float64)
    if rects.ndim != 2 or rects.shape[1] != 4:
        raise ValueError(f"rects must be (k, 4), got {rects.shape}")
    pair_ids = np.full(rects.shape[0], i, dtype=np.int64)
    return pair_rect_hits(proj, pair_ids, rects, method)
