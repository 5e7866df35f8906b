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


def _pair_overlap_ellipse(
    proj: ProjectedGaussians, pair_ids: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """Exact 3-sigma-ellipse vs rectangle intersection.

    Each rectangle is mapped by the whitening transform that sends its
    Gaussian's ellipse to the unit circle; it becomes a parallelogram,
    and intersection reduces to ``distance(origin, transformed rect) <= 1``.
    """
    inv_axes = 1.0 / (
        SIGMA_EXTENT * np.sqrt(np.maximum(proj.eigvals[pair_ids], 1e-18))
    )
    corners = np.stack(
        [
            rects[:, [0, 1]],
            rects[:, [2, 1]],
            rects[:, [2, 3]],
            rects[:, [0, 3]],
        ],
        axis=1,
    )  # (k, 4, 2)
    rel = corners - proj.means2d[pair_ids][:, None, :]
    # Whitening: w = diag(1/(3 sqrt(lambda))) @ U^T @ (p - mu), as a
    # stacked matmul over the per-pair eigenbases.
    white = np.matmul(rel, proj.eigvecs[pair_ids]) * inv_axes[:, None, :]

    nxt = np.roll(white, -1, axis=1)
    edge = nxt - white
    cross = edge[:, :, 0] * (-white[:, :, 1]) - edge[:, :, 1] * (-white[:, :, 0])
    inside = np.all(cross >= 0.0, axis=1) | np.all(cross <= 0.0, axis=1)

    seg_len2 = np.maximum(np.sum(edge * edge, axis=2), 1e-30)
    t = np.clip(-np.sum(white * edge, axis=2) / seg_len2, 0.0, 1.0)
    closest = white + t[:, :, None] * edge
    dist2 = np.min(np.sum(closest * closest, axis=2), axis=1)

    return inside | (dist2 <= 1.0)


#: Pairs per evaluation of the ellipse test inside :func:`pair_rect_hits`.
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
    :func:`gaussian_rect_hits` pair by pair (the batched formulas perform
    the same elementwise operations in the same order; the ellipse path's
    matmul is a stacked version of the scalar one).
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
        # In blocks: the test's (k, 4, 2) temporaries are ~1 KiB a pair.
        # Every pair's whitening product is a matmul of its own, so
        # blocking cannot change a result.
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
