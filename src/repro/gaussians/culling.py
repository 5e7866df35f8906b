"""View-frustum and opacity culling.

The preprocessing stage of 3D-GS (Fig. 1) removes Gaussians that cannot
contribute to the current view before any further computation: points
behind the near plane / beyond the far plane, points projecting far outside
the image, and Gaussians whose opacity is below the 1/255 alpha threshold
(they can never pass the rasteriser's alpha cut).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud

#: Opacity below which a Gaussian can never influence any pixel (Eq. 1 cut).
MIN_OPACITY = 1.0 / 255.0

#: Guard band, in multiples of the image half-extent, kept around the image
#: so large Gaussians centred slightly off-screen still rasterise.  The
#: reference implementation uses 1.3.
FRUSTUM_MARGIN = 1.3


@dataclass(frozen=True)
class CullingResult:
    """Outcome of the culling pass.

    Attributes
    ----------
    visible:
        Boolean mask over the input cloud; True = kept.
    num_input:
        Total number of Gaussians tested.
    num_depth_culled:
        Gaussians rejected by the near/far depth test.
    num_frustum_culled:
        Gaussians (with valid depth) rejected for projecting outside the
        guard-banded image rectangle.
    num_opacity_culled:
        Remaining Gaussians rejected for opacity < 1/255.
    """

    visible: np.ndarray
    num_input: int
    num_depth_culled: int
    num_frustum_culled: int
    num_opacity_culled: int


def cull(cloud: GaussianCloud, camera: Camera) -> CullingResult:
    """Classify each Gaussian as visible or culled for ``camera``.

    The three tests are applied in pipeline order (depth, frustum,
    opacity); each counter records Gaussians rejected by that test after
    surviving the previous ones, so the counters and the number of
    ``visible`` entries sum to ``num_input``.
    """
    points_cam = camera.world_to_camera(cloud.positions)
    depths = points_cam[:, 2]

    depth_ok = (depths > camera.near) & (depths < camera.far)

    # Guard-banded NDC test: |x/z| and |y/z| within margin * tan(half fov).
    z_safe = np.where(depth_ok, depths, 1.0)
    ndc_x = points_cam[:, 0] / z_safe
    ndc_y = points_cam[:, 1] / z_safe
    in_frustum = (
        (np.abs(ndc_x) <= FRUSTUM_MARGIN * camera.tan_half_fov_x)
        & (np.abs(ndc_y) <= FRUSTUM_MARGIN * camera.tan_half_fov_y)
    )

    opacity_ok = cloud.opacities >= MIN_OPACITY

    visible = depth_ok & in_frustum & opacity_ok
    num_depth = int(np.count_nonzero(~depth_ok))
    num_frustum = int(np.count_nonzero(depth_ok & ~in_frustum))
    num_opacity = int(np.count_nonzero(depth_ok & in_frustum & ~opacity_ok))

    return CullingResult(
        visible=visible,
        num_input=len(cloud),
        num_depth_culled=num_depth,
        num_frustum_culled=num_frustum,
        num_opacity_culled=num_opacity,
    )
