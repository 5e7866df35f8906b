"""The ``GaussianCloud`` container: the learnable scene representation.

Holds the raw 3D-GS parameters the paper's preprocessing stage consumes
(Fig. 1 left): centre positions (``3D_XYZ``), scale + rotation factorising
the 3D covariance (``3D_Cov``), opacity (sigma) and spherical-harmonics
colour coefficients (``SHs``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.gaussians.covariance import build_3d_covariances
from repro.gaussians.rotation import normalize_quaternions
from repro.gaussians.sh import MAX_SH_DEGREE

#: Attribute used to memoise a cloud's content fingerprint on the cloud
#: object itself (inherited by forked workers for free).
_FINGERPRINT_ATTR = "_content_fingerprint"


@dataclass
class GaussianCloud:
    """A batch of 3D Gaussians with learnable appearance parameters.

    Attributes
    ----------
    positions:
        ``(n, 3)`` world-space centres (``3D_XYZ``).
    scales:
        ``(n, 3)`` per-axis standard deviations (positive).
    rotations:
        ``(n, 4)`` unit quaternions ``(w, x, y, z)``.
    opacities:
        ``(n,)`` opacity (sigma) in ``[0, 1]``.
    sh_coeffs:
        ``(n, k, 3)`` spherical-harmonics coefficients per colour channel,
        with ``k = (degree + 1)^2``.
    """

    positions: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    sh_coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.scales = np.asarray(self.scales, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        self.opacities = np.asarray(self.opacities, dtype=np.float64)
        self.sh_coeffs = np.asarray(self.sh_coeffs, dtype=np.float64)

        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {self.positions.shape}")
        n = self.positions.shape[0]
        if self.scales.shape != (n, 3):
            raise ValueError(f"scales must be ({n}, 3), got {self.scales.shape}")
        if self.rotations.shape != (n, 4):
            raise ValueError(f"rotations must be ({n}, 4), got {self.rotations.shape}")
        if self.opacities.shape != (n,):
            raise ValueError(f"opacities must be ({n},), got {self.opacities.shape}")
        if (
            self.sh_coeffs.ndim != 3
            or self.sh_coeffs.shape[0] != n
            or self.sh_coeffs.shape[2] != 3
        ):
            raise ValueError(f"sh_coeffs must be ({n}, k, 3), got {self.sh_coeffs.shape}")
        k = self.sh_coeffs.shape[1]
        degree = int(np.sqrt(k)) - 1
        if (degree + 1) ** 2 != k or degree > MAX_SH_DEGREE:
            raise ValueError(f"sh_coeffs k={k} is not (d+1)^2 for d <= {MAX_SH_DEGREE}")
        if np.any(self.scales <= 0.0):
            raise ValueError("scales must be strictly positive")
        if np.any((self.opacities < 0.0) | (self.opacities > 1.0)):
            raise ValueError("opacities must lie in [0, 1]")
        self.rotations = normalize_quaternions(self.rotations)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def sh_degree(self) -> int:
        """Maximum SH degree stored in this cloud."""
        return int(np.sqrt(self.sh_coeffs.shape[1])) - 1

    def covariances_3d(self) -> np.ndarray:
        """Assemble ``(n, 3, 3)`` world-space covariance matrices."""
        return build_3d_covariances(self.scales, self.rotations)

    def subset(self, indices: np.ndarray) -> "GaussianCloud":
        """Return a new cloud containing only the selected Gaussians."""
        indices = np.asarray(indices)
        return GaussianCloud(
            positions=self.positions[indices],
            scales=self.scales[indices],
            rotations=self.rotations[indices],
            opacities=self.opacities[indices],
            sh_coeffs=self.sh_coeffs[indices],
        )

    @staticmethod
    def concatenate(clouds: "list[GaussianCloud]") -> "GaussianCloud":
        """Merge several clouds into one (used by the scene synthesiser)."""
        if not clouds:
            raise ValueError("cannot concatenate an empty list of clouds")
        degrees = {c.sh_degree for c in clouds}
        if len(degrees) != 1:
            raise ValueError(f"clouds mix SH degrees {sorted(degrees)}")
        return GaussianCloud(
            positions=np.concatenate([c.positions for c in clouds]),
            scales=np.concatenate([c.scales for c in clouds]),
            rotations=np.concatenate([c.rotations for c in clouds]),
            opacities=np.concatenate([c.opacities for c in clouds]),
            sh_coeffs=np.concatenate([c.sh_coeffs for c in clouds]),
        )


def cloud_fingerprint(cloud: GaussianCloud) -> str:
    """Content hash of a cloud's parameter arrays (memoised per object).

    Two clouds with equal parameters fingerprint identically in any
    process — unlike ``id(cloud)``, which only survives fork.
    """
    cached = getattr(cloud, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for name in ("positions", "scales", "rotations", "opacities", "sh_coeffs"):
        array = np.ascontiguousarray(getattr(cloud, name))
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    fingerprint = digest.hexdigest()
    setattr(cloud, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint
