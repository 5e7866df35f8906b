"""Unit tests for the GaussianCloud container."""

import dataclasses

import numpy as np
import pytest

from repro.gaussians.cloud import GaussianCloud, cloud_fingerprint
from tests.conftest import make_cloud


class TestValidation:
    def test_len(self, small_cloud):
        assert len(small_cloud) == 60

    def test_sh_degree(self, small_cloud):
        assert small_cloud.sh_degree == 1

    def test_rejects_mismatched_scales(self, rng):
        cloud = make_cloud(5, rng)
        with pytest.raises(ValueError):
            GaussianCloud(
                positions=cloud.positions,
                scales=cloud.scales[:3],
                rotations=cloud.rotations,
                opacities=cloud.opacities,
                sh_coeffs=cloud.sh_coeffs,
            )

    def test_rejects_negative_scales(self, rng):
        cloud = make_cloud(5, rng)
        bad = cloud.scales.copy()
        bad[0, 0] = -1.0
        with pytest.raises(ValueError):
            GaussianCloud(cloud.positions, bad, cloud.rotations, cloud.opacities, cloud.sh_coeffs)

    def test_rejects_out_of_range_opacity(self, rng):
        cloud = make_cloud(5, rng)
        bad = cloud.opacities.copy()
        bad[0] = 1.5
        with pytest.raises(ValueError):
            GaussianCloud(cloud.positions, cloud.scales, cloud.rotations, bad, cloud.sh_coeffs)

    def test_rejects_bad_sh_count(self, rng):
        cloud = make_cloud(5, rng)
        with pytest.raises(ValueError):
            GaussianCloud(
                cloud.positions,
                cloud.scales,
                cloud.rotations,
                cloud.opacities,
                np.zeros((5, 5, 3)),
            )

    def test_rotations_normalised_on_construction(self, rng):
        cloud = make_cloud(5, rng)
        scaled = GaussianCloud(
            cloud.positions,
            cloud.scales,
            cloud.rotations * 3.0,
            cloud.opacities,
            cloud.sh_coeffs,
        )
        assert np.allclose(np.linalg.norm(scaled.rotations, axis=1), 1.0)


class TestOperations:
    def test_covariances_shape(self, small_cloud):
        cov = small_cloud.covariances_3d()
        assert cov.shape == (len(small_cloud), 3, 3)

    def test_subset_preserves_rows(self, small_cloud):
        idx = np.array([3, 7, 11])
        sub = small_cloud.subset(idx)
        assert len(sub) == 3
        assert np.array_equal(sub.positions, small_cloud.positions[idx])
        assert np.array_equal(sub.opacities, small_cloud.opacities[idx])

    def test_subset_with_mask(self, small_cloud):
        mask = np.zeros(len(small_cloud), dtype=bool)
        mask[:10] = True
        assert len(small_cloud.subset(mask)) == 10

    def test_concatenate_lengths(self, rng):
        a = make_cloud(4, rng)
        b = make_cloud(6, rng)
        merged = GaussianCloud.concatenate([a, b])
        assert len(merged) == 10
        assert np.array_equal(merged.positions[:4], a.positions)

    def test_concatenate_empty_list_rejected(self):
        with pytest.raises(ValueError):
            GaussianCloud.concatenate([])

    def test_concatenate_mixed_degrees_rejected(self, rng):
        a = make_cloud(4, rng, sh_degree=0)
        b = make_cloud(4, rng, sh_degree=1)
        with pytest.raises(ValueError):
            GaussianCloud.concatenate([a, b])


class TestFingerprint:
    def test_equal_content_clouds_fingerprint_equal(self):
        """Fingerprints follow content, not object identity."""
        cloud = make_cloud(40, np.random.default_rng(9))
        twin = make_cloud(40, np.random.default_rng(9))
        assert cloud is not twin
        assert cloud_fingerprint(cloud) == cloud_fingerprint(twin)

    @pytest.mark.parametrize(
        "field", ["positions", "scales", "rotations", "opacities", "sh_coeffs"]
    )
    def test_changing_any_parameter_array_changes_it(self, field):
        cloud = make_cloud(40, np.random.default_rng(9))
        array = getattr(cloud, field).copy()
        array.flat[0] *= 0.5
        changed = dataclasses.replace(cloud, **{field: array})
        assert cloud_fingerprint(changed) != cloud_fingerprint(cloud)
