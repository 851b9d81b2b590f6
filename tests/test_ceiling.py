import warnings

import numpy as np
import pytest

from brainalign.ceiling import CeilingResult, noise_ceiling, normalize_by_ceiling
from brainalign.crossval import make_folds

GRID = np.logspace(-1, 6, 8)


@pytest.fixture(scope="module")
def scheme():
    return make_folds(120, 6)


def _subjects(sigma, n_sub=3, n_vox=10, seed=0):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((120, n_vox))
    return [shared + sigma * rng.standard_normal(shared.shape) for _ in range(n_sub)]


class TestNoiseCeiling:
    def test_identical_subjects_near_one(self, scheme):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((120, 8))
        res = noise_ceiling([Y.copy(), Y.copy(), Y.copy()], scheme, GRID)
        assert (res.per_voxel_ceiling >= 0.99).all()
        assert res.per_subject_ceilings.shape == (3, 8)
        assert res.n_subjects == 3

    def test_monotone_in_noise(self, scheme):
        means = []
        for sigma in (0.5, 1.0, 2.0):
            res = noise_ceiling(_subjects(sigma), scheme, GRID)
            means.append(np.nanmean(res.per_voxel_ceiling))
        assert means[0] > means[1] > means[2]

    def test_pure_noise_near_zero(self, scheme):
        rng = np.random.default_rng(2)
        subs = [rng.standard_normal((120, 10)) for _ in range(3)]
        res = noise_ceiling(subs, scheme, GRID)
        assert abs(np.nanmean(res.per_voxel_ceiling)) < 0.1

    def test_subject_order_invariance(self, scheme):
        subs = _subjects(1.0, seed=3)
        a = noise_ceiling(subs, scheme, GRID)
        b = noise_ceiling([subs[2], subs[0], subs[1]], scheme, GRID)
        # group mean averages the same leave-one-out fits in another order
        assert np.allclose(a.per_voxel_ceiling, b.per_voxel_ceiling, atol=1e-12)
        assert np.allclose(
            np.sort(a.per_subject_ceilings, axis=0),
            np.sort(b.per_subject_ceilings, axis=0),
            atol=1e-12,
        )

    def test_group_is_mean_of_subjects(self, scheme):
        res = noise_ceiling(_subjects(1.0, seed=4), scheme, GRID)
        assert np.allclose(
            res.per_voxel_ceiling, res.per_subject_ceilings.mean(axis=0)
        )

    def test_constant_voxel_is_nan_without_warning(self, scheme):
        subs = _subjects(1.0, seed=6)
        for Y in subs:
            Y[:, 2] = 3.0  # constant in every subject
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = noise_ceiling(subs, scheme, GRID)
        assert np.isnan(res.per_voxel_ceiling[2])
        assert np.isfinite(np.delete(res.per_voxel_ceiling, 2)).all()

    def test_too_few_subjects(self, scheme):
        Y = np.zeros((120, 4))
        with pytest.raises(ValueError, match="3 subjects"):
            noise_ceiling([Y, Y], scheme, GRID)

    def test_shape_mismatch_hard_error(self, scheme):
        rng = np.random.default_rng(5)
        subs = [rng.standard_normal((120, 6)) for _ in range(3)]
        subs[1] = rng.standard_normal((120, 7))
        with pytest.raises(ValueError, match="voxel space"):
            noise_ceiling(subs, scheme, GRID)


class TestNormalizeByCeiling:
    def _ceiling(self, values):
        arr = np.asarray(values, dtype=float)
        return CeilingResult(
            per_voxel_ceiling=arr,
            per_subject_ceilings=np.tile(arr, (3, 1)),
            n_subjects=3,
        )

    def test_simple_division(self):
        out = normalize_by_ceiling([0.2, 0.3], self._ceiling([0.4, 0.6]))
        assert np.allclose(out, [0.5, 0.5])

    def test_floor_applied(self):
        # ceiling 0.02 < floor 0.05: flagged rather than divided
        out = normalize_by_ceiling([0.01, 0.2], self._ceiling([0.02, 0.5]))
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(0.4)

    def test_exact_floor_kept(self):
        out = normalize_by_ceiling([0.05], self._ceiling([0.05]))
        assert out[0] == pytest.approx(1.0)

    def test_nan_ceiling_flagged(self):
        out = normalize_by_ceiling([0.1], self._ceiling([np.nan]))
        assert np.isnan(out[0])

    def test_custom_floor(self):
        out = normalize_by_ceiling([0.1, 0.1], self._ceiling([0.15, 0.05]), floor=0.1)
        assert out[0] == pytest.approx(0.1 / 0.15)
        assert np.isnan(out[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalize_by_ceiling([0.1, 0.2, 0.3], self._ceiling([0.5, 0.5]))
