import numpy as np
import pytest

from brainalign.crossval import fit_encoding, make_folds
from brainalign.residual import remove_information

GRID = np.logspace(-1, 6, 8)


@pytest.fixture(scope="module")
def scheme():
    return make_folds(120, 6)


def _var_ratio(resid, original):
    return resid.var(axis=0).sum() / original.var(axis=0).sum()


class TestRemoveInformation:
    def test_self_removal_collapses(self, scheme):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((120, 8))
        assert _var_ratio(remove_information(A, A, scheme, GRID), A) < 0.01

    def test_linear_image_collapses(self, scheme):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((120, 8))
        B = A @ rng.standard_normal((8, 5))
        assert _var_ratio(remove_information(A, B, scheme, GRID), B) < 0.01

    def test_independent_retained(self, scheme):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((120, 8))
        B = rng.standard_normal((120, 8))
        ratio = _var_ratio(remove_information(A, B, scheme, GRID), B)
        assert 0.9 < ratio < 1.2

    def test_planted_structure_partial(self, scheme):
        # B = half explained by A, half independent: residual keeps only
        # the independent half and an independent probe still decodes it
        rng = np.random.default_rng(3)
        A = rng.standard_normal((120, 6))
        C = rng.standard_normal((120, 6))
        B = A @ rng.standard_normal((6, 10)) + C @ rng.standard_normal((6, 10))
        resid = remove_information(A, B, scheme, GRID)
        res_a = fit_encoding(A, resid, scheme, lambda_grid=GRID)
        res_c = fit_encoding(C, resid, scheme, lambda_grid=GRID)
        assert np.nanmean(res_c.mean_correlation) > 0.8
        assert np.nanmean(res_a.mean_correlation) < np.nanmean(res_c.mean_correlation) - 0.5

    def test_residual_not_predictable_from_source(self, scheme):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((120, 6))
        B = A @ rng.standard_normal((6, 8)) + 0.3 * rng.standard_normal((120, 8))
        resid = remove_information(A, B, scheme, GRID)
        res = fit_encoding(A, resid, scheme, lambda_grid=GRID)
        assert np.nanmean(res.mean_correlation) < 0.15

    def test_near_idempotent(self, scheme):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((120, 6))
        B = A @ rng.standard_normal((6, 8)) + rng.standard_normal((120, 8))
        once = remove_information(A, B, scheme, GRID)
        twice = remove_information(A, once, scheme, GRID)
        assert _var_ratio(twice, once) > 0.9

    def test_asymmetric(self, scheme):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((120, 4))
        B = np.hstack([A @ rng.standard_normal((4, 4)), rng.standard_normal((120, 8))])
        ab = _var_ratio(remove_information(A, B, scheme, GRID), B)
        ba = _var_ratio(remove_information(B, A, scheme, GRID), A)
        # B has structure beyond A; A is (nearly) inside B's span
        assert ba < 0.05 < ab

    def test_explained_block_removed_rest_retained(self, scheme):
        rng = np.random.default_rng(10)
        truth = rng.standard_normal((120, 5))
        extra = rng.standard_normal((120, 5))
        joint = np.hstack([truth, extra])
        resid = remove_information(truth, joint, scheme, GRID)
        assert _var_ratio(resid[:, :5], joint[:, :5]) < 0.05
        assert _var_ratio(resid[:, 5:], joint[:, 5:]) > 0.9

    def test_in_sample_tighter_than_cv(self, scheme):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((120, 8))
        B = A @ rng.standard_normal((8, 5)) + 0.1 * rng.standard_normal((120, 5))
        cv = _var_ratio(remove_information(A, B, scheme, GRID), B)
        ins = _var_ratio(remove_information(A, B, scheme, GRID, in_sample=True), B)
        assert ins <= cv

    def test_output_shape_and_units(self, scheme):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((120, 5))
        B = 50.0 + 3.0 * rng.standard_normal((120, 7))
        resid = remove_information(A, B, scheme, GRID)
        assert resid.shape == B.shape
        # removal of an unrelated source keeps B's offset out of the residual
        assert abs(resid.mean()) < 1.0

    def test_row_mismatch(self, scheme):
        with pytest.raises(ValueError):
            remove_information(np.zeros((10, 2)), np.zeros((12, 2)), scheme)
