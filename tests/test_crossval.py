import tracemalloc
import warnings

import numpy as np
import pytest

from brainalign import crossval, ridge
from brainalign.crossval import (
    DEFAULT_LAMBDA_GRID,
    EncodingResult,
    _fold_ttest_pvalues,
    _lambda_scores,
    _nanmean_cols,
    fit_encoding,
    make_folds,
    score_alignment,
    select_lambda,
)
from brainalign.stats import pearson_columns, student_t_sf


class TestMakeFolds:
    def test_even_split(self):
        scheme = make_folds(12, 6)
        assert scheme.assignment.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_remainder_to_earliest(self):
        scheme = make_folds(13, 6)
        sizes = [scheme.test_indices(f).size for f in range(6)]
        assert sizes == [3, 2, 2, 2, 2, 2]

    def test_recording_scale_split(self):
        scheme = make_folds(1075, 6)
        sizes = sorted((scheme.test_indices(f).size for f in range(6)), reverse=True)
        assert sizes == [180, 179, 179, 179, 179, 179]

    def test_contiguous_blocks(self):
        scheme = make_folds(50, 7)
        assert (np.diff(scheme.assignment) >= 0).all()

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_folds(11, 6)
        with pytest.raises(ValueError):
            make_folds(10, 1)


@pytest.fixture(scope="module")
def scheme():
    return make_folds(120, 6)


class TestFitEncoding:
    def test_noiseless_recovery(self, scheme):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((120, 5))
        Y = X @ rng.standard_normal((5, 8))
        res = fit_encoding(X, Y, scheme)
        assert (res.mean_correlation >= 0.999).all()
        assert res.significant_mask.all()

    def test_shapes(self, scheme):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((120, 4))
        Y = rng.standard_normal((120, 7))
        res = fit_encoding(X, Y, scheme)
        assert res.cv_predictions.shape == (120, 7)
        assert res.fold_correlations.shape == (6, 7)
        assert res.selected_lambda.shape == (6, 7)
        assert res.mean_correlation.shape == (7,)
        valid = ~np.isnan(res.fold_correlations)
        assert (np.abs(res.fold_correlations[valid]) <= 1.0).all()
        p = res.significance_pvalues
        assert ((p[~np.isnan(p)] >= 0) & (p[~np.isnan(p)] <= 1)).all()
        # mask consistent with p < alpha
        expect = p < res.alpha
        expect[np.isnan(p)] = False
        assert np.array_equal(res.significant_mask, expect)

    def test_no_leakage_heldout_corruption(self, scheme):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((120, 5))
        Y = X @ rng.standard_normal((5, 6)) + 0.5 * rng.standard_normal((120, 6))
        res = fit_encoding(X, Y, scheme, keep_weights=True)
        for fold in (0, 3):
            Y2 = Y.copy()
            te = scheme.test_indices(fold)
            Y2[te] = rng.standard_normal((te.size, 6)) * 100
            res2 = fit_encoding(X, Y2, scheme, keep_weights=True)
            # corrupting held-out rows leaves that fold's model untouched
            assert np.array_equal(res.fold_weights[fold], res2.fold_weights[fold])
            assert np.array_equal(res.selected_lambda[fold], res2.selected_lambda[fold])
            assert np.array_equal(res.cv_predictions[te], res2.cv_predictions[te])

    def test_each_row_predicted_once_by_heldout_model(self, scheme):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((120, 5))
        Y = rng.standard_normal((120, 4))
        res = fit_encoding(X, Y, scheme, keep_weights=True)
        # rebuild each fold's prediction from its stored weights
        for fold in range(6):
            tr = scheme.train_indices(fold)
            te = scheme.test_indices(fold)
            xm, xs = X[tr].mean(0), X[tr].std(0)
            ym, ys = Y[tr].mean(0), Y[tr].std(0)
            pred = ((X[te] - xm) / xs) @ res.fold_weights[fold] * ys + ym
            assert np.allclose(pred, res.cv_predictions[te])

    def test_voxel_permutation_equivariance(self, scheme):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((120, 5))
        Y = rng.standard_normal((120, 6))
        perm = rng.permutation(6)
        res = fit_encoding(X, Y, scheme)
        res_p = fit_encoding(X, Y[:, perm], scheme)
        assert np.array_equal(res.mean_correlation[perm], res_p.mean_correlation)
        assert np.array_equal(res.selected_lambda[:, perm], res_p.selected_lambda)
        assert np.array_equal(res.significant_mask[perm], res_p.significant_mask)

    def test_constant_shift_invariance(self, scheme):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((120, 5))
        Y = rng.standard_normal((120, 3))
        res = fit_encoding(X, Y, scheme)
        res_s = fit_encoding(X, Y + 17.0, scheme)
        assert np.allclose(res.fold_correlations, res_s.fold_correlations, atol=1e-10)

    def test_constant_voxel_flagged(self, scheme):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((120, 5))
        Y = rng.standard_normal((120, 3))
        Y[:, 1] = 2.5
        res = fit_encoding(X, Y, scheme)
        assert np.isnan(res.mean_correlation[1])
        assert not res.significant_mask[1]
        assert np.isfinite(res.mean_correlation[[0, 2]]).all()

    def test_few_folds_rejected(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((20, 2))
        with pytest.raises(ValueError, match="3 folds"):
            fit_encoding(X, Y, make_folds(20, 2))

    def test_snr_monotonicity(self, scheme):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((120, 5))
        signal = X @ rng.standard_normal((5, 10))
        signal /= signal.std(0)
        noise = rng.standard_normal((120, 10))
        means = []
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            Y = frac * signal + (1 - frac) * noise
            res = fit_encoding(X, Y, scheme)
            means.append(np.nanmean(res.mean_correlation))
        assert (np.diff(means) > 0).all()

    def test_bh_mode(self, scheme):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((120, 5))
        Y = rng.standard_normal((120, 40))
        res = fit_encoding(X, Y, scheme, fdr="bh")
        # BH under the complete null selects (almost always) nothing
        assert res.significant_mask.sum() <= fit_encoding(X, Y, scheme).significant_mask.sum()


class TestStackedTargets:
    @pytest.mark.parametrize("p", [6, 150])  # p < n, and p > n (rank truncated)
    def test_stacked_fit_matches_per_subject_fits(self, scheme, p):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((120, p))
        Ys = [
            X[:, :4] @ rng.standard_normal((4, v)) + rng.standard_normal((120, v))
            for v in (3, 7, 5)
        ]
        Ys[1][:, 2] = 1.0  # a constant voxel
        stacked = fit_encoding(X, np.hstack(Ys), scheme)
        splits = np.cumsum([Y.shape[1] for Y in Ys])[:-1]
        lams = np.split(stacked.selected_lambda, splits, axis=1)
        rs = np.split(stacked.mean_correlation, splits)
        for Y, lam, r in zip(Ys, lams, rs):
            alone = fit_encoding(X, Y, scheme)
            assert np.array_equal(lam, alone.selected_lambda)
            np.testing.assert_allclose(r, alone.mean_correlation, rtol=0, atol=1e-12)


class TestNanmeanCols:
    def test_equals_numpy_nanmean_without_warning(self):
        rng = np.random.default_rng(12)
        arr = rng.standard_normal((40, 5))
        arr[rng.random(arr.shape) < 0.3] = np.nan
        arr[:, 3] = np.nan
        with pytest.warns(RuntimeWarning):
            expected = np.nanmean(arr, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_nanmean_cols(arr), expected, equal_nan=True)
            for col in np.delete(arr, 3, axis=1).T:  # 1-D, as the CLI summaries pass it
                assert _nanmean_cols(col) == np.nanmean(col)
            assert np.isnan(_nanmean_cols(arr[:, 3]))


def _reference_lambda_scores(X, Y, inner_folds, grid):
    """Scores from explicit weights: ridge.solve, X_te @ W, pearson_columns.
    Returns (mean scores with -inf where no fold is finite, fold counts)."""
    scheme = make_folds(X.shape[0], inner_folds)
    scores = np.zeros((grid.size, Y.shape[1]))
    counts = np.zeros((grid.size, Y.shape[1]))
    for fold in range(inner_folds):
        tr = scheme.train_indices(fold)
        te = scheme.test_indices(fold)
        path = ridge.factor(X[tr])
        for gi, lam in enumerate(grid):
            r = pearson_columns(X[te] @ ridge.solve(path, Y[tr], lam), Y[te])
            ok = ~np.isnan(r)
            scores[gi, ok] += r[ok]
            counts[gi, ok] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = scores / counts
    mean[counts == 0] = -np.inf
    return mean, counts


def _reference_select(mean_scores, grid):
    # first maximum scanning from the largest lambda down
    return np.array(
        [grid[max(np.flatnonzero(col == col.max()))] for col in mean_scores.T]
    )


def _design(kind, rng):
    if kind == "p<n":
        return rng.standard_normal((60, 8))
    if kind == "p>n":
        return rng.standard_normal((40, 80))
    # rank 3 in 10 columns, with a duplicated column
    X = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 10))
    X[:, 9] = X[:, 0]
    return X


class TestSelectLambda:
    GRID = DEFAULT_LAMBDA_GRID
    INNER = 5

    def _check(self, X, Y):
        got = _lambda_scores(X, Y, self.INNER, self.GRID)
        ref, counts = _reference_lambda_scores(X, Y, self.INNER, self.GRID)
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        finite = np.isfinite(ref)
        assert np.abs(got[finite] - ref[finite]).max() <= 1e-12
        assert np.array_equal(
            select_lambda(X, Y, self.INNER, self.GRID), _reference_select(ref, self.GRID)
        )
        return counts

    @pytest.mark.parametrize("kind", ["p<n", "p>n", "rank-deficient"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_explicit_weights(self, kind, seed):
        rng = np.random.default_rng(seed)
        X = _design(kind, rng)
        Y = X @ rng.standard_normal((X.shape[1], 6)) + rng.standard_normal((X.shape[0], 6))
        Y = np.hstack([Y, rng.standard_normal((X.shape[0], 6))])
        self._check(X, Y)

    def test_designs_cover_truncated_rank(self):
        rng = np.random.default_rng(0)
        wide = _design("p>n", rng)
        assert ridge.factor(wide[:32]).rank == 32 < wide.shape[1]
        deficient = _design("rank-deficient", rng)
        assert ridge.factor(deficient[:40]).rank == 3

    def test_constant_target_in_one_fold_is_left_out(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 8))
        Y = X @ rng.standard_normal((8, 3)) + rng.standard_normal((60, 3))
        te = make_folds(60, self.INNER).test_indices(2)
        Y[te, 0] = 1.0
        counts = self._check(X, Y)
        assert (counts[:, 0] == self.INNER - 1).all()
        assert (counts[:, 1:] == self.INNER).all()

    def test_no_finite_score_ties_to_largest_lambda(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 8))
        Y = rng.standard_normal((60, 3))
        Y[:, 1] = 0.0  # zero everywhere
        Y[:, 2] = make_folds(60, self.INNER).assignment * 1.0  # constant per fold
        counts = self._check(X, Y)
        assert (counts[:, 1:] == 0).all()
        assert (select_lambda(X, Y, self.INNER, self.GRID)[1:] == self.GRID[-1]).all()

    def test_exact_tie_breaks_toward_larger_lambda(self, monkeypatch):
        grid = np.array([0.1, 1.0, 10.0, 100.0])
        tied = np.array([[0.5, 0.2], [0.7, 0.2], [0.7, 0.1], [0.3, 0.2]])
        monkeypatch.setattr(crossval, "_lambda_scores", lambda *args: tied)
        got = select_lambda(np.zeros((20, 2)), np.zeros((20, 2)), self.INNER, grid)
        assert got.tolist() == [10.0, 100.0]

    def test_peak_memory_below_one_weight_tensor(self):
        rng = np.random.default_rng(13)
        p, v = 64, 5000
        X = rng.standard_normal((200, p))
        Y = rng.standard_normal((200, v))
        weight_tensor = self.GRID.size * p * v * 8
        tracemalloc.start()
        try:
            select_lambda(X, Y, self.INNER, self.GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weight_tensor


class TestFoldTtestPvalues:
    @staticmethod
    def _reference(col, test_to_train):
        x = col[~np.isnan(col)]
        if x.size < 3 or x.std(ddof=1) == 0.0:
            return np.nan
        t = x.mean() / (x.std(ddof=1) * np.sqrt(1.0 / x.size + test_to_train))
        return student_t_sf(float(t), x.size - 1)

    def test_matches_per_column_reference(self):
        rng = np.random.default_rng(12)
        fold_r = rng.normal(0.05, 0.2, size=(6, 40))
        fold_r[0, 3] = np.nan  # 5 valid folds
        fold_r[:2, 4] = np.nan  # 4 valid folds
        got = _fold_ttest_pvalues(fold_r, test_to_train=0.2)
        ref = np.array([self._reference(fold_r[:, j], 0.2) for j in range(40)])
        assert np.isfinite(got).all()
        assert np.abs(got - ref).max() <= 1e-15

    def test_degenerate_columns_are_nan(self):
        rng = np.random.default_rng(13)
        fold_r = rng.normal(0.1, 0.2, size=(6, 5))
        fold_r[:4, 0] = np.nan  # 2 valid folds
        fold_r[:, 1] = np.nan  # no valid fold
        fold_r[:, 2] = 0.3  # zero variance
        fold_r[:3, 3] = np.nan
        fold_r[3:, 3] = 0.3  # 3 valid folds, zero variance
        p = _fold_ttest_pvalues(fold_r, test_to_train=0.2)
        assert np.isnan(p[:4]).all()
        assert np.isfinite(p[4])


class TestScoreAlignment:
    def _result(self, mean_corr):
        v = len(mean_corr)
        return EncodingResult(
            cv_predictions=np.zeros((6, v)),
            fold_correlations=np.zeros((3, v)),
            mean_correlation=np.asarray(mean_corr, dtype=float),
            selected_lambda=np.zeros((3, v)),
            significance_pvalues=np.zeros(v),
            significant_mask=np.ones(v, dtype=bool),
            alpha=0.05,
        )

    def test_uniform(self):
        res = self._result([0.3, 0.3, 0.3])
        assert score_alignment(res, [0, 1, 2]) == pytest.approx(0.3)

    def test_single_voxel(self):
        res = self._result([0.1, 0.9])
        assert score_alignment(res, [1]) == pytest.approx(0.9)

    def test_direct_mean_oracle(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(-1, 1, 20)
        res = self._result(vals)
        subset = rng.choice(20, size=7, replace=False)
        assert score_alignment(res, subset) == pytest.approx(vals[subset].mean())

    def test_empty_flag(self):
        res = self._result([0.1])
        assert np.isnan(score_alignment(res, []))

    def test_flagged_excluded(self):
        res = self._result([0.2, np.nan, 0.4])
        assert score_alignment(res, [0, 1, 2]) == pytest.approx(0.3)
