import tracemalloc
import warnings

import numpy as np
import pytest

from brainalign import crossval, ridge
from brainalign.crossval import (
    DEFAULT_LAMBDA_GRID,
    EncodingResult,
    _lambda_scores,
    _nanmean_cols,
    fit_encoding,
    fit_fold,
    fit_subjects,
    make_folds,
    score_alignment,
    select_lambda,
)
from brainalign.ceiling import noise_ceiling
from brainalign.residual import remove_information
from brainalign.stats import pearson_columns, student_t_sf, t_test


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
        for fold in (0, 3):
            Y2 = Y.copy()
            tr, te = scheme.train_indices(fold), scheme.test_indices(fold)
            Y2[te] = rng.standard_normal((te.size, 6)) * 100
            pred, lam, W = fit_fold(X, Y, tr, te, 5, DEFAULT_LAMBDA_GRID, keep_weights=True)
            pred2, lam2, W2 = fit_fold(X, Y2, tr, te, 5, DEFAULT_LAMBDA_GRID, keep_weights=True)
            # corrupting held-out rows leaves that fold's model untouched
            assert np.array_equal(W, W2)
            assert np.array_equal(lam, lam2)
            assert np.array_equal(pred, pred2)

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
            held_out, _, _ = fit_fold(X, Y, tr, te, 5, DEFAULT_LAMBDA_GRID)
            assert np.allclose(pred, held_out)
            # the fit's fold correlations score exactly these predictions
            assert np.array_equal(res.fold_correlations[fold], pearson_columns(held_out, Y[te]))

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

    @pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3])
    def test_constant_voxel_with_inexact_mean_flagged(self, scheme, value):
        """A constant whose mean does not round exactly centres to the same
        rounding error in every row; it must still read as flagged, not as
        perfectly (or perfectly anti-) predicted."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((120, 5))
        Y = rng.standard_normal((120, 3))
        Y[:, 1] = value
        res = fit_encoding(X, Y, scheme)
        assert np.isnan(res.fold_correlations[:, 1]).all()
        assert np.isnan(res.mean_correlation[1])
        assert np.isnan(res.significance_pvalues[1])
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
        fits = fit_subjects(X, Ys, scheme, fdr="bh")
        assert np.isnan(fits[1].mean_correlation[2])
        for Y, part in zip(Ys, fits, strict=True):
            alone = fit_encoding(X, Y, scheme, fdr="bh")
            assert np.array_equal(part.selected_lambda, alone.selected_lambda)
            assert np.array_equal(part.significant_mask, alone.significant_mask)
            for name in ("fold_correlations", "mean_correlation", "significance_pvalues"):
                np.testing.assert_allclose(
                    getattr(part, name), getattr(alone, name), rtol=0, atol=1e-12, err_msg=name
                )


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


def _svd_lambda_scores(X, Y, inner_folds, grid):
    """The scoring with every inner design factored by the SVD, as the final
    fits are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ridge, "factor_gram", ridge.factor)
        return _lambda_scores(X, Y, inner_folds, grid)


class TestGramScoring:
    GRID = DEFAULT_LAMBDA_GRID
    INNER = 5

    @pytest.mark.parametrize("kind", ["p<n", "p>n", "rank-deficient", "low-rank+noise"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_svd_route(self, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "low-rank+noise":
            X = rng.standard_normal((100, 5)) @ rng.standard_normal((5, 300))
            X += 1e-3 * rng.standard_normal(X.shape)
        else:
            X = _design(kind, rng)
        n = X.shape[0]
        Y = X @ rng.standard_normal((X.shape[1], 5)) + rng.standard_normal((n, 5))
        Y = np.hstack([Y, rng.standard_normal((n, 4)), np.ones((n, 1))])
        got = _lambda_scores(X, Y, self.INNER, self.GRID)
        ref = _svd_lambda_scores(X, Y, self.INNER, self.GRID)
        assert np.isneginf(ref[:, -1]).all() and np.isfinite(ref[:, :-1]).all()
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        assert np.abs(got[:, :-1] - ref[:, :-1]).max() <= 1e-10
        assert np.array_equal(
            select_lambda(X, Y, self.INNER, self.GRID), _reference_select(ref, self.GRID)
        )


class TestTrainStats:
    @pytest.mark.parametrize(
        "shape", [(250, 20000), (500, 4000), (100, 128), (100, 6), (101, 7)]
    )
    def test_scale_is_numpy_std_bits(self, shape):
        rng = np.random.default_rng(shape[1])
        arr = 4.0 + 3.0 * rng.standard_normal(shape)
        arr[:, 1] = 0.25  # constant
        mean, std = arr.mean(axis=0), arr.std(axis=0)
        work = arr.copy()
        got_mean, scale, flagged = crossval._train_stats(work)
        assert np.array_equal(got_mean, mean)
        assert np.array_equal(flagged, std == 0.0) and flagged[1] and flagged.sum() == 1
        assert np.array_equal(scale, np.where(flagged, 1.0, std))
        assert np.array_equal(work, (arr - mean) / scale)

    @pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3])
    def test_constant_with_inexact_mean_flagged(self, value):
        arr = np.random.default_rng(3).standard_normal((100, 3))
        arr[:, 1] = value
        centred = arr[:, 1] - arr[:, 1].mean()
        assert centred.any() and np.ptp(centred) == 0.0  # one rounding error in every row
        _, scale, flagged = crossval._train_stats(arr)
        assert flagged.tolist() == [False, True, False]
        assert scale[1] == 1.0
        assert not arr[:, 1].any()


def _reference_fit_fold(X, Y, train_idx, test_idx, inner_folds, grid):
    """The fold kernel with explicit-weight λ scoring and one ridge.solve per
    distinct selected λ, on boolean column copies of the training targets."""
    xm, xs, _ = crossval._train_stats(X[train_idx])
    ym, ys, _ = crossval._train_stats(Y[train_idx])
    Xtr = (X[train_idx] - xm) / xs
    Ytr = (Y[train_idx] - ym) / ys
    Xte = (X[test_idx] - xm) / xs
    lam_sel = _reference_select(_reference_lambda_scores(Xtr, Ytr, inner_folds, grid)[0], grid)
    path = ridge.factor(Xtr)
    W = np.empty((X.shape[1], Y.shape[1]))
    for lam in np.unique(lam_sel):
        cols = lam_sel == lam
        W[:, cols] = ridge.solve(path, Ytr[:, cols], float(lam))
    return (Xte @ W) * ys + ym, lam_sel, W


class TestFitFold:
    GRID = DEFAULT_LAMBDA_GRID
    INNER = 5

    @staticmethod
    def _data(kind, seed):
        rng = np.random.default_rng(seed)
        X = _design(kind, rng)
        n = X.shape[0]
        Y = X @ rng.standard_normal((X.shape[1], 5)) + rng.standard_normal((n, 5))
        Y = np.hstack([3.0 + 2.0 * Y, rng.standard_normal((n, 4)), np.ones((n, 1))])
        return X, Y  # signal, noise and one constant column

    @pytest.mark.parametrize("kind", ["p<n", "p>n", "rank-deficient"])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_per_lambda_solve(self, kind, seed):
        X, Y = self._data(kind, seed)
        scheme = make_folds(X.shape[0], 4)
        selected = set()
        for fold in range(scheme.n_folds):
            tr, te = scheme.train_indices(fold), scheme.test_indices(fold)
            pred, lam, W = crossval.fit_fold(
                X, Y, tr, te, self.INNER, self.GRID, keep_weights=True
            )
            ref_pred, ref_lam, ref_W = _reference_fit_fold(X, Y, tr, te, self.INNER, self.GRID)
            assert np.array_equal(lam, ref_lam)
            np.testing.assert_allclose(W, ref_W, rtol=0, atol=1e-12)
            np.testing.assert_allclose(pred, ref_pred, rtol=0, atol=1e-12)
            assert lam[-1] == self.GRID[-1] and not W[:, -1].any()
            selected.update(lam[:-1].tolist())
        assert len(selected) > 1  # the solve really shrinks columns differently

    def test_inputs_unchanged(self):
        X, Y = self._data("p<n", 0)
        X0, Y0 = X.copy(), Y.copy()
        scheme = make_folds(X.shape[0], 4)
        select_lambda(X, Y, self.INNER, self.GRID)
        for fold in range(scheme.n_folds):
            crossval.fit_fold(
                X, Y, scheme.train_indices(fold), scheme.test_indices(fold), self.INNER, self.GRID
            )
        assert np.array_equal(X, X0) and np.array_equal(Y, Y0)


class TestTargetBlocks:
    """The column blocks a fold takes its targets in change no answer."""

    N_TRAIN = 100  # training rows of an outer fold of make_folds(120, 6)
    # one column per block, 3 + 3 + 1 columns, and one block for all 7
    WIDTHS = {"1": 8 * N_TRAIN, "3": 3 * 8 * N_TRAIN}

    @staticmethod
    def _data():
        rng = np.random.default_rng(14)
        X = rng.standard_normal((120, 6))
        Y = 5.0 + X @ rng.standard_normal((6, 7)) + rng.standard_normal((120, 7))
        Y[:, 2] = 3.0  # constant
        Y[40:60, 4] = 1.0  # constant in an inner test fold of outer fold 0
        return X, Y

    def _blocked(self, monkeypatch, width, fn):
        with monkeypatch.context() as mp:
            mp.setattr(crossval, "BLOCK_BYTES", self.WIDTHS[width])
            assert len(crossval._target_blocks(7, self.N_TRAIN)) == {"1": 7, "3": 3}[width]
            return fn()

    @staticmethod
    def _close(got, ref, err_msg=""):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12, err_msg=err_msg)

    @pytest.mark.parametrize("width", ["1", "3"])
    def test_fit_encoding(self, monkeypatch, scheme, width):
        X, Y = self._data()

        def fit():
            return fit_encoding(X, Y, scheme, fdr="bh", keep_weights=True)

        ref = fit()
        got = self._blocked(monkeypatch, width, fit)
        assert np.isnan(ref.mean_correlation[2]) and np.isfinite(ref.mean_correlation[4])
        assert np.array_equal(got.selected_lambda, ref.selected_lambda)
        assert np.array_equal(got.significant_mask, ref.significant_mask)
        for name in ("fold_correlations", "mean_correlation", "significance_pvalues"):
            self._close(getattr(got, name), getattr(ref, name), err_msg=name)
        for W, W_ref in zip(got.fold_weights, ref.fold_weights, strict=True):
            self._close(W, W_ref)
        # the held-out predictions, in response units, that the fold scores
        tr, te = scheme.train_indices(0), scheme.test_indices(0)
        held_out = lambda: fit_fold(X, Y, tr, te, 5, DEFAULT_LAMBDA_GRID)[0]
        self._close(self._blocked(monkeypatch, width, held_out), held_out())

    @pytest.mark.parametrize("width", ["1", "3"])
    def test_select_lambda(self, monkeypatch, width):
        X, Y = self._data()
        Xtr, Ytr = X[20:].copy(), Y[20:].copy()
        crossval._train_stats(Xtr)
        crossval._train_stats(Ytr)
        ref = _lambda_scores(Xtr, Ytr, 5, DEFAULT_LAMBDA_GRID)
        got = self._blocked(monkeypatch, width, lambda: _lambda_scores(Xtr, Ytr, 5, DEFAULT_LAMBDA_GRID))
        assert np.isneginf(ref[:, 2]).all()
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        self._close(got[:, ref[0] > -np.inf], ref[:, ref[0] > -np.inf])

    @pytest.mark.parametrize("width", ["1", "3"])
    @pytest.mark.parametrize("in_sample", [False, True])
    def test_remove_information(self, monkeypatch, scheme, width, in_sample):
        X, Y = self._data()
        ref = remove_information(X, Y, scheme, in_sample=in_sample)
        got = self._blocked(
            monkeypatch, width, lambda: remove_information(X, Y, scheme, in_sample=in_sample)
        )
        self._close(got, ref)

    @pytest.mark.parametrize("width", ["1", "3"])
    def test_noise_ceiling(self, monkeypatch, scheme, width):
        X, Y = self._data()
        rng = np.random.default_rng(15)
        subjects = [Y + rng.standard_normal(Y.shape) for _ in range(3)]
        for sub in subjects:
            sub[:, 2] = 1.0
        ref = noise_ceiling(subjects, scheme)
        got = self._blocked(monkeypatch, width, lambda: noise_ceiling(subjects, scheme))
        assert np.isnan(ref.per_voxel_ceiling[2])
        self._close(got.per_subject_ceilings, ref.per_subject_ceilings)

    def test_weights_only_under_keep_weights(self, scheme):
        X, Y = self._data()
        tr, te = scheme.train_indices(1), scheme.test_indices(1)
        assert crossval.fit_fold(X, Y, tr, te, 5, DEFAULT_LAMBDA_GRID)[2] is None
        assert fit_encoding(X, Y, scheme).fold_weights == []

    def test_memory_is_bounded_by_one_block(self, monkeypatch):
        monkeypatch.setattr(crossval, "BLOCK_BYTES", 2**20, raising=False)
        rng = np.random.default_rng(16)
        n, v = 120, 20_000
        X = rng.standard_normal((n, 8))
        Y = rng.standard_normal((n, v))
        scheme = make_folds(n, 6)
        tracemalloc.start()
        try:
            res = fit_encoding(X, Y, scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = sum(
            getattr(res, name).nbytes
            for name in ("fold_correlations", "mean_correlation", "selected_lambda",
                         "significance_pvalues", "significant_mask")
        )
        # one copy of an outer fold's training targets
        assert peak - result < self.N_TRAIN * v * 8


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
        got = t_test(fold_r, extra_var=0.2)[1]
        ref = np.array([self._reference(fold_r[:, j], 0.2) for j in range(40)])
        assert np.isfinite(got).all()
        assert np.abs(got - ref).max() <= 1e-15

    def test_degenerate_columns_are_nan(self):
        rng = np.random.default_rng(13)
        fold_r = rng.normal(0.1, 0.2, size=(6, 6))
        fold_r[:4, 0] = np.nan  # 2 valid folds
        fold_r[:, 1] = np.nan  # no valid fold
        fold_r[:, 2] = 0.3  # zero variance
        fold_r[:3, 3] = np.nan
        fold_r[3:, 3] = 0.3  # 3 valid folds, zero variance
        fold_r[:, 4] = 0.1  # zero variance, but a mean that does not round exactly
        p = t_test(fold_r, extra_var=0.2)[1]
        assert np.isnan(p[:5]).all()
        assert np.isfinite(p[5])


class TestScoreAlignment:
    def _result(self, mean_corr):
        v = len(mean_corr)
        return EncodingResult(
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
