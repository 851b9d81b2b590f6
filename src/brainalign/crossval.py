"""Cross-validated encoding pipeline.

Contiguous-block outer cross-validation with nested inner cross-validation
selecting a per-target regularization value; every sample receives a
held-out prediction from the model not trained on its fold. Block folds
(never shuffled) avoid temporal leakage on autocorrelated recordings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from brainalign import ridge
from brainalign.stats import bh_fdr, pearson_columns, student_t_sf

DEFAULT_LAMBDA_GRID = np.logspace(-1, 8, 10)
DEFAULT_INNER_FOLDS = 5


@dataclass(frozen=True)
class FoldScheme:
    """Contiguous, balanced assignment of samples to folds."""

    n_samples: int
    n_folds: int
    assignment: np.ndarray  # per-sample fold index

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def make_folds(n_samples: int, n_folds: int) -> FoldScheme:
    """Contiguous blocks; sizes differ by at most 1, remainder to the
    earliest folds; deterministic."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_samples < 2 * n_folds:
        raise ValueError(f"need n_samples >= 2*n_folds, got {n_samples} < {2 * n_folds}")
    base, rem = divmod(n_samples, n_folds)
    sizes = [base + 1 if i < rem else base for i in range(n_folds)]
    assignment = np.repeat(np.arange(n_folds), sizes)
    return FoldScheme(n_samples=n_samples, n_folds=n_folds, assignment=assignment)


@dataclass
class EncodingResult:
    """Per-voxel cross-validated predictions and fold statistics."""

    cv_predictions: np.ndarray  # n x v, original response units
    fold_correlations: np.ndarray  # n_folds x v
    mean_correlation: np.ndarray  # v
    selected_lambda: np.ndarray  # n_folds x v
    significance_pvalues: np.ndarray  # v
    significant_mask: np.ndarray  # v, bool
    alpha: float
    fold_weights: list = field(default_factory=list, repr=False)


def _train_stats(arr: np.ndarray):
    """Per-column mean/scale from training rows; constant columns get
    scale 1 and are flagged."""
    mean = arr.mean(axis=0)
    scale = arr.std(axis=0)
    flagged = scale == 0.0
    scale = np.where(flagged, 1.0, scale)
    return mean, scale, flagged


def select_lambda(
    X: np.ndarray,
    Y: np.ndarray,
    inner_folds: int,
    lambda_grid: np.ndarray,
) -> np.ndarray:
    """Per-column regularization choice by contiguous inner CV.

    Scores each grid value by the mean inner-held-out Pearson correlation
    per column; ties break toward the larger (stronger) value. A fold
    whose correlation is NaN (zero spread in the prediction or the
    held-out target) is left out of that column's mean; a column with no
    finite score at all gets the largest value.
    Inputs are expected already centered/scaled by the caller.

    Scoring happens in the SVD basis of each inner training design and
    never forms ridge weights: memory is one held-out n_te x v block per
    grid value, not a g x p x v weight tensor.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    mean_scores = _lambda_scores(X, Y, inner_folds, grid)
    # argmax with ties toward the larger lambda: scan the reversed grid
    rev_best = np.argmax(mean_scores[::-1], axis=0)
    return grid[grid.size - 1 - rev_best]


def _lambda_scores(X, Y, inner_folds, grid):
    """Mean inner-held-out correlation per grid value and column, g x v;
    -inf where no fold gives a finite score.

    With X_tr = U diag(s) V^T, the held-out prediction for lam is
    (X_te V) diag(s / (s^2 + lam)) (U^T Y_tr). It is linear in X_te V, so
    centring those r columns once centres every lam's prediction, and the
    held-out targets are centred and normed once per fold.
    """
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("lambda grid must be nonempty and positive")
    scheme = make_folds(X.shape[0], inner_folds)
    v = Y.shape[1]
    scores = np.zeros((grid.size, v))
    counts = np.zeros((grid.size, v))
    for fold in range(inner_folds):
        tr = scheme.train_indices(fold)
        te = scheme.test_indices(fold)
        if te.size < 3:
            raise ValueError("need at least 3 samples in every inner test fold")
        path = ridge.factor(X[tr])
        s = path.singular_values
        UtY = path.left_vectors.T @ Y[tr]
        XV = X[te] @ path.right_vectors
        XV -= XV.mean(axis=0)
        Yc = Y[te]
        Yc -= Yc.mean(axis=0)
        y_norm = np.sqrt(np.einsum("ij,ij->j", Yc, Yc))
        for gi, lam in enumerate(grid):
            pred = (XV * (s / (s**2 + lam))) @ UtY
            denom = np.sqrt(np.einsum("ij,ij->j", pred, pred)) * y_norm
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.einsum("ij,ij->j", pred, Yc) / denom
            ok = (denom != 0.0) & ~np.isnan(r)
            scores[gi, ok] += r[ok]
            counts[gi, ok] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_scores = scores / counts
    mean_scores[counts == 0] = -np.inf
    return mean_scores


def fit_fold(
    X: np.ndarray,
    Y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    inner_folds: int,
    lambda_grid: np.ndarray,
):
    """Fit one outer fold: z-score on training rows, select per-column
    lambda by inner CV, train, predict held-out rows in original Y units.

    Returns (predictions, selected lambdas, weights).
    """
    xm, xs, _ = _train_stats(X[train_idx])
    ym, ys, _ = _train_stats(Y[train_idx])
    Xtr = (X[train_idx] - xm) / xs
    Ytr = (Y[train_idx] - ym) / ys
    Xte = (X[test_idx] - xm) / xs

    lam_sel = select_lambda(Xtr, Ytr, inner_folds, lambda_grid)
    path = ridge.factor(Xtr)
    W = np.empty((X.shape[1], Y.shape[1]))
    for lam in np.unique(lam_sel):
        cols = lam_sel == lam
        W[:, cols] = ridge.solve(path, Ytr[:, cols], float(lam))
    pred = (Xte @ W) * ys + ym
    return pred, lam_sel, W


def fit_encoding(
    X: np.ndarray,
    Y: np.ndarray,
    scheme: FoldScheme,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    alpha: float = 0.05,
    fdr: str = "none",
    keep_weights: bool = False,
) -> EncodingResult:
    """Full nested-CV encoding fit of targets Y from features X.

    Significance per target: one-sided (greater) one-sample t-test of the
    per-fold held-out correlations against 0. ``fdr='bh'`` applies
    Benjamini-Hochberg at level ``alpha`` to the p-values.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"row mismatch: X {X.shape} vs Y {Y.shape}")
    if X.shape[0] != scheme.n_samples:
        raise ValueError("fold scheme does not match the data")
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if scheme.n_folds < 3:
        raise ValueError("significance testing needs at least 3 folds")

    n, v = Y.shape
    cv_pred = np.empty((n, v))
    fold_r = np.empty((scheme.n_folds, v))
    sel = np.empty((scheme.n_folds, v))
    weights = [None] * scheme.n_folds
    for fold in range(scheme.n_folds):
        tr = scheme.train_indices(fold)
        te = scheme.test_indices(fold)
        pred, sel[fold], W = fit_fold(X, Y, tr, te, inner_folds, grid)
        cv_pred[te] = pred
        fold_r[fold] = pearson_columns(pred, Y[te]) if te.size >= 3 else np.nan
        if keep_weights:
            weights[fold] = W

    mean_r = _nanmean_cols(fold_r)
    test_frac = 1.0 / scheme.n_folds
    pvals = _fold_ttest_pvalues(fold_r, test_to_train=test_frac / (1.0 - test_frac))
    if fdr == "bh":
        mask = bh_fdr(pvals, alpha)
    elif fdr == "none":
        with np.errstate(invalid="ignore"):
            mask = pvals < alpha
        mask[np.isnan(pvals)] = False
    else:
        raise ValueError(f"unknown fdr mode {fdr!r}")

    return EncodingResult(
        cv_predictions=cv_pred,
        fold_correlations=fold_r,
        mean_correlation=mean_r,
        selected_lambda=sel,
        significance_pvalues=pvals,
        significant_mask=mask,
        alpha=alpha,
        fold_weights=weights if keep_weights else [],
    )


def score_alignment(result: EncodingResult, voxel_subset) -> float:
    """Mean of mean_correlation over a voxel subset.

    Flagged (NaN) voxels are excluded; an empty subset (or all-flagged)
    returns NaN as the empty-set marker.
    """
    idx = np.asarray(voxel_subset, dtype=np.int64)
    if idx.size == 0:
        return float("nan")
    vals = result.mean_correlation[idx]
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        return float("nan")
    return float(vals.mean())


def _nanmean_cols(arr: np.ndarray) -> np.ndarray:
    """np.nanmean(arr, axis=0), bit for bit, without the "Mean of empty
    slice" warning; NaN where a column is all NaN."""
    if not np.isnan(arr).any():
        return arr.mean(axis=0)
    valid = ~np.isnan(arr)
    with np.errstate(invalid="ignore"):
        # an all-NaN column sums to 0.0 over 0 values: 0/0 is NaN
        return np.where(valid, arr, 0.0).sum(axis=0) / valid.sum(axis=0)


def _fold_ttest_pvalues(fold_r: np.ndarray, test_to_train: float = 0.0) -> np.ndarray:
    """One-sided one-sample t-test of fold correlations against 0, per column.

    Fold correlations from cross-validation are positively correlated
    (each fold's held-out rows train every other fold's model), so the
    naive variance-of-the-mean estimate sd^2/k is too small and the test
    rejects well above its nominal level on pure noise. The variance is
    therefore inflated by the Nadeau-Bengio term for dependent CV
    estimates: var(mean) ~= sd^2 * (1/k + n_test/n_train). This restores
    nominal false-positive calibration (verified empirically in the
    acceptance suite). Columns with fewer than 3 valid folds or zero
    variance get NaN.
    """
    valid = ~np.isnan(fold_r)
    counts = valid.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(valid, fold_r, 0.0).sum(axis=0) / counts
        dev = np.where(valid, fold_r - mean, 0.0)
        sd = np.sqrt((dev * dev).sum(axis=0) / (counts - 1))
        t = mean / (sd * np.sqrt(1.0 / counts + test_to_train))
    ok = (counts >= 3) & (sd != 0.0)
    pvals = np.full(fold_r.shape[1], np.nan)
    pvals[ok] = student_t_sf(t[ok], counts[ok] - 1)
    return pvals
