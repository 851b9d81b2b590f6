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
from brainalign.stats import bh_fdr, pearson_columns, t_test

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
    """Per-voxel cross-validated fold statistics."""

    fold_correlations: np.ndarray  # n_folds x v
    mean_correlation: np.ndarray  # v
    selected_lambda: np.ndarray  # n_folds x v
    significance_pvalues: np.ndarray  # v
    significant_mask: np.ndarray  # v, bool
    alpha: float
    fold_weights: list = field(default_factory=list, repr=False)


def _train_stats(arr: np.ndarray):
    """Z-score the training rows ``arr`` (a copy the caller owns) in place
    and return their per-column mean and scale; constant columns get scale
    1, centred values of exactly 0, and are flagged.

    A column is constant when all its values are equal, tested exactly: a
    constant whose mean does not round exactly (0.1, say) centres to the
    same rounding error in every row, not to 0, and would z-score to +-1.
    Otherwise the scale matches ``arr.std(axis=0)`` bit for bit (the tests
    check it) but is taken from the centred rows, so no float temporary of
    ``arr``'s size is allocated.
    """
    constant = (arr == arr[0]).all(axis=0)
    mean = arr.mean(axis=0)
    arr -= mean
    arr[:, constant] = 0.0
    scale = np.sqrt(np.einsum("ij,ij->j", arr, arr) / arr.shape[0])
    flagged = scale == 0.0
    scale[flagged] = 1.0
    arr /= scale
    return mean, scale, flagged


# Bytes of training rows in one column block of targets: a fold's factored
# design takes its targets this many at a time (see ``fit_fold``). It is a
# fixed number, not read from the machine, so the blocks, and with them every
# artifact's bits, are the same on every run.
BLOCK_BYTES = 8 * 2**20


def _target_blocks(v: int, n_rows: int) -> list[slice]:
    """Column slices covering v targets, each at most BLOCK_BYTES of float64
    over ``n_rows`` rows wide, and at least one column."""
    width = max(1, BLOCK_BYTES // (8 * n_rows))
    return [slice(a, min(a + width, v)) for a in range(0, v, width)]


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

    Scoring happens in the eigenbasis of each inner training design's
    smaller Gram matrix (``ridge.factor_gram``), which is faster than its
    SVD and selected what the SVD selects in every case measured; the final
    fit stays on the SVD. It never forms ridge weights or copies the inner
    training targets. Each inner design is factored once, and the columns
    of Y are then scored in blocks of ``_target_blocks``: beyond the g x v
    scores, memory that grows with v is one block, not a g x p x v weight
    tensor. ``fit_fold`` runs the same two halves on each outer fold.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    return _best_lambda(_lambda_scores(X, Y, inner_folds, grid), grid)


def _best_lambda(mean_scores: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The grid value of each column's best score, ties toward the larger."""
    # argmax with ties toward the larger lambda: scan the reversed grid
    rev_best = np.argmax(mean_scores[::-1], axis=0)
    return grid[grid.size - 1 - rev_best]


def _lambda_scores(X, Y, inner_folds, grid):
    """Mean inner-held-out correlation per grid value and column, g x v;
    -inf where no fold gives a finite score. The inner designs of X are
    factored once (``_inner_folds``) and Y is scored one column block at a
    time (``_block_scores``)."""
    folds = _inner_folds(X, inner_folds, grid)
    scores = np.empty((grid.size, Y.shape[1]))
    for cols in _target_blocks(Y.shape[1], X.shape[0]):
        scores[:, cols] = _block_scores(folds, Y[:, cols])
    return scores


@dataclass(frozen=True)
class _InnerFold:
    """One inner fold of the lambda search, factored for every target block."""

    start: int  # held-out rows are start:stop
    stop: int
    left_vectors: np.ndarray  # U of the inner training design, n_tr x r
    held_out: np.ndarray  # X_te V with its columns centred, n_te x r
    # rows whose products with z have the norms ||held_out z||: the R factor
    # of held_out when n_te > r, else held_out itself (its R would have as
    # many rows); min(n_te, r) x r
    r_factor: np.ndarray
    shrink: np.ndarray  # s / (s^2 + lam), g x r


def _inner_folds(X, inner_folds, grid) -> list[_InnerFold]:
    """The design half of choosing lambda: each contiguous inner training
    design of X factored from its smaller Gram matrix (X_tr = U diag(s) V^T,
    ``ridge.factor_gram``), with what scoring needs of its held-out rows."""
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("lambda grid must be nonempty and positive")
    scheme = make_folds(X.shape[0], inner_folds)
    folds = []
    for fold in range(inner_folds):
        te = scheme.test_indices(fold)
        if te.size < 3:
            raise ValueError("need at least 3 samples in every inner test fold")
        path = ridge.factor_gram(X[scheme.train_indices(fold)])
        s = path.singular_values
        a, b = int(te[0]), int(te[-1]) + 1
        XV = X[a:b] @ path.right_vectors
        XV -= XV.mean(axis=0)
        folds.append(_InnerFold(
            start=a,
            stop=b,
            left_vectors=path.left_vectors,
            held_out=XV,
            r_factor=np.linalg.qr(XV, mode="r") if XV.shape[0] > XV.shape[1] else XV,
            shrink=s / (s**2 + grid[:, None]),
        ))
    return folds


def _block_scores(folds: list[_InnerFold], Y: np.ndarray) -> np.ndarray:
    """The target half of choosing lambda: ``_lambda_scores`` for the
    columns of Y, training targets already z-scored, given X's inner folds.

    The held-out prediction for lam is (X_te V) diag(d) (U^T Y_tr) with
    d = s / (s^2 + lam). It is linear in X_te V, so centring those r
    columns once centres every lam's prediction, and the held-out targets
    are centred and normed once per fold. No n_te x v prediction is formed:
    the numerators come from one g x v product and the prediction norms from
    the R factor of the centred X_te V.
    """
    g, v = folds[0].shrink.shape[0], Y.shape[1]
    scores = np.zeros((g, v))
    counts = np.zeros((g, v))
    for f in folds:
        # folds are contiguous: rows a:b are held out, and U^T Y_tr is formed
        # from views of the rows before and after them, not a copy of Y_tr
        a, b, U = f.start, f.stop, f.left_vectors
        if a == 0:
            UtY = U.T @ Y[b:]
        else:
            UtY = U[:a].T @ Y[:a]
            if b < Y.shape[0]:
                UtY += U[a:].T @ Y[b:]
        Yte = Y[a:b]
        Yc = Yte - Yte.mean(axis=0)
        y_norm = np.sqrt(np.einsum("ij,ij->j", Yc, Yc))
        # a held-out target with zero spread scores NaN, however its mean
        # rounded (which depends on the block's width)
        y_norm[(Yte == Yte[0]).all(axis=0)] = 0.0
        # the numerators for every lam are one g x r by r x v product, and
        # each norm ||X_te V z|| comes from at most r rows: ||R z|| with
        # X_te V = QR when n_te > r, else X_te V's own n_te rows
        num = f.shrink @ (UtY * (f.held_out.T @ Yc))
        pred = np.empty((f.r_factor.shape[0], v))
        sq_norm = np.empty((g, v))
        for gi in range(g):
            np.matmul(f.r_factor * f.shrink[gi], UtY, out=pred)
            np.einsum("ij,ij->j", pred, pred, out=sq_norm[gi])
        denom = np.sqrt(sq_norm) * y_norm
        with np.errstate(invalid="ignore", divide="ignore"):
            r = num / denom
        ok = (denom != 0.0) & ~np.isnan(r)
        scores += np.where(ok, r, 0.0)
        counts += ok
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
    keep_weights: bool = False,
):
    """Fit one outer fold: z-score on training rows, select per-column
    lambda by inner CV, train, predict held-out rows in original Y units.

    The design is handled once: its z-scored training rows are factored
    (X_tr = U diag(s) V^T, ``ridge.factor``), each inner training design is
    factored for choosing lambda, and the test rows are projected to
    X_te V. The targets then pass through in column blocks
    (``_target_blocks``): each block's training rows are copied and
    z-scored, get their lambdas, and are predicted as
    (X_te V) diag(s / (s^2 + lam_j)) U^T Y_tr, which needs r x v, not the
    p x v weights. Beyond Y, the n_te x v predictions and the weights under
    ``keep_weights``, memory that grows with v is one block.

    Returns (predictions, selected lambdas, weights); the p x v weights are
    formed only under ``keep_weights`` and are None otherwise.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    Xtr = X[train_idx]
    xm, xs, _ = _train_stats(Xtr)
    inner = _inner_folds(Xtr, inner_folds, grid)
    path = ridge.factor(Xtr)
    XteV = ((X[test_idx] - xm) / xs) @ path.right_vectors

    v = Y.shape[1]
    pred = np.empty((test_idx.size, v))
    lam_sel = np.empty(v)
    W = np.empty((X.shape[1], v)) if keep_weights else None
    for cols in _target_blocks(v, train_idx.size):
        Ytr = Y[train_idx, cols]  # this block's copy of the training targets
        ym, ys, _ = _train_stats(Ytr)
        lam = lam_sel[cols] = _best_lambda(_block_scores(inner, Ytr), grid)
        coef = ridge.basis_weights(path, Ytr, lam)
        block = XteV @ coef
        block *= ys
        block += ym
        pred[:, cols] = block
        if keep_weights:
            W[:, cols] = path.right_vectors @ coef
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

    Each fold's held-out predictions (``fit_fold``) are scored, then dropped.

    Significance per target: one-sided (greater) ``stats.t_test`` of the
    per-fold held-out correlations against 0. Fold correlations are
    positively correlated (each fold's held-out rows train every other
    fold's model), so the naive variance of their mean, sd^2/k, is too
    small and the test would reject well above its nominal level on pure
    noise. The variance is inflated by the Nadeau-Bengio term for dependent
    CV estimates, sd^2 * (1/k + n_test/n_train), which restores nominal
    calibration (checked in the acceptance suite). Targets with fewer than
    3 valid folds or a constant fold correlation get NaN p-values.
    ``fdr='bh'`` applies Benjamini-Hochberg at level ``alpha`` to the
    p-values.
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

    v = Y.shape[1]
    fold_r = np.full((scheme.n_folds, v), np.nan)
    sel = np.empty((scheme.n_folds, v))
    weights = []
    for fold in range(scheme.n_folds):
        tr = scheme.train_indices(fold)
        te = scheme.test_indices(fold)
        pred, sel[fold], W = fit_fold(X, Y, tr, te, inner_folds, grid, keep_weights)
        if keep_weights:
            weights.append(W)
        if te.size >= 3:
            # block by block, so that the centred copies are one block wide
            for cols in _target_blocks(v, tr.size):
                fold_r[fold, cols] = pearson_columns(pred[:, cols], Y[te, cols])
        del pred  # before the next fold's are formed

    mean_r = _nanmean_cols(fold_r)
    test_frac = 1.0 / scheme.n_folds
    _, pvals, _ = t_test(fold_r, extra_var=test_frac / (1.0 - test_frac))

    return EncodingResult(
        fold_correlations=fold_r,
        mean_correlation=mean_r,
        selected_lambda=sel,
        significance_pvalues=pvals,
        significant_mask=_significance_mask(pvals, alpha, fdr),
        alpha=alpha,
        fold_weights=weights,
    )


def fit_subjects(
    X: np.ndarray,
    Y_subjects: list[np.ndarray],
    scheme: FoldScheme,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    alpha: float = 0.05,
    fdr: str = "none",
) -> list[EncodingResult]:
    """One result per subject (targets n x v_s) of one ``fit_encoding`` of
    all subjects' targets stacked on the shared design X (no copy for one
    subject), each with significance decided among its own targets alone.
    A target's numbers do not depend on its neighbours, so each result
    equals that subject's own fit; it holds views of the stacked arrays."""
    Y = Y_subjects[0] if len(Y_subjects) == 1 else np.hstack(Y_subjects)
    res = fit_encoding(X, Y, scheme, inner_folds, lambda_grid, alpha)
    results, stop = [], 0
    for Y_sub in Y_subjects:
        cols = slice(stop, stop + Y_sub.shape[1])
        stop = cols.stop
        pvals = res.significance_pvalues[cols]
        results.append(EncodingResult(
            fold_correlations=res.fold_correlations[:, cols],
            mean_correlation=res.mean_correlation[cols],
            selected_lambda=res.selected_lambda[:, cols],
            significance_pvalues=pvals,
            significant_mask=_significance_mask(pvals, alpha, fdr),
            alpha=alpha,
        ))
    return results


def _significance_mask(pvals: np.ndarray, alpha: float, fdr: str) -> np.ndarray:
    """Targets significant at ``alpha``: ``fdr='bh'`` applies
    Benjamini-Hochberg to ``pvals``, ``'none'`` takes p < alpha. NaN
    p-values are never significant."""
    if fdr == "bh":
        return bh_fdr(pvals, alpha)
    if fdr == "none":
        with np.errstate(invalid="ignore"):
            return pvals < alpha  # NaN compares False
    raise ValueError(f"unknown fdr mode {fdr!r}")


def score_alignment(result: EncodingResult, voxel_subset) -> float:
    """Mean of mean_correlation over a voxel subset.

    Flagged (NaN) voxels are excluded; an empty subset (or all-flagged)
    returns NaN as the empty-set marker.
    """
    return _valid_mean(result.mean_correlation[np.asarray(voxel_subset, dtype=np.int64)])


def _valid_mean(vals: np.ndarray) -> float:
    """Mean of the non-NaN values; NaN when there are none."""
    vals = vals[~np.isnan(vals)]
    return float(vals.mean()) if vals.size else float("nan")


def _nanmean_cols(arr: np.ndarray) -> np.ndarray:
    """np.nanmean(arr, axis=0), bit for bit, without the "Mean of empty
    slice" warning; NaN where a column is all NaN."""
    if not np.isnan(arr).any():
        return arr.mean(axis=0)
    valid = ~np.isnan(arr)
    with np.errstate(invalid="ignore"):
        # an all-NaN column sums to 0.0 over 0 values: 0/0 is NaN
        return np.where(valid, arr, 0.0).sum(axis=0) / valid.sum(axis=0)
