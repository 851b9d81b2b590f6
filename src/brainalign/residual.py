"""Residual information removal.

Removes the part of representation B that representation A linearly
explains: fit a ridge map A -> B, subtract the prediction, keep the
residual. The default is cross-validated (fit on training folds,
residualize held-out rows) so the removal itself cannot leak; in-sample
removal is available behind a flag for comparison.
"""

from __future__ import annotations

import numpy as np

from brainalign.crossval import (
    DEFAULT_INNER_FOLDS,
    DEFAULT_LAMBDA_GRID,
    FoldScheme,
    fit_fold,
)


def remove_information(
    A: np.ndarray,
    B: np.ndarray,
    scheme: FoldScheme,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    in_sample: bool = False,
) -> np.ndarray:
    """Residual of B after removing what A linearly explains.

    Cross-validated mode: for each fold the ridge map is fit on the
    training rows only (per-column lambda by inner CV, same machinery as
    the encoding fits) and held-out rows receive B - B_hat. In-sample
    mode runs the same fold kernel once with every row as both training
    and prediction rows. The output is in B's original units.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row mismatch: A {A.shape} vs B {B.shape}")
    grid = np.asarray(lambda_grid, dtype=np.float64)

    if in_sample:
        rows = np.arange(A.shape[0])
        return B - fit_fold(A, B, rows, rows, inner_folds, grid)[0]

    if A.shape[0] != scheme.n_samples:
        raise ValueError("fold scheme does not match the data")
    resid = np.empty_like(B)
    for fold in range(scheme.n_folds):
        tr = scheme.train_indices(fold)
        te = scheme.test_indices(fold)
        pred, _, _ = fit_fold(A, B, tr, te, inner_folds, grid)
        resid[te] = B[te] - pred
    return resid
