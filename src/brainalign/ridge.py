"""SVD-path ridge regression.

The design matrix is factored once; every regularization value and every
target column is then solved from that single factorization:

    X = U diag(s) V^T        (thin SVD, rank-truncated)
    W(lam) = V diag(s / (s^2 + lam)) U^T Y

which equals the normal-equations solution (X^T X + lam I)^-1 X^T Y
restricted to the retained rank.

Neither choosing lam nor predicting forms weights. A held-out prediction
is (X_te V) diag(s / (s^2 + lam)) (U^T Y), where the right factor is
``basis_weights``: r x v, not the p x v of W. Choosing lam (in
``crossval.fit_fold``: ``_inner_folds``, then ``_block_scores``) takes,
for every lam at once, the inner products of that prediction with the
held-out targets as one g x r by r x v product, and its column norms as
those of R diag(...) (U^T Y), with R the min(n_te, r) x r triangular
factor of the centred X_te V. The targets pass through in column blocks,
so scoring a grid of g values holds one min(n_te, r) x block array, reused
for every value, instead of a g x p x v weight tensor. ``solve_path``
builds that tensor; it and ``crossval.select_lambda`` have no caller here.

Each inner training design of that search is factored by ``factor_gram``,
from the eigendecomposition of the smaller Gram matrix (X^T X or X X^T).
That is faster than the SVD: 2.6x on a 400 x 512 design and 1.6x on an
80 x 24 one, with 2-core OpenBLAS. Squaring the design halves the digits
left for small singular values, so its scores differ from the SVD's by up
to about 1e-11 on ill-conditioned designs. No measured case changed the
argmax over the grid, but reported numbers would move by as much. Every
weight, prediction and correlation a caller sees therefore comes from
``factor``, the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_TRUNCATION_REL = 1e-12


class DegenerateDesignError(ValueError):
    """The design matrix is all-zero (no retained singular values)."""


@dataclass(frozen=True)
class RidgePath:
    """Immutable thin factorization U diag(s) V^T of a training design,
    shared across solves: the SVD from ``factor``, or for choosing lam the
    Gram-matrix route of ``factor_gram``."""

    left_vectors: np.ndarray  # n x r
    singular_values: np.ndarray  # r, non-increasing, positive
    right_vectors: np.ndarray  # p x r
    training_row_count: int

    @property
    def rank(self) -> int:
        return self.singular_values.size


def _checked_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if n < 2 or p < 1:
        raise ValueError(f"need n >= 2 and p >= 1, got {n}x{p}")
    if not np.all(np.isfinite(X)):
        raise ValueError("design contains non-finite values")
    return X


def factor(X: np.ndarray) -> RidgePath:
    """Thin SVD of the n-by-p design, truncating singular values below
    ``RANK_TRUNCATION_REL`` times the largest."""
    X = _checked_design(X)
    n = X.shape[0]
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[0] == 0.0:
        raise DegenerateDesignError("degenerate design: all singular values zero")
    keep = s >= RANK_TRUNCATION_REL * s[0]
    return RidgePath(
        left_vectors=np.ascontiguousarray(U[:, keep]),
        singular_values=np.ascontiguousarray(s[keep]),
        right_vectors=np.ascontiguousarray(Vt[keep].T),
        training_row_count=n,
    )


def factor_gram(X: np.ndarray) -> RidgePath:
    """The factorization of :func:`factor`, taken from the eigendecomposition
    of the smaller Gram matrix; for choosing lam only.

    With s = sqrt(w): for p <= n, X^T X = V diag(w) V^T and U = X V / s;
    for p > n, X X^T = U diag(w) U^T and V = X^T U / s. This is faster
    than the SVD, but the Gram matrix only resolves w down to about
    max(n, p) * eps * w_max, so eigenvalues at or below that are dropped,
    where ``factor`` keeps singular values down to ``RANK_TRUNCATION_REL``
    * s_max. Raises what ``factor`` raises on the same input.
    """
    X = _checked_design(X)
    n, p = X.shape
    top = np.abs(X).max()
    if top == 0.0:
        raise DegenerateDesignError("degenerate design: all singular values zero")
    # scaling by a power of two is exact and keeps the Gram matrix from
    # overflowing or underflowing where the design itself does not
    exp = np.frexp(top)[1]
    X = np.ldexp(X, -exp)
    wide = p > n
    w, Q = np.linalg.eigh(X @ X.T if wide else X.T @ X)
    keep = w > max(n, p) * np.finfo(np.float64).eps * w[-1]
    w, Q = w[keep][::-1], Q[:, keep][:, ::-1]
    s = np.sqrt(w)
    other = (X.T @ Q if wide else X @ Q) / s
    U, V = (Q, other) if wide else (other, Q)
    return RidgePath(
        left_vectors=np.ascontiguousarray(U),
        singular_values=np.ldexp(s, exp),
        right_vectors=np.ascontiguousarray(V),
        training_row_count=n,
    )


def basis_weights(path: RidgePath, Y: np.ndarray, lam) -> np.ndarray:
    """diag(s / (s^2 + lam)) U^T Y, r-by-v: the ridge weights W(lam) in the
    basis V, W = V @ basis_weights(...). Predictions for new rows are then
    (X_new V) @ basis_weights(...), which needs no p-by-v array.

    ``lam`` is one value for every column, or a length-v vector giving
    column j its own value lam[j]."""
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam <= 0):
        raise ValueError("lam must be > 0; use solve_lstsq for the unpenalized fit")
    UtY = _project(path, Y)
    s = path.singular_values[:, None]
    if lam.ndim != 0 and lam.shape != (UtY.shape[1],):
        raise ValueError(f"lam has shape {lam.shape}, expected () or ({UtY.shape[1]},)")
    UtY *= s / (s**2 + lam)
    return UtY


def solve(path: RidgePath, Y: np.ndarray, lam) -> np.ndarray:
    """Ridge weights W(lam), shape p-by-v, for targets Y (n-by-v); ``lam``
    as in :func:`basis_weights`."""
    return path.right_vectors @ basis_weights(path, Y, lam)


def solve_lstsq(path: RidgePath, Y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares weights (lam = 0) via the pseudoinverse
    of the retained rank; avoids 0/0 at truncated singular values."""
    UtY = _project(path, Y)
    inv = 1.0 / path.singular_values
    return path.right_vectors @ (inv[:, None] * UtY)


def solve_path(path: RidgePath, Y: np.ndarray, lambda_grid) -> np.ndarray:
    """Weights for every lam in the grid; shape len(grid) x p x v."""
    UtY = _project(path, Y)
    s = path.singular_values
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("lambda grid must be nonempty and positive")
    out = np.empty((grid.size, path.right_vectors.shape[0], UtY.shape[1]))
    for i, lam in enumerate(grid):
        shrink = s / (s**2 + lam)
        out[i] = path.right_vectors @ (shrink[:, None] * UtY)
    return out


def _project(path: RidgePath, Y: np.ndarray) -> np.ndarray:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != path.training_row_count:
        raise ValueError(
            f"Y has {Y.shape[0]} rows, factorization was built on "
            f"{path.training_row_count}"
        )
    return path.left_vectors.T @ Y
