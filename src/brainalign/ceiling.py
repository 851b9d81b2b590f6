"""Inter-subject noise ceilings.

Each subject's responses are predicted from the column-concatenation of
all remaining subjects' responses with the same cross-validated ridge
machinery as the encoding fits; the group ceiling is the mean over the
leave-one-out choices of held-out subject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from brainalign.crossval import (
    DEFAULT_INNER_FOLDS,
    DEFAULT_LAMBDA_GRID,
    FoldScheme,
    _nanmean_cols,
    fit_encoding,
)

DEFAULT_CEILING_FLOOR = 0.05


@dataclass
class CeilingResult:
    per_voxel_ceiling: np.ndarray  # v, group mean over subjects
    per_subject_ceilings: np.ndarray  # n_subjects x v
    n_subjects: int


def noise_ceiling(
    Y_all: list[np.ndarray],
    scheme: FoldScheme,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    inner_folds: int = DEFAULT_INNER_FOLDS,
) -> CeilingResult:
    """Leave-one-subject-out ceilings over a common voxel space.

    All subject matrices must share the same shape; a mismatch is a hard
    error because averaging across misaligned voxel spaces is meaningless.
    """
    if len(Y_all) < 3:
        raise ValueError("need at least 3 subjects")
    shape = Y_all[0].shape
    for i, Y in enumerate(Y_all):
        if Y.shape != shape:
            raise ValueError(
                f"subject {i} has shape {Y.shape}, expected {shape}: "
                "subjects must share a common voxel space"
            )
    n_sub = len(Y_all)
    per_subject = np.empty((n_sub, shape[1]))
    for s in range(n_sub):
        X = np.hstack([Y_all[j] for j in range(n_sub) if j != s])
        res = fit_encoding(
            X, Y_all[s], scheme, inner_folds=inner_folds, lambda_grid=lambda_grid
        )
        per_subject[s] = res.mean_correlation
    return CeilingResult(
        per_voxel_ceiling=_nanmean_cols(per_subject),
        per_subject_ceilings=per_subject,
        n_subjects=n_sub,
    )


def normalize_by_ceiling(
    scores: np.ndarray,
    ceiling: CeilingResult,
    floor: float = DEFAULT_CEILING_FLOOR,
) -> np.ndarray:
    """Per-voxel score / max(ceiling, floor).

    Voxels whose ceiling is below the floor are flagged NaN (excluded from
    ROI means downstream) rather than divided by a near-zero ceiling.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ceil = ceiling.per_voxel_ceiling
    if scores.shape != ceil.shape:
        raise ValueError(f"shape mismatch: scores {scores.shape} vs ceiling {ceil.shape}")
    out = scores / np.maximum(ceil, floor)
    out[~(ceil >= floor)] = np.nan
    return out
