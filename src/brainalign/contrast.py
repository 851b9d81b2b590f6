"""Condition contrasts: cross-modal connection and multimodal interaction.

Connection contrast: does a joint condition predict responses better than
its ablated counterpart? Voxel selection is the union of significantly
predicted voxels across the reference (joint) condition's layers; scores
are mean held-out correlations over ROI-masked voxels; group-level
inference is a paired t-test across subjects.

Interaction contrast: does the residual of the joint features, after
removing everything the unimodal features linearly explain, still predict
responses above a matched random baseline pushed through the identical
pipeline?
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field

import numpy as np

from brainalign.ceiling import CeilingResult, normalize_by_ceiling
from brainalign.crossval import (
    DEFAULT_INNER_FOLDS,
    DEFAULT_LAMBDA_GRID,
    EncodingResult,
    FoldScheme,
    fit_encoding,
)
from brainalign.residual import remove_information
from brainalign.stats import ZeroVarianceError, paired_ttest, student_t_sf

BASELINE_MODES = ("gaussian", "shuffle")


@dataclass
class ContrastReport:
    mode: str  # "connection" | "interaction"
    roi_rows: list = field(default_factory=list)
    layerwise: list = field(default_factory=list)
    voxel_selection: str = ""
    normalized: bool = False
    excluded_subjects: dict = field(default_factory=dict)  # roi -> count

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "voxel_selection": self.voxel_selection,
            "normalized": self.normalized,
            "roi_rows": self.roi_rows,
            "layerwise": self.layerwise,
            "excluded_subjects": self.excluded_subjects,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["kind", "name", "mean_A", "mean_B", "diff", "statistic", "p_value", "n"]
        )
        for row in self.roi_rows:
            writer.writerow(
                [
                    "roi",
                    row["roi_name"],
                    row["mean_A"],
                    row["mean_B"],
                    row["diff"],
                    row["paired_t"],
                    row["p_value"],
                    row["n_subjects"],
                ]
            )
        for row in self.layerwise:
            writer.writerow(
                [
                    "layer",
                    row["layer"],
                    row["mean_A"],
                    row["mean_B"],
                    row["diff"],
                    row.get("statistic", float("nan")),
                    row["p_value"],
                    row.get("n_subjects", 0),
                ]
            )
        return buf.getvalue()


def union_mask(results: list[EncodingResult]) -> np.ndarray:
    """Logical OR of per-layer significance masks."""
    if not results:
        raise ValueError("need at least one layer result")
    mask = results[0].significant_mask.copy()
    for res in results[1:]:
        if res.significant_mask.shape != mask.shape:
            raise ValueError("layer results disagree on voxel count")
        mask |= res.significant_mask
    return mask


def roi_score(mean_correlation: np.ndarray, mask, atlas: dict, roi_name: str) -> float:
    """Mean correlation over ROI-and-mask voxels, flagged voxels excluded.

    Returns NaN when the intersection is empty (flagged-empty marker).
    """
    if roi_name not in atlas:
        raise KeyError(f"unknown ROI {roi_name!r}")
    idx = np.asarray(atlas[roi_name], dtype=np.int64)
    if mask is not None:
        idx = idx[np.asarray(mask, dtype=bool)[idx]]
    return _valid_mean(mean_correlation[idx])


def _valid_mean(vals: np.ndarray) -> float:
    """Mean of the non-NaN values; NaN when there are none."""
    vals = vals[~np.isnan(vals)]
    return float(vals.mean()) if vals.size else float("nan")


def _roi_union(atlas: dict, rois: list[str]) -> np.ndarray:
    """Sorted voxel indices in any of ``rois``; independent of ROI order."""
    return np.unique(np.concatenate([atlas[r] for r in rois]))


def _paired_row(a: np.ndarray, b: np.ndarray, tail: str):
    """Paired test over subjects; degenerate (zero-variance) pairs are
    flagged with NaN statistics rather than raised."""
    ok = ~(np.isnan(a) | np.isnan(b))
    a, b = a[ok], b[ok]
    n = a.size
    stat, p = float("nan"), float("nan")
    if n >= 3:
        try:
            res = paired_ttest(a, b, tail=tail)
            stat, p = res.statistic, res.p_value
        except ZeroVarianceError:
            pass
    mean_a = float(a.mean()) if n else float("nan")
    mean_b = float(b.mean()) if n else float("nan")
    return mean_a, mean_b, stat, p, n


def connection_contrast(
    joint_results: list[list[EncodingResult]],
    ablated_results: list[list[EncodingResult]],
    atlases: list[dict],
    language_rois: list[str] | None = None,
    condition_a: str = "joint",
    condition_b: str = "ablated",
) -> ContrastReport:
    """Group-level contrast of two alignment conditions.

    ``joint_results``/``ablated_results``: per subject, a list of
    per-layer encoding results over the same voxel space. The reference
    voxel selection is the union of the joint condition's significant
    masks. Per-ROI condition scores pool layers by averaging the per-layer
    ROI scores; group inference is a two-sided paired t-test across
    subjects. Subjects with an empty ROI-mask intersection are excluded
    from that ROI's row and counted.
    """
    n_sub = len(joint_results)
    if n_sub == 0 or len(ablated_results) != n_sub or len(atlases) != n_sub:
        raise ValueError("subject lists must be nonempty and aligned")
    n_layers = len(joint_results[0])
    for jr, ar in zip(joint_results, ablated_results):
        if len(jr) != n_layers or len(ar) != n_layers:
            raise ValueError("all subjects must have the same layer count")

    masks = [union_mask(jr) for jr in joint_results]
    roi_names = list(atlases[0].keys())
    if language_rois is None:
        language_rois = roi_names

    report = ContrastReport(
        mode="connection",
        voxel_selection=f"union-of-significant-voxels({condition_a})",
    )

    for roi in roi_names:
        a = np.full(n_sub, np.nan)
        b = np.full(n_sub, np.nan)
        for s in range(n_sub):
            la = [roi_score(r.mean_correlation, masks[s], atlases[s], roi) for r in joint_results[s]]
            lb = [roi_score(r.mean_correlation, masks[s], atlases[s], roi) for r in ablated_results[s]]
            la = [x for x in la if not np.isnan(x)]
            lb = [x for x in lb if not np.isnan(x)]
            if la and lb:
                a[s] = np.mean(la)
                b[s] = np.mean(lb)
        excluded = int(np.isnan(a).sum())
        if excluded:
            report.excluded_subjects[roi] = excluded
        mean_a, mean_b, stat, p, n = _paired_row(a, b, tail="two_sided")
        report.roi_rows.append(
            {
                "roi_name": roi,
                "mean_A": mean_a,
                "mean_B": mean_b,
                "diff": mean_a - mean_b,
                "paired_t": stat,
                "p_value": p,
                "n_subjects": n,
            }
        )

    # per-layer curve over the union mask restricted to the language ROIs
    for layer in range(n_layers):
        a = np.full(n_sub, np.nan)
        b = np.full(n_sub, np.nan)
        for s in range(n_sub):
            roi_idx = _roi_union(atlases[s], language_rois)
            idx = roi_idx[masks[s][roi_idx]]
            if idx.size == 0:
                continue
            va = joint_results[s][layer].mean_correlation[idx]
            vb = ablated_results[s][layer].mean_correlation[idx]
            va, vb = va[~np.isnan(va)], vb[~np.isnan(vb)]
            if va.size and vb.size:
                a[s] = va.mean()
                b[s] = vb.mean()
        mean_a, mean_b, stat, p, n = _paired_row(a, b, tail="two_sided")
        report.layerwise.append(
            {
                "layer": layer,
                "mean_A": mean_a,
                "mean_B": mean_b,
                "diff": mean_a - mean_b,
                "statistic": stat,
                "p_value": p,
                "n_subjects": n,
            }
        )
    return report


def interaction_contrast(
    joint_layers: list[np.ndarray],
    lang_features: np.ndarray,
    vis_features: np.ndarray,
    Y_subjects: list[np.ndarray],
    atlases: list[dict],
    scheme: FoldScheme,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    alpha: float = 0.05,
    n_baseline: int = 10,
    baseline: str = "gaussian",
    seed: int = 0,
    ceiling: CeilingResult | None = None,
    ceiling_floor: float = 0.05,
) -> ContrastReport:
    """Residual-vs-baseline test for information beyond the unimodal span.

    Both unimodal feature sets are removed jointly (one residualization of
    the concatenation, order-free). The baseline is ``n_baseline`` random
    matrices matching the residual's shape -- standard normal draws, or
    row-shuffled residuals with ``baseline='shuffle'`` -- pushed through
    the identical encoding pipeline. Per ROI the group residual score
    (mean over subjects and layers) is tested one-sided against the
    distribution of baseline-draw group scores: t with n_baseline - 1
    degrees of freedom and a (1 + 1/K) variance correction for comparing
    one new observation against K reference draws. Subjects share the
    feature matrices, so their diffs are not independent replicates; the
    draws are the exchangeable unit. With a ceiling, per-voxel scores are
    ceiling-normalized before ROI averaging. With more than one layer, the
    per-layer rows score the union of every ROI's voxels.

    Every subject sees the same design (a layer's residual or one baseline
    draw), so the subjects' voxels are stacked and each design is fitted
    once: the number of fits does not depend on the number of subjects.
    Subjects may differ in voxel count; each has its own atlas. (The
    ``fit`` command still fits each subject alone, because ``fdr='bh'``
    ranks p-values within one fit and stacking would pool subjects.)
    """
    if n_baseline < 3:
        raise ValueError("need at least 3 baseline draws")
    if baseline not in BASELINE_MODES:
        raise ValueError(f"baseline must be one of {BASELINE_MODES}")
    n_sub = len(Y_subjects)
    if n_sub == 0 or len(atlases) != n_sub:
        raise ValueError("subject lists must be nonempty and aligned")
    unimodal = np.hstack([lang_features, vis_features])
    roi_names = list(atlases[0].keys())
    # per subject: each ROI's voxels, then the union of all ROIs
    regions = [
        [np.asarray(atlas[r], dtype=np.int64) for r in roi_names] + [_roi_union(atlas, roi_names)]
        for atlas in atlases
    ]
    Y = np.hstack(Y_subjects)
    splits = np.cumsum([Ys.shape[1] for Ys in Y_subjects])[:-1]
    rng = np.random.default_rng(seed)

    n_layers = len(joint_layers)
    # scores[draw, layer, subject, region]; draw 0 is the residual
    scores = np.empty((n_baseline + 1, n_layers, n_sub, len(roi_names) + 1))
    for layer, layer_X in enumerate(joint_layers):
        resid = remove_information(unimodal, layer_X, scheme, lambda_grid, inner_folds)
        for draw in range(n_baseline + 1):
            if draw == 0:
                X = resid
            elif baseline == "gaussian":
                X = rng.standard_normal(resid.shape)
            else:
                X = resid[rng.permutation(resid.shape[0])]
            res = fit_encoding(
                X, Y, scheme, inner_folds=inner_folds, lambda_grid=lambda_grid, alpha=alpha
            )
            for s, sub_scores in enumerate(np.split(res.mean_correlation, splits)):
                if ceiling is not None:
                    sub_scores = normalize_by_ceiling(sub_scores, ceiling, floor=ceiling_floor)
                scores[draw, layer, s] = [_valid_mean(sub_scores[idx]) for idx in regions[s]]

    report = ContrastReport(
        mode="interaction",
        voxel_selection="all-roi-voxels",
        normalized=ceiling is not None,
    )
    # group score per draw: mean over each subject's layers, then over subjects
    roi_groups = np.apply_along_axis(_valid_mean, 1, np.apply_along_axis(_valid_mean, 1, scores))
    for r, group in zip(roi_names, roi_groups.T[:-1]):
        a, draws = float(group[0]), group[1:]
        stat, p, sd = _draw_ttest(a, draws)
        mean_b = _valid_mean(draws)
        report.roi_rows.append(
            {
                "roi_name": r,
                "mean_A": a,
                "mean_B": mean_b,
                "diff": a - mean_b,
                "paired_t": stat,
                "p_value": p,
                "n_subjects": n_sub,
                "n_baseline": n_baseline,
                "baseline_sd": sd,
            }
        )
    if n_layers > 1:
        # per draw and layer: the union-region score, mean over subjects
        layer_groups = np.apply_along_axis(_valid_mean, 2, scores[..., -1])
        for layer, group in enumerate(layer_groups.T):
            a, draws = float(group[0]), group[1:]
            stat, p, _ = _draw_ttest(a, draws)
            mean_b = _valid_mean(draws)
            report.layerwise.append(
                {
                    "layer": layer,
                    "mean_A": a,
                    "mean_B": mean_b,
                    "diff": a - mean_b,
                    "statistic": stat,
                    "p_value": p,
                    "n_subjects": n_sub,
                }
            )
    return report


def _draw_ttest(value: float, draws: np.ndarray):
    """One-sided test of a single observation against K reference draws.

    t = (value - mean(draws)) / (sd(draws) * sqrt(1 + 1/K)) with K - 1
    degrees of freedom; the extra 1/K accounts for the uncertainty of the
    draw mean. Degenerate draws (zero spread, or any NaN) flag NaN.
    """
    draws = np.asarray(draws, dtype=np.float64)
    k = draws.size
    if np.isnan(value) or np.isnan(draws).any():
        return float("nan"), float("nan"), float("nan")
    sd = float(draws.std(ddof=1))
    if sd == 0.0:
        return float("nan"), float("nan"), 0.0
    t = (value - draws.mean()) / (sd * np.sqrt(1.0 + 1.0 / k))
    return float(t), student_t_sf(float(t), k - 1), sd
