"""Condition contrasts: cross-modal connection and multimodal interaction.

Connection contrast: does a joint condition predict responses better than
its ablated counterpart? Voxel selection is the union of significantly
predicted voxels across the reference (joint) condition's layers; scores
are mean held-out correlations over ROI-masked voxels; group-level
inference is a two-sided paired t-test across subjects.

Interaction contrast: does the residual of the joint features, after
removing everything the unimodal features linearly explain, still predict
responses above a matched random baseline pushed through the identical
pipeline?

Both contrasts fill one array of region scores -- per arm (condition or
baseline draw), layer, subject and region, where the regions are each ROI
and then the union of all ROIs -- and build their ROI rows with one call
of ``stats.t_test`` and their layer rows with another. That is the one
t-test of the package: it tests mean(a - b) over axis 0 with variance
sd^2 (1/n + extra), where extra is the Nadeau-Bengio n_test/n_train for
every encoding fit's fold p-values, none (0) for the connection
contrast's paired test over subjects, and 1 for the interaction
contrast's residual against n baseline draws. NaN values are left out,
and a row with fewer than 3 values, or whose spread is at the rounding
level of its values (a constant sample or a constant offset), gets NaN.
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
    _valid_mean,
    fit_subjects,
)
from brainalign.residual import remove_information
from brainalign.stats import t_test

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
        for kind, rows in (("roi", self.roi_rows), ("layer", self.layerwise)):
            name_key, stat_key = _ROW_KEYS[kind]
            for row in rows:
                writer.writerow(
                    [kind, row[name_key], row["mean_A"], row["mean_B"], row["diff"],
                     row[stat_key], row["p_value"], row["n_subjects"]]
                )
        return buf.getvalue()


# per row kind: the keys of the row's name and of its test statistic
_ROW_KEYS = {"roi": ("roi_name", "paired_t"), "layer": ("layer", "statistic")}


def _row(kind: str, name, mean_a, mean_b, stat, p, n, **extra) -> dict:
    """One report row, in Python numbers; ``extra`` keys follow the common
    ones."""
    name_key, stat_key = _ROW_KEYS[kind]
    mean_a, mean_b, stat, p = (float(v) for v in (mean_a, mean_b, stat, p))
    return {
        name_key: name,
        "mean_A": mean_a,
        "mean_B": mean_b,
        "diff": mean_a - mean_b,
        stat_key: stat,
        "p_value": p,
        "n_subjects": int(n),
        **extra,
    }


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


def _roi_names(atlases: list[dict]) -> list[str]:
    """The ROI names every subject's atlas shares, in the first atlas's order."""
    names = list(atlases[0])
    if not names:
        raise ValueError("subject 0's atlas names no ROIs; a contrast needs at least one ROI")
    for s, atlas in enumerate(atlases[1:], start=1):
        if set(atlas) != set(names):
            raise ValueError(
                f"subject {s} has ROIs {sorted(atlas)}, subject 0 has {sorted(names)}; "
                "every subject must name the same ROIs"
            )
    return names


def _regions(atlas: dict, roi_names: list[str], mask=None) -> list[np.ndarray]:
    """Voxel indices of each ROI, then of the union of all ROIs (sorted, so
    independent of ROI order), each restricted to ``mask`` when given."""
    regions = [np.asarray(atlas[r], dtype=np.int64) for r in roi_names]
    regions.append(np.unique(np.concatenate(regions)))
    if mask is not None:
        regions = [idx[mask[idx]] for idx in regions]
    return regions


def _paired_rows(kind: str, names, a: np.ndarray, b: np.ndarray) -> list[dict]:
    """One row per column of the subject-by-row scores ``a`` and ``b``: their
    means over the subjects scored in both, and a two-sided paired t-test."""
    t, p, _ = t_test(a, b, tail="two_sided")
    valid = ~np.isnan(a - b)
    mean_a, mean_b = (
        np.apply_along_axis(_valid_mean, 0, np.where(valid, x, np.nan)) for x in (a, b)
    )
    return [_row(kind, *cols) for cols in zip(names, mean_a, mean_b, t, p, valid.sum(axis=0))]


def connection_contrast(
    joint_results: list[list[EncodingResult]],
    ablated_results: list[list[EncodingResult]],
    atlases: list[dict],
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
    from that ROI's row and counted. The per-layer rows score the union
    of every ROI's voxels within the same selection.
    """
    n_sub = len(joint_results)
    if n_sub == 0 or len(ablated_results) != n_sub or len(atlases) != n_sub:
        raise ValueError("subject lists must be nonempty and aligned")
    n_layers = len(joint_results[0])
    for jr, ar in zip(joint_results, ablated_results):
        if len(jr) != n_layers or len(ar) != n_layers:
            raise ValueError("all subjects must have the same layer count")
    roi_names = _roi_names(atlases)

    # scores[condition, layer, subject, region]; the last region is the union
    scores = np.empty((2, n_layers, n_sub, len(roi_names) + 1))
    for s, atlas in enumerate(atlases):
        regions = _regions(atlas, roi_names, mask=union_mask(joint_results[s]))
        for c, results in enumerate((joint_results, ablated_results)):
            for layer, res in enumerate(results[s]):
                scores[c, layer, s] = [_valid_mean(res.mean_correlation[idx]) for idx in regions]

    report = ContrastReport(
        mode="connection",
        voxel_selection=f"union-of-significant-voxels({condition_a})",
    )
    # per condition, subject and region: the mean over that subject's layers
    joint, ablated = np.apply_along_axis(_valid_mean, 1, scores)
    report.roi_rows = _paired_rows("roi", roi_names, joint[:, :-1], ablated[:, :-1])
    report.excluded_subjects = {
        row["roi_name"]: n_sub - row["n_subjects"]
        for row in report.roi_rows
        if row["n_subjects"] < n_sub
    }
    # per condition: subject-by-layer scores of the union region
    report.layerwise = _paired_rows("layer", range(n_layers), *scores[..., -1].transpose(0, 2, 1))
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
    (mean over subjects and layers) is tested one-sided against the K =
    ``n_baseline`` baseline-draw group scores, with the package's one test,
    ``stats.t_test``, on the residual minus each draw: t = mean /
    (sd * sqrt(1/K + 1)) on K - 1 degrees of freedom. Of its three
    variance terms -- Nadeau-Bengio n_test/n_train for fold p-values, none
    for the connection contrast's paired test -- this one is 1, the
    variance of the one new observation beside the draw mean's 1/K.
    Subjects share the feature matrices, so their diffs are not
    independent replicates; the draws are the exchangeable unit. A NaN
    draw is left out of the test, as it is of ``mean_B``. Fewer than 3
    draws left, or draws whose spread is at the rounding level of their
    values, give NaN ``paired_t``, ``p_value`` and ``baseline_sd``. With a
    ceiling, per-voxel scores are ceiling-normalized before ROI averaging.
    With more than one layer, the per-layer rows score the union of every
    ROI's voxels.

    Every subject sees the same design (a layer's residual or one baseline
    draw), so each design is fitted once for all subjects by
    ``fit_subjects``: the number of fits does not depend on the number of
    subjects. Subjects may differ in voxel count; each has its own atlas.
    """
    if n_baseline < 3:
        raise ValueError("need at least 3 baseline draws")
    if baseline not in BASELINE_MODES:
        raise ValueError(f"baseline must be one of {BASELINE_MODES}")
    n_sub = len(Y_subjects)
    if n_sub == 0 or len(atlases) != n_sub:
        raise ValueError("subject lists must be nonempty and aligned")
    unimodal = np.hstack([lang_features, vis_features])
    roi_names = _roi_names(atlases)
    regions = [_regions(atlas, roi_names) for atlas in atlases]
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
            fits = fit_subjects(X, Y_subjects, scheme, inner_folds, lambda_grid, alpha)
            for s, res in enumerate(fits):
                sub_scores = res.mean_correlation
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
    for r, a, mean_b, stat, p, sd in zip(roi_names, *_draw_test(roi_groups[:, :-1])):
        report.roi_rows.append(
            _row("roi", r, a, mean_b, stat, p, n_sub, n_baseline=n_baseline, baseline_sd=float(sd))
        )
    if n_layers > 1:
        # per draw and layer: the union-region score, mean over subjects
        layer_groups = np.apply_along_axis(_valid_mean, 2, scores[..., -1])
        for layer, a, mean_b, stat, p, _ in zip(range(n_layers), *_draw_test(layer_groups)):
            report.layerwise.append(_row("layer", layer, a, mean_b, stat, p, n_sub))
    return report


def _draw_test(groups: np.ndarray):
    """Per column of ``groups`` (draw 0 the residual, then the K baseline
    draws): the residual score, the mean of the draws, and the one-sided
    t-test of the residual against the draws with variance sd^2 (1/K + 1);
    NaN draws are left out."""
    t, p, sd = t_test(groups[:1], groups[1:], extra_var=1.0)
    return groups[0], np.apply_along_axis(_valid_mean, 0, groups[1:]), t, p, sd
