import warnings

import numpy as np
import pytest

from brainalign import ridge
from brainalign.contrast import (
    connection_contrast,
    interaction_contrast,
    roi_score,
    union_mask,
)
from brainalign.crossval import fit_encoding, make_folds
from brainalign.synth import SynthSpec, generate

GRID = np.logspace(-1, 6, 8)


def _result_with_mask(mask, mean_corr=None):
    from brainalign.crossval import EncodingResult

    mask = np.asarray(mask, dtype=bool)
    v = mask.size
    if mean_corr is None:
        mean_corr = np.zeros(v)
    return EncodingResult(
        cv_predictions=np.zeros((6, v)),
        fold_correlations=np.zeros((3, v)),
        mean_correlation=np.asarray(mean_corr, dtype=float),
        selected_lambda=np.zeros((3, v)),
        significance_pvalues=np.zeros(v),
        significant_mask=mask,
        alpha=0.05,
    )


class TestUnionMask:
    def test_logical_or(self):
        a = _result_with_mask([True, False, False])
        b = _result_with_mask([False, True, False])
        assert union_mask([a, b]).tolist() == [True, True, False]

    def test_single_layer_identity(self):
        a = _result_with_mask([True, False])
        assert union_mask([a]).tolist() == [True, False]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            union_mask([])

    def test_shape_disagreement(self):
        with pytest.raises(ValueError):
            union_mask([_result_with_mask([True]), _result_with_mask([True, False])])


class TestRoiScore:
    def test_masked_mean(self):
        vals = np.array([0.1, 0.2, 0.3, 0.4])
        atlas = {"a": [0, 1, 2]}
        mask = np.array([True, False, True, True])
        assert roi_score(vals, mask, atlas, "a") == pytest.approx(0.2)

    def test_no_mask_uses_all(self):
        vals = np.array([0.1, 0.2, 0.3])
        assert roi_score(vals, None, {"a": [0, 2]}, "a") == pytest.approx(0.2)

    def test_empty_intersection_flagged(self):
        vals = np.array([0.1, 0.2])
        mask = np.array([False, False])
        assert np.isnan(roi_score(vals, mask, {"a": [0, 1]}, "a"))

    def test_flagged_voxels_excluded(self):
        vals = np.array([0.1, np.nan, 0.3])
        assert roi_score(vals, None, {"a": [0, 1, 2]}, "a") == pytest.approx(0.2)

    def test_unknown_roi(self):
        with pytest.raises(KeyError):
            roi_score(np.zeros(3), None, {"a": [0]}, "b")


@pytest.fixture(scope="module")
def synth_fits():
    """Per-subject per-layer fits of joint and ablated conditions on the
    planted-connection test bed."""
    data = generate(SynthSpec(seed=3, include_interaction_in_joint=False))
    scheme = make_folds(120, 6)
    joint, ablated = [], []
    for Y in data.responses:
        joint.append([fit_encoding(data.features["joint"], Y, scheme, lambda_grid=GRID)])
        ablated.append([fit_encoding(data.features["lang_only"], Y, scheme, lambda_grid=GRID)])
    atlases = [data.atlas] * len(data.responses)
    return data, joint, ablated, atlases


class TestConnectionContrast:
    def test_planted_roi_fires(self, synth_fits):
        data, joint, ablated, atlases = synth_fits
        report = connection_contrast(joint, ablated, atlases)
        rows = {r["roi_name"]: r for r in report.roi_rows}
        row = rows["roi_crossmodal"]
        assert row["diff"] > 0.2
        assert row["p_value"] < 0.05

    def test_language_roi_does_not_favor_joint(self, synth_fits):
        data, joint, ablated, atlases = synth_fits
        report = connection_contrast(joint, ablated, atlases)
        rows = {r["roi_name"]: r for r in report.roi_rows}
        # the language ROI is driven by the lang latent, present in both
        assert abs(rows["roi_language"]["diff"]) < 0.1

    def test_self_contrast_degenerate_flagged(self, synth_fits):
        data, joint, _, atlases = synth_fits
        report = connection_contrast(joint, joint, atlases)
        for row in report.roi_rows:
            if not np.isnan(row["mean_A"]):
                assert row["diff"] == pytest.approx(0.0)
                assert np.isnan(row["paired_t"])  # zero-variance pairs flagged

    def test_report_descriptors(self, synth_fits):
        data, joint, ablated, atlases = synth_fits
        report = connection_contrast(joint, ablated, atlases, condition_a="joint")
        assert report.mode == "connection"
        assert report.voxel_selection == "union-of-significant-voxels(joint)"
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "kind,name,mean_A,mean_B,diff,statistic,p_value,n"
        assert "roi_crossmodal" in csv_text
        d = report.to_dict()
        assert set(d) >= {"mode", "roi_rows", "layerwise", "voxel_selection"}

    def test_layerwise_rows_present(self, synth_fits):
        data, joint, ablated, atlases = synth_fits
        report = connection_contrast(joint, ablated, atlases, language_rois=["roi_language"])
        assert len(report.layerwise) == 1
        assert report.layerwise[0]["layer"] == 0

    def test_misaligned_inputs(self, synth_fits):
        data, joint, ablated, atlases = synth_fits
        with pytest.raises(ValueError):
            connection_contrast(joint, ablated[:-1], atlases)
        with pytest.raises(ValueError):
            connection_contrast([], [], [])


class TestInteractionContrast:
    def _run(self, include_interaction, baseline="gaussian", seed=0):
        data = generate(SynthSpec(seed=21, include_interaction_in_joint=include_interaction))
        scheme = make_folds(120, 6)
        return interaction_contrast(
            [data.features["joint"]],
            data.features["lang_only"],
            data.features["vis_only"],
            data.responses,
            [data.atlas] * len(data.responses),
            scheme,
            lambda_grid=GRID,
            n_baseline=4,
            baseline=baseline,
            seed=seed,
        )

    def test_planted_interaction_fires(self):
        report = self._run(include_interaction=True)
        rows = {r["roi_name"]: r for r in report.roi_rows}
        assert rows["roi_interaction"]["p_value"] < 0.05
        assert rows["roi_interaction"]["diff"] > 0

    def test_no_interaction_does_not_fire(self):
        report = self._run(include_interaction=False)
        rows = {r["roi_name"]: r for r in report.roi_rows}
        assert not (rows["roi_interaction"]["p_value"] < 0.05)

    def test_null_roi_does_not_fire(self):
        report = self._run(include_interaction=True)
        rows = {r["roi_name"]: r for r in report.roi_rows}
        assert not (rows["roi_null"]["p_value"] < 0.05)

    def test_shuffle_baseline_runs(self):
        report = self._run(include_interaction=True, baseline="shuffle")
        rows = {r["roi_name"]: r for r in report.roi_rows}
        assert rows["roi_interaction"]["p_value"] < 0.05

    def test_baseline_sd_reported(self):
        report = self._run(include_interaction=True)
        for row in report.roi_rows:
            assert "baseline_sd" in row and np.isfinite(row["baseline_sd"])

    @staticmethod
    def _two_layer(atlas):
        data = generate(SynthSpec(seed=21))
        return interaction_contrast(
            [data.features["joint"], data.features["mask_truth"]],
            data.features["lang_only"],
            data.features["vis_only"],
            data.responses[:2],
            [atlas] * 2,
            make_folds(120, 6),
            lambda_grid=GRID,
            n_baseline=3,
        )

    def test_layerwise_independent_of_atlas_key_order(self):
        atlas = generate(SynthSpec(seed=21)).atlas
        reversed_atlas = dict(reversed(list(atlas.items())))
        assert list(reversed_atlas) != list(atlas)
        rows = self._two_layer(atlas).layerwise
        assert len(rows) == 2
        assert rows == self._two_layer(reversed_atlas).layerwise

    def test_layerwise_scores_roi_voxels(self):
        atlas = generate(SynthSpec(seed=21)).atlas
        report = self._two_layer({"roi_interaction": atlas["roi_interaction"]})
        (roi,) = report.roi_rows
        # one ROI: the layer rows average to that ROI's row
        layer_mean = np.mean([row["mean_A"] for row in report.layerwise])
        assert layer_mean == pytest.approx(roi["mean_A"], abs=1e-12)

    @pytest.mark.parametrize("rois", [("roi_interaction", "roi_null"), ("roi_null",)])
    def test_all_flagged_roi_is_nan_without_warning(self, rois):
        data = generate(SynthSpec(seed=21))
        atlas = {r: data.atlas[r] for r in rois}
        Y_subjects = [Y.copy() for Y in data.responses[:2]]
        for Y in Y_subjects:
            Y[:, atlas["roi_null"]] = 1.0  # every roi_null voxel is flagged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = interaction_contrast(
                [data.features["joint"], data.features["mask_truth"]],
                data.features["lang_only"],
                data.features["vis_only"],
                Y_subjects,
                [atlas] * 2,
                make_folds(120, 6),
                lambda_grid=GRID,
                n_baseline=3,
            )
        rows = {r["roi_name"]: r for r in report.roi_rows}
        for key in ("mean_A", "mean_B", "diff", "paired_t", "p_value", "baseline_sd"):
            assert np.isnan(rows["roi_null"][key])
        if "roi_interaction" in rows:
            assert np.isfinite(rows["roi_interaction"]["p_value"])
        layers_nan = [np.isnan(row["mean_A"]) for row in report.layerwise]
        assert layers_nan == [rois == ("roi_null",)] * 2

    def test_factor_count_does_not_depend_on_subjects(self, monkeypatch):
        data = generate(SynthSpec(seed=21))
        factor = ridge.factor
        counts = []
        for n_sub in (2, 4):
            calls = []
            monkeypatch.setattr(ridge, "factor", lambda X: calls.append(1) or factor(X))
            interaction_contrast(
                [data.features["joint"]],
                data.features["lang_only"],
                data.features["vis_only"],
                data.responses[:n_sub],
                [data.atlas] * n_sub,
                make_folds(120, 6),
                lambda_grid=GRID,
                n_baseline=3,
            )
            counts.append(len(calls))
        # one residualization plus 1 + 3 designs, each 6 outer x (5 inner + 1) SVDs
        assert counts == [36 * 5, 36 * 5]

    def test_subjects_of_unequal_width(self):
        data = generate(SynthSpec(seed=21))
        keep = np.arange(0, data.responses[1].shape[1], 2)
        narrow_atlas = {r: np.flatnonzero(np.isin(keep, idx)) for r, idx in data.atlas.items()}
        report = interaction_contrast(
            [data.features["joint"], data.features["mask_truth"]],
            data.features["lang_only"],
            data.features["vis_only"],
            [data.responses[0], data.responses[1][:, keep], data.responses[2]],
            [data.atlas, narrow_atlas, data.atlas],
            make_folds(120, 6),
            lambda_grid=GRID,
            n_baseline=3,
        )
        assert len(report.roi_rows) == len(data.atlas) and len(report.layerwise) == 2
        for row in report.roi_rows + report.layerwise:
            assert row["n_subjects"] == 3
            for key in ("mean_A", "mean_B", "diff", "p_value"):
                assert np.isfinite(row[key])

    def test_parameter_validation(self):
        data = generate(SynthSpec(seed=1))
        scheme = make_folds(120, 6)
        args = (
            [data.features["joint"]],
            data.features["lang_only"],
            data.features["vis_only"],
            data.responses,
            [data.atlas] * len(data.responses),
            scheme,
        )
        with pytest.raises(ValueError, match="baseline draws"):
            interaction_contrast(*args, n_baseline=2)
        with pytest.raises(ValueError, match="baseline must be"):
            interaction_contrast(*args, baseline="bogus")
