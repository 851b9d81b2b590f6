import collections
import warnings

import numpy as np
import pytest

from brainalign import ridge
from brainalign.contrast import (
    connection_contrast,
    interaction_contrast,
    union_mask,
)
from brainalign.crossval import fit_subjects, make_folds
from brainalign.synth import SynthSpec, generate

GRID = np.logspace(-1, 6, 8)


def _result_with_mask(mask, mean_corr=None):
    from brainalign.crossval import EncodingResult

    mask = np.asarray(mask, dtype=bool)
    v = mask.size
    if mean_corr is None:
        mean_corr = np.zeros(v)
    return EncodingResult(
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


@pytest.fixture(scope="module")
def synth_fits():
    """Per-subject per-layer fits of joint and ablated conditions on the
    planted-connection test bed."""
    data = generate(SynthSpec(seed=3, include_interaction_in_joint=False))
    scheme = make_folds(120, 6)
    joint, ablated = (
        [[res] for res in fit_subjects(data.features[c], data.responses, scheme, lambda_grid=GRID)]
        for c in ("joint", "lang_only")
    )
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
        report = connection_contrast(joint, ablated, atlases)
        assert len(report.layerwise) == 1
        row = report.layerwise[0]
        assert row["layer"] == 0
        # the curve scores the significant voxels of every ROI
        voxels = np.concatenate(list(data.atlas.values()))
        expected = []
        for jr in joint:
            idx = voxels[union_mask(jr)[voxels]]
            expected.append(np.nanmean(jr[0].mean_correlation[idx]))
        assert row["mean_A"] == pytest.approx(np.mean(expected), abs=1e-12)

    def test_misaligned_inputs(self, synth_fits):
        data, joint, ablated, atlases = synth_fits
        with pytest.raises(ValueError):
            connection_contrast(joint, ablated[:-1], atlases)
        with pytest.raises(ValueError):
            connection_contrast([], [], [])


class TestConnectionScores:
    """Exact rows from hand-built results: 3 scored subjects and one whose
    union-of-significant mask is empty, 2 layers, dyadic correlations."""

    ATLAS = {"a": [0, 1], "b": [2, 3]}  # voxel 4 lies in no ROI

    @staticmethod
    def _results(layers, mask):
        mask = np.asarray(mask, dtype=bool)
        # layer 0 marks the ROI-a voxels of the mask, layer 1 the rest
        masks = [mask & (np.arange(5) < 2), mask & (np.arange(5) >= 2)]
        return [_result_with_mask(m, mc) for m, mc in zip(masks, layers)]

    @classmethod
    def _report(cls, atlases=None):
        nan = np.nan
        subjects = [  # mask, joint layers, ablated layers
            ([1, 1, 1, 0, 1],
             [[0.5, 0.25, 0.75, 9, 9], [nan, nan, 0.5, 9, 9]],  # ROI a all NaN in layer 1
             [[0.25, 0.25, 0.25, 9, 9], [0, 0.75, 0, 9, 9]]),
            ([1, 1, 1, 1, 1],
             [[0.5, 0.5, 0.5, 0.5, 9], [0.25, 0.25, 0.25, 0.25, 9]],
             [[0, 0, 0, 0, 9], [0.25, 0.25, 0.25, 0.25, 9]]),
            ([1, 0, 1, 1, 1],
             [[0.75, 9, 0.5, 0.25, 9], [0.25, 9, nan, nan, 9]],  # ROI b all NaN in layer 1
             [[0.5, 9, 0.25, 0, 9], [0.25, 9, 0.5, 0.75, 9]]),
            ([0, 0, 0, 0, 0], [[0.5] * 5] * 2, [[0.5] * 5] * 2),  # empty mask
        ]
        joint = [cls._results(j, mask) for mask, j, _ in subjects]
        # the ablated condition's own masks play no part in the selection
        ablated = [cls._results(a, [1] * 5) for _, _, a in subjects]
        return connection_contrast(joint, ablated, atlases or [cls.ATLAS] * 4)

    @staticmethod
    def _check(row, mean_a, mean_b, stat_key):
        assert row["mean_A"] == np.mean(mean_a)
        assert row["mean_B"] == np.mean(mean_b)
        assert row["diff"] == np.mean(mean_a) - np.mean(mean_b)
        assert row["n_subjects"] == 3
        d = np.subtract(mean_a, mean_b)
        t = d.mean() / (d.std(ddof=1) / np.sqrt(3))
        assert row[stat_key] == pytest.approx(t, rel=1e-12, abs=1e-15)
        # two-sided Student-t p-value with 2 degrees of freedom, closed form
        assert row["p_value"] == pytest.approx(1 - abs(t) / np.sqrt(2 + t * t), rel=1e-12)

    def test_roi_rows_pool_layers_per_subject(self):
        report = self._report()
        a, b = report.roi_rows
        assert (a["roi_name"], b["roi_name"]) == ("a", "b")
        self._check(a, [0.375, 0.375, 0.5], [0.3125, 0.125, 0.375], "paired_t")
        self._check(b, [0.625, 0.375, 0.375], [0.125, 0.125, 0.375], "paired_t")
        assert report.excluded_subjects == {"a": 1, "b": 1}

    def test_layer_rows_score_the_roi_union(self):
        layer0, layer1 = self._report().layerwise
        assert (layer0["layer"], layer1["layer"]) == (0, 1)
        self._check(layer0, [0.5, 0.5, 0.5], [0.25, 0.0, 0.25], "statistic")
        self._check(layer1, [0.5, 0.25, 0.25], [0.25, 0.25, 0.5], "statistic")
        assert (layer1["statistic"], layer1["p_value"]) == (0.0, 1.0)

    def test_csv_layer_lines(self):
        report = self._report()
        lines = [line.split(",") for line in report.to_csv().splitlines()]
        layer_lines = [line for line in lines if line[0] == "layer"]
        assert len(layer_lines) == 2
        for line, row in zip(layer_lines, report.layerwise):
            keys = ("layer", "mean_A", "mean_B", "diff", "statistic", "p_value", "n_subjects")
            assert [float(x) for x in line[1:]] == [row[k] for k in keys]
        assert [line[0] for line in lines[1:]] == ["roi"] * 2 + ["layer"] * 2

    def test_constant_offset_is_degenerate(self):
        # every subject's joint score beats its ablated score by 0.1, which
        # subtracts back to 0.1 only up to rounding
        x = [0.3, 0.5, 0.2, 0.9]
        report = connection_contrast(
            [[_result_with_mask([True], [xs + 0.1])] for xs in x],
            [[_result_with_mask([True], [xs])] for xs in x],
            [{"a": [0]}] * 4,
        )
        for row, key in ((report.roi_rows[0], "paired_t"), (report.layerwise[0], "statistic")):
            assert row["diff"] == pytest.approx(0.1)
            assert np.isnan(row[key]) and np.isnan(row["p_value"])

    def test_atlas_key_order_does_not_matter(self):
        reordered = dict(reversed(list(self.ATLAS.items())))
        assert self._report([self.ATLAS, reordered, self.ATLAS, reordered]).to_dict() == (
            self._report().to_dict()
        )


@pytest.mark.parametrize(
    "other", [{"a": [0], "c": [1]}, {"a": [0], "b": [1], "c": [2]}], ids=["renamed", "extra"]
)
class TestSubjectsNameTheSameRois:
    ATLAS = {"a": [0], "b": [1]}

    def test_connection(self, other):
        joint = [[_result_with_mask([True, True, True], [0.1, 0.2, 0.3])]] * 2
        with pytest.raises(ValueError, match=r"subject 1 has ROIs \['a', .*'c'\]"):
            connection_contrast(joint, joint, [self.ATLAS, other])

    def test_interaction(self, other):
        X = np.random.default_rng(0).standard_normal((12, 2))
        with pytest.raises(ValueError, match=r"subject 1 has ROIs \['a', .*'c'\]"):
            interaction_contrast(
                [X], X[:, :1], X[:, 1:], [X, X], [self.ATLAS, other], make_folds(12, 3), n_baseline=3
            )


class TestAtlasWithNoRois:
    def test_connection(self):
        joint = [[_result_with_mask([True, True, True], [0.1, 0.2, 0.3])]] * 3
        with pytest.raises(ValueError, match="subject 0's atlas names no ROIs"):
            connection_contrast(joint, joint, [{}] * 3)

    def test_interaction(self):
        X = np.random.default_rng(0).standard_normal((12, 2))
        with pytest.raises(ValueError, match="subject 0's atlas names no ROIs"):
            interaction_contrast(
                [X], X[:, :1], X[:, 1:], [X, X], [{}, {}], make_folds(12, 3), n_baseline=3
            )


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
        factor, factor_gram = ridge.factor, ridge.factor_gram
        counts = []
        for n_sub in (2, 4):
            calls = collections.Counter()
            monkeypatch.setattr(ridge, "factor", lambda X: calls.update(["svd"]) or factor(X))
            monkeypatch.setattr(
                ridge, "factor_gram", lambda X: calls.update(["gram"]) or factor_gram(X)
            )
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
            counts.append(calls)
        # one residualization plus 1 + 3 designs, each 6 outer x (1 final SVD
        # + 5 inner Gram factorizations)
        assert counts == [{"svd": 6 * 5, "gram": 30 * 5}] * 2

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
