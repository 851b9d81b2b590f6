import numpy as np
import pytest

from brainalign.crossval import fit_encoding, make_folds, score_alignment
from brainalign.residual import remove_information
from brainalign.synth import SynthSpec, generate

GRID = np.logspace(-1, 6, 8)


@pytest.fixture(scope="module")
def data():
    return generate(SynthSpec(seed=7))


class TestGenerate:
    def test_shapes(self, data):
        spec = data.spec
        assert data.features["joint"].shape == (120, 24)
        assert data.features["lang_only"].shape == (120, 16)
        assert data.features["vis_only"].shape == (120, 16)
        assert data.features["mask_truth"].shape == (120, 12)
        total = sum(spec.voxels_per_roi.values())
        assert len(data.responses) == spec.n_subjects
        for Y in data.responses:
            assert Y.shape == (120, total)
        covered = np.concatenate([data.atlas[r] for r in data.atlas])
        assert sorted(covered.tolist()) == list(range(total))

    def test_deterministic_bit_identical(self):
        a = generate(SynthSpec(seed=11))
        b = generate(SynthSpec(seed=11))
        for k in a.features:
            assert np.array_equal(a.features[k], b.features[k])
        for ya, yb in zip(a.responses, b.responses):
            assert np.array_equal(ya, yb)

    @pytest.mark.parametrize(
        "kw",
        [{}, {"ar_coef": 0.0}, {"ar_coef": 0.9, "n_samples": 37},
         {"latent_dims": {"lang": 1, "vis": 7, "shared": 2, "interaction": 3}}],
    )
    def test_latents_match_per_latent_recurrence(self, monkeypatch, kw):
        """The smoothed latents, and the RNG state the features are drawn
        from, are bit-identical to smoothing each latent in its own loop."""
        from brainalign import synth

        def reference_ar1(rng, n, d, rho):
            eps = rng.standard_normal((n, d))
            if rho > 0:
                out = np.empty_like(eps)
                out[0] = eps[0]
                c = np.sqrt(1.0 - rho * rho)
                for t in range(1, n):
                    out[t] = rho * out[t - 1] + c * eps[t]
            else:
                out = eps
            return synth._standardize(out)

        spec = SynthSpec(seed=5, **kw)
        rng = np.random.default_rng(spec.seed)
        dims = spec.latent_dims
        expected = [
            reference_ar1(rng, spec.n_samples, dims[k], spec.ar_coef)
            for k in ("lang", "vis", "shared")
        ]
        rng.standard_normal((dims["lang"], dims["interaction"]))
        rng.standard_normal((dims["vis"], dims["interaction"]))
        expected_state = rng.bit_generator.state

        standardized, mix_states = [], []
        standardize, mix = synth._standardize, synth._mix
        monkeypatch.setattr(
            synth, "_standardize", lambda a: standardized.append(standardize(a)) or standardized[-1]
        )
        monkeypatch.setattr(
            synth, "_mix", lambda r, *a: mix_states.append(r.bit_generator.state) or mix(r, *a)
        )
        generate(spec)
        for got, want in zip(standardized[:3], expected):
            assert got.tobytes() == want.tobytes()
        assert mix_states[0] == expected_state

    def test_seed_changes_output(self):
        a = generate(SynthSpec(seed=1))
        b = generate(SynthSpec(seed=2))
        assert not np.array_equal(a.features["joint"], b.features["joint"])

    def test_ar_smoothing_unit_variance(self):
        d = generate(SynthSpec(seed=3, ar_coef=0.6, n_samples=400))
        F = d.features["joint"]
        # mixing preserves roughly unit scale despite AR smoothing
        assert 0.5 < F.std() < 2.0

    def test_ar_autocorrelation_present(self):
        smooth = generate(SynthSpec(seed=4, ar_coef=0.8, n_samples=500))
        white = generate(SynthSpec(seed=4, ar_coef=0.0, n_samples=500))

        def lag1(F):
            x = F[:, 0]
            return np.corrcoef(x[:-1], x[1:])[0, 1]

        assert lag1(smooth.features["joint"]) > lag1(white.features["joint"]) + 0.3

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            generate(SynthSpec(ar_coef=1.0))
        with pytest.raises(ValueError):
            generate(SynthSpec(snr={"nope": {"lang": 1.0}}))
        with pytest.raises(ValueError):
            generate(SynthSpec(noise_sigma=[1.0, 1.0]))  # wrong length for 4 subjects

    def test_ground_truth_record(self, data):
        gt = data.ground_truth
        assert gt["roi_components"]["roi_crossmodal"] == {"vis": 1.5}
        assert gt["roi_components"]["roi_null"] == {}
        assert gt["seed"] == 7


class TestPlantedSemantics:
    def test_crossmodal_roi_needs_vision(self, data):
        scheme = make_folds(120, 6)
        roi = data.atlas["roi_crossmodal"]
        joint = fit_encoding(data.features["joint"], data.responses[0], scheme, lambda_grid=GRID)
        lang = fit_encoding(data.features["lang_only"], data.responses[0], scheme, lambda_grid=GRID)
        assert score_alignment(joint, roi) > score_alignment(lang, roi) + 0.2

    def test_language_roi_survives_ablation(self, data):
        scheme = make_folds(120, 6)
        roi = data.atlas["roi_language"]
        lang = fit_encoding(data.features["lang_only"], data.responses[0], scheme, lambda_grid=GRID)
        assert score_alignment(lang, roi) > 0.3

    def test_null_roi_unpredictable(self, data):
        scheme = make_folds(120, 6)
        roi = data.atlas["roi_null"]
        joint = fit_encoding(data.features["joint"], data.responses[0], scheme, lambda_grid=GRID)
        assert abs(score_alignment(joint, roi)) < 0.1

    def test_interaction_not_linearly_recoverable(self, data):
        # the planted product component is outside the unimodal linear span
        scheme = make_folds(120, 6)
        unimodal = np.hstack([data.features["lang_only"], data.features["vis_only"]])
        resid = remove_information(unimodal, data.features["joint"], scheme, GRID)
        res = fit_encoding(unimodal, resid, scheme, lambda_grid=GRID)
        assert np.nanmean(res.mean_correlation) < 0.2
        # and the residual still predicts the interaction ROI
        roi = data.atlas["roi_interaction"]
        enc = fit_encoding(resid, data.responses[0], scheme, lambda_grid=GRID)
        assert score_alignment(enc, roi) > 0.2

    def test_interaction_toggle(self):
        scheme = make_folds(120, 6)
        off = generate(SynthSpec(seed=9, include_interaction_in_joint=False))
        unimodal = np.hstack([off.features["lang_only"], off.features["vis_only"]])
        resid = remove_information(unimodal, off.features["joint"], scheme, GRID)
        roi = off.atlas["roi_interaction"]
        enc = fit_encoding(resid, off.responses[0], scheme, lambda_grid=GRID)
        assert score_alignment(enc, roi) < 0.15

    def test_subject_noise_scaling(self):
        d = generate(SynthSpec(seed=5, noise_sigma=[0.5, 2.0, 0.5, 2.0]))
        roi = d.atlas["roi_language"]
        scheme = make_folds(120, 6)
        lang = d.features["lang_only"]
        low = score_alignment(fit_encoding(lang, d.responses[0], scheme, lambda_grid=GRID), roi)
        high = score_alignment(fit_encoding(lang, d.responses[1], scheme, lambda_grid=GRID), roi)
        assert low > high
