import hashlib
import json

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


def _rois(crossmodal, language, interaction, null):
    return {"roi_crossmodal": crossmodal, "roi_language": language,
            "roi_interaction": interaction, "roi_null": null}


PINNED_SPECS = {
    "default": {},
    "ar_0": {"ar_coef": 0.0},
    "ar_0.9_n37": {"ar_coef": 0.9, "n_samples": 37},
    "sigma_list": {"seed": 3, "noise_sigma": [0.5, 1.0, 2.0, 3.5]},
    "interaction_off": {"seed": 4, "include_interaction_in_joint": False},
    "two_components": {"seed": 5, "snr": _rois({"vis": 1.5, "shared": 0.7}, {"lang": 1.5},
                                               {"interaction": 1.5}, {})},
    "zero_voxel_roi": {"seed": 6, "voxels_per_roi": _rois(8, 0, 5, 3)},
    "wide": {"seed": 8, "n_samples": 300, "n_subjects": 1,
             "feature_dims": {"joint": 64, "lang_only": 16, "vis_only": 16, "mask_truth": 12},
             "voxels_per_roi": _rois(200, 200, 200, 200)},
}

# The first 16 hex digits of the sha256 of every array (its dtype, shape and
# bytes) and of the ground truth (sorted-key JSON) that ``generate`` returned
# for each spec above, recorded before the generator was rewritten to build
# its matrices in place. Any change to the draws or to the arithmetic shows.
PINNED_DIGESTS = {
    "default": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "4cedeeab27894e57",
        "atlas/roi_language": "679982ea62dc2228",
        "atlas/roi_null": "2c4698cad02f607c",
        "features/joint": "a7d8c025bef6c0a8",
        "features/lang_only": "034d9b658a8e5270",
        "features/mask_truth": "03c36055af00e470",
        "features/vis_only": "b2ec4929d0afff7e",
        "ground_truth": "a1c2ca9853906c49",
        "responses/0": "bfef89194d9af644",
        "responses/1": "1ad1b8cd56dca407",
        "responses/2": "9480b3eeb44fadf1",
        "responses/3": "90aecc32c9c148e9",
    },
    "ar_0": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "4cedeeab27894e57",
        "atlas/roi_language": "679982ea62dc2228",
        "atlas/roi_null": "2c4698cad02f607c",
        "features/joint": "fec6f9d44d475015",
        "features/lang_only": "99baaed0aaee0007",
        "features/mask_truth": "be20f7267f9611ea",
        "features/vis_only": "502646237cdc56ed",
        "ground_truth": "a1c2ca9853906c49",
        "responses/0": "e69f54d90a1b9942",
        "responses/1": "fdce2007fbe7afbd",
        "responses/2": "b35212c614119c73",
        "responses/3": "78de2ebaa22ee7f1",
    },
    "ar_0.9_n37": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "4cedeeab27894e57",
        "atlas/roi_language": "679982ea62dc2228",
        "atlas/roi_null": "2c4698cad02f607c",
        "features/joint": "f4c7ff56b3d766ea",
        "features/lang_only": "a858d7f175c85bdf",
        "features/mask_truth": "19be043c4044877a",
        "features/vis_only": "c080905961f1b55f",
        "ground_truth": "a1c2ca9853906c49",
        "responses/0": "451b1ef297f7f350",
        "responses/1": "f63a8ecd201b20fa",
        "responses/2": "ff2880e473031156",
        "responses/3": "219d8ed6687fbfa2",
    },
    "sigma_list": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "4cedeeab27894e57",
        "atlas/roi_language": "679982ea62dc2228",
        "atlas/roi_null": "2c4698cad02f607c",
        "features/joint": "d2128fc6c253cbe5",
        "features/lang_only": "75b601bbe1f397c3",
        "features/mask_truth": "dff172549e989087",
        "features/vis_only": "a37880aebe7c47ee",
        "ground_truth": "9df32ba298ddc0e0",
        "responses/0": "7fc9601a023ee972",
        "responses/1": "dae6033da371ebf0",
        "responses/2": "3f003aac9e3e07a5",
        "responses/3": "d372afce4b9e25b3",
    },
    "interaction_off": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "4cedeeab27894e57",
        "atlas/roi_language": "679982ea62dc2228",
        "atlas/roi_null": "2c4698cad02f607c",
        "features/joint": "34ba1ebed73c99b5",
        "features/lang_only": "b92a12ec240691d9",
        "features/mask_truth": "02760336a58f4b89",
        "features/vis_only": "2d3fb8683d9eb7c7",
        "ground_truth": "4514805e3ca4f4f6",
        "responses/0": "6856cbd948eb16c7",
        "responses/1": "66d62a7c919fc294",
        "responses/2": "d5f04f0a25d6a19c",
        "responses/3": "0c8089319b298d86",
    },
    "two_components": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "4cedeeab27894e57",
        "atlas/roi_language": "679982ea62dc2228",
        "atlas/roi_null": "2c4698cad02f607c",
        "features/joint": "6f367a9e46812d49",
        "features/lang_only": "64697e29ddbd6dcb",
        "features/mask_truth": "0842c61f2d21de1d",
        "features/vis_only": "577f899235e7709c",
        "ground_truth": "d3ead809f8473748",
        "responses/0": "084b5e8563daa26b",
        "responses/1": "756e645aa3e96639",
        "responses/2": "6988ef16fe51f010",
        "responses/3": "bbaeb0f46b68aef6",
    },
    "zero_voxel_roi": {
        "atlas/roi_crossmodal": "84ca4f50986f8594",
        "atlas/roi_interaction": "d1e320a8150147be",
        "atlas/roi_language": "55ae42cc1e37a5eb",
        "atlas/roi_null": "cd0d82b7bf0ecccf",
        "features/joint": "a1b3e5e1f9fedc08",
        "features/lang_only": "e7f26db425ebb6b2",
        "features/mask_truth": "7262b199b0286330",
        "features/vis_only": "1618f1edd296a7da",
        "ground_truth": "f2f5000cc133326b",
        "responses/0": "a7319895d89c0cf1",
        "responses/1": "2209a43c07454ac5",
        "responses/2": "7537adf338bd49e4",
        "responses/3": "8a92f7d2c1f2344f",
    },
    "wide": {
        "atlas/roi_crossmodal": "a148ed18a80f5c13",
        "atlas/roi_interaction": "5467e9786b345c8b",
        "atlas/roi_language": "e0e2641b82ab1103",
        "atlas/roi_null": "8122a58126fa31de",
        "features/joint": "dac4a9857f034ac4",
        "features/lang_only": "c13f0523fd7d5aca",
        "features/mask_truth": "030c53c647a1bfc8",
        "features/vis_only": "8f54a4aaf6c3d2fe",
        "ground_truth": "f7d5bdddc8c5783a",
        "responses/0": "8ed8f1c88b4dd419",
    },
}


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _array_digest(a: np.ndarray) -> str:
    return _digest(f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())


class TestPinnedBits:
    @pytest.mark.parametrize("name", PINNED_SPECS)
    def test_generate_is_bit_identical_to_pinned(self, name):
        data = generate(SynthSpec(**PINNED_SPECS[name]))
        got = {f"features/{k}": _array_digest(v) for k, v in data.features.items()}
        got.update({f"responses/{i}": _array_digest(Y) for i, Y in enumerate(data.responses)})
        got.update({f"atlas/{k}": _array_digest(v) for k, v in data.atlas.items()})
        got["ground_truth"] = _digest(json.dumps(data.ground_truth, sort_keys=True).encode())
        assert got == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("shape", [(37, 5), (120, 24), (300, 500)])
    def test_standardize_is_numpy_bits(self, shape):
        from brainalign import synth

        a = 2.0 + 3.0 * np.random.default_rng(shape[1]).standard_normal(shape)
        a[:, 1] = 0.25  # constant, exact mean: zero spread, scale 1
        a[:, 2] = 0.1  # constant, inexact mean: numpy's std is its rounding error
        sd = a.std(0)
        expected = (a - a.mean(0)) / np.where(sd == 0.0, 1.0, sd)
        work = a.copy()
        got = synth._standardize(work)
        assert got is work
        assert got.tobytes() == expected.tobytes()
